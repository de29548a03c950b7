"""Durable cluster state: save/open round trips and per-shard WAL replay.

The acceptance scenario lives in
``test_kill_during_routed_insert_recovers_consistently``: a routed
insert crashes after the owning shard's WAL append but mid-apply, the
process is abandoned, and recovery must replay the per-shard WALs back
to a cluster that is byte-identical with an uncrashed twin — with the
manifest's applied-LSN floor holding for every shard.
"""

import json
import os
import shutil

import pytest

from repro import (
    POI,
    ClusterStateError,
    ClusterTree,
    KNNTAQuery,
    TimeInterval,
    open_cluster,
    recover_cluster,
    save_cluster,
)
from repro.cluster.state import is_cluster_directory, read_manifest
from repro.reliability.faults import (
    FaultInjector,
    TransientIOError,
    constant,
    inject_tree_faults,
)
from repro.reliability.wal import RECORD_INSERT, read_wal
from repro.storage.serialize import UnsupportedSnapshotError, load_tree, save_tree


def trailing_query(tree, days=28.0, k=10, alpha0=0.3):
    end = tree.current_time
    return KNNTAQuery((0.4, 0.6), TimeInterval(end - days, end), k=k, alpha0=alpha0)


def assert_same_tree(expected, actual, tmp_path, tag=""):
    """Byte-compare the canonical checksummed serialisations."""
    path_a = str(tmp_path / ("expected%s.cmp.json" % tag))
    path_b = str(tmp_path / ("actual%s.cmp.json" % tag))
    save_tree(expected, path_a)
    save_tree(actual, path_b)
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        assert a.read() == b.read()


class TestSaveOpenRoundTrip:
    def test_save_then_open_preserves_answers(self, small_dataset, tmp_path):
        cluster = ClusterTree.build(small_dataset, num_shards=3, parallelism=2)
        query = trailing_query(cluster)
        expected = cluster.query(query)
        save_cluster(cluster, str(tmp_path / "c"))
        cluster.checkpoint()
        cluster.close()

        assert is_cluster_directory(str(tmp_path / "c"))
        reopened = open_cluster(str(tmp_path / "c"))
        try:
            assert reopened.parallelism == 2  # manifest default
            assert reopened.query(query) == expected
            assert sorted(map(str, reopened.poi_ids())) == sorted(
                map(str, cluster.poi_ids())
            )
        finally:
            reopened.close()

    def test_save_twice_rejected(self, small_dataset, tmp_path):
        cluster = ClusterTree.build(small_dataset, num_shards=2)
        save_cluster(cluster, str(tmp_path / "c"))
        with pytest.raises(ClusterStateError):
            save_cluster(cluster, str(tmp_path / "other"))
        cluster.close()

    def test_checkpoint_records_every_shard_lsn(self, small_dataset, tmp_path):
        cluster = ClusterTree.build(small_dataset, num_shards=2)
        save_cluster(cluster, str(tmp_path / "c"))
        cluster.insert_poi(POI("durable-1", 30.0, 25.0), {0: 2})
        cluster.checkpoint()
        manifest = read_manifest(str(tmp_path / "c"))
        recorded = {
            entry["dir"]: entry["applied_lsn"] for entry in manifest["shards"]
        }
        for shard in cluster.shards:
            assert recorded["shard-%d" % shard.index] == shard.tree.applied_lsn
        cluster.close()

    def test_uncheckpointed_mutations_replay_on_open(self, small_dataset, tmp_path):
        cluster = ClusterTree.build(small_dataset, num_shards=3)
        save_cluster(cluster, str(tmp_path / "c"))
        cluster.checkpoint()
        # Mutations after the checkpoint land only in the per-shard WALs.
        cluster.insert_poi(POI("wal-only", 31.0, 26.0), {0: 4})
        victim = sorted(map(str, cluster.poi_ids()))[0]
        victim = next(p for p in cluster.poi_ids() if str(p) == victim)
        cluster.delete_poi(victim)
        query = trailing_query(cluster, k=8)
        expected = cluster.query(query)
        cluster.close()  # no checkpoint: simulate an unclean-but-synced exit

        reopened = open_cluster(str(tmp_path / "c"))
        try:
            assert "wal-only" in reopened
            assert victim not in reopened
            assert reopened.query(query) == expected
        finally:
            reopened.close()


class TestKillDuringRoutedInsert:
    def test_kill_during_routed_insert_recovers_consistently(
        self, small_dataset, tmp_path
    ):
        # Two identical clusters; A applies the insert cleanly, B is
        # killed mid-apply (after the owning shard's WAL append) and
        # abandoned.  Per-shard replay must bring B's shards back
        # byte-identical with A's.
        cluster_a = ClusterTree.build(small_dataset, num_shards=3)
        cluster_b = ClusterTree.build(small_dataset, num_shards=3)
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        save_cluster(cluster_a, dir_a)
        save_cluster(cluster_b, dir_b)
        cluster_a.checkpoint()
        cluster_b.checkpoint()

        poi = POI("crash-insert", 30.0, 25.0)
        history = {0: 3, 1: 1}
        owner = cluster_b.plan.route(poi.point)
        assert owner is not None
        cluster_a.insert_poi(poi, dict(history))

        # Arm write faults on the owning shard only: the WAL record hits
        # disk, then the first TIA write of the apply step "crashes".
        injector = FaultInjector(seed=0)
        injector.configure("tia", schedule=constant(1.0))
        inject_tree_faults(
            cluster_b.shards[owner].tree, injector, fault_writes=True
        )
        with pytest.raises(TransientIOError):
            cluster_b.insert_poi(poi, dict(history))
        # Abandon B without close/checkpoint — the simulated kill.

        records, _ = read_wal(os.path.join(dir_b, "shard-%d" % owner, "tree.wal"))
        assert records[-1].type == RECORD_INSERT  # logged before the crash

        report = recover_cluster(dir_b)
        assert report.replayed >= 1
        assert "shard %d" % owner in report.summary()
        for index, shard_report in enumerate(report.shard_reports):
            manifest_lsn = report.manifest["shards"][index]["applied_lsn"]
            if manifest_lsn is not None:
                assert shard_report.tree.applied_lsn >= manifest_lsn
            assert_same_tree(
                cluster_a.shards[index].tree,
                shard_report.tree,
                tmp_path,
                tag="-%d" % index,
            )

        reopened = open_cluster(dir_b)
        try:
            assert "crash-insert" in reopened
            query = trailing_query(reopened, k=8, alpha0=0.5)
            assert reopened.query(query) == cluster_a.query(query)
        finally:
            reopened.close()
            cluster_a.close()


class TestManifestConsistency:
    def saved(self, small_dataset, tmp_path):
        cluster = ClusterTree.build(small_dataset, num_shards=2)
        directory = str(tmp_path / "c")
        save_cluster(cluster, directory)
        cluster.insert_poi(POI("durable-1", 30.0, 25.0))
        cluster.checkpoint()
        cluster.close()
        return directory

    def test_shard_behind_its_checkpoint_lsn_raises(
        self, small_dataset, tmp_path
    ):
        directory = self.saved(small_dataset, tmp_path)
        path = os.path.join(directory, "cluster.json")
        with open(path) as handle:
            manifest = json.load(handle)
        # Claim a shard checkpointed further than its durable state: the
        # recovered LSN now sits behind the manifest — lost writes.
        manifest["shards"][0]["applied_lsn"] = 999
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ClusterStateError, match="behind its checkpoint"):
            recover_cluster(directory)

    def test_missing_shard_directory_raises(self, small_dataset, tmp_path):
        directory = self.saved(small_dataset, tmp_path)
        shutil.rmtree(os.path.join(directory, "shard-1"))
        with pytest.raises(ClusterStateError, match="missing shard directory"):
            recover_cluster(directory)

    def test_unsupported_manifest_version_raises(self, small_dataset, tmp_path):
        directory = self.saved(small_dataset, tmp_path)
        path = os.path.join(directory, "cluster.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["version"] = 99
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ClusterStateError, match="version"):
            recover_cluster(directory)

    def test_non_cluster_directory_rejected(self, tmp_path):
        assert not is_cluster_directory(str(tmp_path))
        with pytest.raises(ClusterStateError, match="not a cluster directory"):
            recover_cluster(str(tmp_path))

    def test_corrupt_manifest_rejected(self, small_dataset, tmp_path):
        directory = self.saved(small_dataset, tmp_path)
        with open(os.path.join(directory, "cluster.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ClusterStateError, match="unreadable"):
            recover_cluster(directory)

    def test_manifest_is_not_a_tree_snapshot(self, small_dataset, tmp_path):
        directory = self.saved(small_dataset, tmp_path)
        manifest = os.path.join(directory, "cluster.json")
        with pytest.raises(UnsupportedSnapshotError, match="cluster manifest"):
            load_tree(manifest)
