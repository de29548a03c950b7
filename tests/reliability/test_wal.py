"""Mutation-WAL chaos tests: the full insert/delete/digest stream.

The acceptance scenario for the WAL redesign: an interleaved
insert/delete/digest mutation stream, killed at *every* record boundary
(and mid-record, for torn tails), must recover to a snapshot
byte-identical with an uncrashed run stopped at the same point — and
:func:`repro.reliability.recovery.recover` must report replayed LSN
counts per record type.
"""

import errno
import os
import random
import shutil
import stat

import pytest

from repro import POI, TARTree
from repro.core.tar_tree import UnloggedMutationError
from repro.reliability.recovery import CheckpointedIngest, recover
from repro.reliability.wal import (
    RECORD_DELETE,
    RECORD_DIGEST,
    RECORD_INSERT,
    MutationWAL,
    durable_write,
)
from repro.spatial.geometry import Rect
from repro.storage.serialize import (
    UnsupportedSnapshotError,
    load_tree,
    save_tree,
)
from repro.temporal.epochs import EpochClock


def build_tree(pois=20, seed=5, **kwargs):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (20.0, 20.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=10.0,
        tia_backend="memory",
        **kwargs,
    )
    for i in range(pois):
        history = {e: rng.randrange(1, 8) for e in range(10) if rng.random() < 0.6}
        tree.insert_poi(POI(i, rng.random() * 20, rng.random() * 20), history)
    return tree


def tree_bytes(tree, tmp_path):
    path = str(tmp_path / "state.cmp.json")
    save_tree(tree, path)
    with open(path, "rb") as handle:
        return handle.read()


def mixed_stream(rng):
    """An interleaved insert/delete/digest mutation plan."""
    return [
        ("insert", POI(100, 3.0, 4.0), {2: 5, 7: 1}),
        ("digest", 10, {0: 2, 1: 1, 100: 3}),
        ("delete", 3),
        ("insert", POI(101, 15.0, 15.0), None),
        ("digest", 11, {100: 1, 101: 4, 5: 2}),
        ("delete", 100),
        ("digest", 12, {101: 1, 2: 3}),
        ("insert", POI(102, 9.5, 0.5), {11: 2}),
        ("delete", 7),
        ("digest", 13, {102: 6, 101: 1}),
        ("insert", POI(103, rng.uniform(1, 19), rng.uniform(1, 19)), None),
        ("digest", 14, {103: 2, 0: 1}),
    ]


def apply_mutation(ingest, mutation):
    kind = mutation[0]
    if kind == "insert":
        return ingest.insert(mutation[1], mutation[2])
    if kind == "delete":
        return ingest.delete(mutation[1])
    return ingest.digest(mutation[1], mutation[2])


class TestKillAtEveryRecordBoundary:
    def run_stream(self, tmp_path):
        """Run the mixed stream, recording per-boundary WAL offsets and
        the expected (uncrashed) tree bytes at each boundary."""
        rng = random.Random(17)
        directory = str(tmp_path / "live")
        tree = build_tree()
        stream = mixed_stream(rng)
        offsets = []
        expected = []
        with CheckpointedIngest(tree, directory) as ingest:
            offsets.append(os.path.getsize(ingest.log_path))
            expected.append(tree_bytes(tree, tmp_path))
            for mutation in stream:
                assert apply_mutation(ingest, mutation) is not None
                offsets.append(os.path.getsize(ingest.log_path))
                expected.append(tree_bytes(tree, tmp_path))
        return directory, stream, offsets, expected

    def crash_copy(self, directory, tmp_path, label, wal_bytes):
        """A state directory as a kill at byte ``wal_bytes`` leaves it."""
        crashed = str(tmp_path / ("crash-%s" % label))
        os.makedirs(crashed)
        shutil.copy(directory + "/tree.json", crashed + "/tree.json")
        with open(directory + "/tree.wal", "rb") as handle:
            prefix = handle.read()[:wal_bytes]
        with open(crashed + "/tree.wal", "wb") as handle:
            handle.write(prefix)
        return crashed

    def test_recovery_is_byte_identical_at_every_boundary(self, tmp_path):
        directory, stream, offsets, expected = self.run_stream(tmp_path)
        for i, offset in enumerate(offsets):
            crashed = self.crash_copy(directory, tmp_path, "b%d" % i, offset)
            report = recover(crashed)
            assert report.dropped_tail_records == 0
            assert tree_bytes(report.tree, tmp_path) == expected[i], (
                "kill after record %d diverged" % i
            )
            counts = {RECORD_INSERT: 0, RECORD_DELETE: 0, RECORD_DIGEST: 0}
            for mutation in stream[:i]:
                counts[mutation[0]] += 1
            assert report.replayed == counts

    def test_recovery_drops_torn_tail_at_every_boundary(self, tmp_path):
        # Kill *mid*-record: the torn suffix must be dropped and the
        # state must equal the previous boundary's.
        directory, _stream, offsets, expected = self.run_stream(tmp_path)
        for i in range(1, len(offsets)):
            cut = offsets[i] - 3
            assert cut > offsets[i - 1]
            crashed = self.crash_copy(directory, tmp_path, "t%d" % i, cut)
            report = recover(crashed)
            assert report.dropped_tail_records == 1
            assert tree_bytes(report.tree, tmp_path) == expected[i - 1], (
                "torn record %d diverged" % i
            )

    def test_final_report_counts_by_record_type(self, tmp_path):
        directory, stream, _offsets, expected = self.run_stream(tmp_path)
        report = recover(directory)
        assert report.replayed == {
            RECORD_INSERT: sum(1 for m in stream if m[0] == "insert"),
            RECORD_DELETE: sum(1 for m in stream if m[0] == "delete"),
            RECORD_DIGEST: sum(1 for m in stream if m[0] == "digest"),
        }
        assert report.last_lsn == len(stream) - 1
        assert "%d insert(s)" % report.replayed[RECORD_INSERT] in report.summary()
        assert tree_bytes(report.tree, tmp_path) == expected[-1]


class TestWrappedTreeContract:
    def test_direct_tree_mutations_are_logged(self, tmp_path):
        # The hooks live on the tree, so mutations that bypass the
        # ingest facade are still write-ahead logged and replayable.
        directory = str(tmp_path / "s")
        tree = build_tree()
        with CheckpointedIngest(tree, directory):
            tree.insert_poi(POI(200, 1.0, 1.0), {0: 3})
            tree.digest_epoch(10, {200: 2, 0: 1})
            assert tree.delete_poi(5)
        report = recover(directory)
        assert report.replayed == {
            RECORD_INSERT: 1,
            RECORD_DELETE: 1,
            RECORD_DIGEST: 1,
        }
        assert 200 in report.tree and 5 not in report.tree
        assert tree_bytes(report.tree, tmp_path) == tree_bytes(tree, tmp_path)

    def test_crash_between_append_and_apply_replays_the_record(self, tmp_path):
        # Write-ahead means the log can run ahead of the tree: a record
        # that was fsync'd but never applied must replay on recovery.
        directory = str(tmp_path / "s")
        tree = build_tree()
        with CheckpointedIngest(tree, directory):
            tree.digest_epoch(10, {0: 2})
        with MutationWAL(directory + "/tree.wal") as log:
            log.log_insert(201, 2.5, 2.5, {10: 4})
            log.log_delete(1)
        report = recover(directory)
        assert report.replayed[RECORD_INSERT] == 1
        assert report.replayed[RECORD_DELETE] == 1
        assert 201 in report.tree and 1 not in report.tree
        assert report.tree.poi_tia(201).get(10) == 4
        assert report.last_lsn == 2

    def test_unloggable_mutations_raise_while_wrapped(self, tmp_path):
        tree = build_tree()
        with CheckpointedIngest(tree, str(tmp_path / "s")):
            with pytest.raises(UnloggedMutationError):
                tree.bulk_load([(POI(300, 1.0, 1.0), {0: 1})])
            with pytest.raises(UnloggedMutationError):
                tree.refresh_aggregate_dimension()
        # close() detaches the listener; the tree is free again.
        tree.refresh_aggregate_dimension()

    def test_second_listener_rejected(self, tmp_path):
        tree = build_tree()
        with CheckpointedIngest(tree, str(tmp_path / "a")):
            with pytest.raises(ValueError):
                CheckpointedIngest(tree, str(tmp_path / "b"))
        # the failed wrap must not have detached the first listener's
        # slot permanently: a fresh wrap works after close()
        with CheckpointedIngest(tree, str(tmp_path / "c")) as ingest:
            assert ingest.insert(POI(400, 2.0, 2.0)) is not None

    def test_unknown_poi_digest_rejected_before_logging(self, tmp_path):
        directory = str(tmp_path / "s")
        tree = build_tree()
        with CheckpointedIngest(tree, directory) as ingest:
            with pytest.raises(KeyError):
                tree.digest_epoch(10, {"no-such-poi": 2, 0: 1})
            assert os.path.getsize(ingest.log_path) == 0
            # and nothing was half-applied before the raise
            assert tree.poi_tia(0).get(10) == 0


class TestDigestOnlyLogState:
    def test_digestlog_directory_is_refused_untouched(self, tmp_path):
        # The digest-only log that preceded the typed WAL, beside its
        # snapshot.  Starting an empty tree.wal beside it would drop
        # every record it holds, so recovery and a new ingest refuse the
        # directory by name, before any file is created or changed.
        import json
        import zlib

        directory = str(tmp_path / "old")
        os.makedirs(directory)
        tree = build_tree()
        save_tree(tree, directory + "/tree.json")
        body = json.dumps([0, 10, [[0, 2, 2]]], separators=(",", ":"))
        line = "%08x %s\n" % (zlib.crc32(body.encode("utf-8")), body)
        with open(directory + "/tree.digestlog", "w") as handle:
            handle.write(line)
        with pytest.raises(UnsupportedSnapshotError, match="tree.digestlog"):
            recover(directory)
        with pytest.raises(UnsupportedSnapshotError, match="tree.digestlog"):
            CheckpointedIngest(tree, directory)
        assert sorted(os.listdir(directory)) == ["tree.digestlog", "tree.json"]
        with open(directory + "/tree.digestlog") as handle:
            assert handle.read() == line
        # The refused ingest never attached itself to the tree.
        with CheckpointedIngest(tree, str(tmp_path / "fresh")):
            pass


# ----------------------------------------------------------------------
# Whole-file rewrites: fsync the file, replace, then fsync the directory
# ----------------------------------------------------------------------
#
# Each writer's setup returns ``(write, targets, close)``: ``write`` runs
# under the recorder and must replace exactly ``targets``, in order.


def _wal_reset(directory):
    log = MutationWAL(os.path.join(directory, "tree.wal"))
    log.append(RECORD_DELETE, [1])
    return log.reset, [log.path], log.close


def _tree_snapshot(directory):
    # A checkpoint writes the snapshot, then resets the log.
    ingest = CheckpointedIngest(build_tree(pois=5), directory)
    return ingest.checkpoint, [ingest.snapshot_path, ingest.log_path], ingest.close


def _cluster_manifest(directory):
    from repro.cluster.state import MANIFEST_NAME, write_manifest_payload

    def write():
        write_manifest_payload(directory, {"version": 1})

    return write, [os.path.join(directory, MANIFEST_NAME)], lambda: None


def _shard_meta(directory):
    from repro.cluster.state import SHARD_META_NAME, write_shard_meta

    def write():
        write_shard_meta(directory, 1, True)

    return write, [os.path.join(directory, SHARD_META_NAME)], lambda: None


def _worker_announce(directory):
    from repro.cluster.workers import ANNOUNCE_NAME, ShardWorkerServer

    CheckpointedIngest(build_tree(pois=5), directory).close()
    server = ShardWorkerServer(directory)
    return server.announce, [os.path.join(directory, ANNOUNCE_NAME)], server.shutdown


def _scrubber_manifest(directory):
    from repro.service.locks import ReadWriteLock
    from repro.service.scrubber import Scrubber

    path = os.path.join(directory, "tree.scrub.json")
    scrubber = Scrubber(build_tree(pois=5), ReadWriteLock(), manifest_path=path)
    return scrubber.rebaseline, [path], lambda: None


@pytest.mark.parametrize(
    "writer",
    [
        _wal_reset,
        _tree_snapshot,
        _cluster_manifest,
        _shard_meta,
        _worker_announce,
        _scrubber_manifest,
    ],
    ids=lambda writer: writer.__name__.lstrip("_"),
)
def test_every_file_rewrite_fsyncs_file_then_replaces_then_fsyncs_directory(
    writer, tmp_path, monkeypatch
):
    # A rename is durable only once its directory is fsynced, and only
    # names durable data once the file was fsynced before it.
    directory = str(tmp_path / "state")
    os.makedirs(directory)
    write, targets, close = writer(directory)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(source, target):
        events.append(("replace", os.stat(source).st_ino, os.path.abspath(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    try:
        write()
    finally:
        monkeypatch.undo()
        close()
    expected = []
    for target in targets:
        inode = os.stat(target).st_ino
        expected += [
            ("fsync", inode),
            ("replace", inode, os.path.abspath(target)),
            ("fsync", os.stat(os.path.dirname(target)).st_ino),
        ]
    assert events == expected


def test_overlapping_rewrites_of_one_path_do_not_share_a_temp_file(tmp_path):
    # The scrub thread and a checkpoint can persist the scrubber
    # manifest at once: a shared temp file would let the inner rewrite
    # truncate the outer one's file and rename it away underneath it.
    path = str(tmp_path / "tree.scrub.json")
    with durable_write(path) as outer:
        outer.write("outer\n")
        with durable_write(path) as inner:
            inner.write("inner\n")
    with open(path) as handle:
        assert handle.read() == "outer\n"
    assert os.listdir(str(tmp_path)) == ["tree.scrub.json"]


def test_rewrite_that_raises_keeps_the_target_and_drops_its_temp_file(tmp_path):
    path = str(tmp_path / "cluster.json")
    with open(path, "w") as handle:
        handle.write("old\n")
    with pytest.raises(RuntimeError):
        with durable_write(path) as handle:
            handle.write("new\n")
            raise RuntimeError("writer failed")
    with open(path) as handle:
        assert handle.read() == "old\n"
    assert os.listdir(str(tmp_path)) == ["cluster.json"]


def test_log_reset_that_fails_after_its_rename_refuses_later_writes(
    tmp_path, monkeypatch
):
    # The directory fsync runs after the rename has unlinked the old
    # log.  If it fails, the next write must raise: acknowledging it
    # into the unlinked file would lose it at the next restart.
    tree = build_tree(pois=5)
    ingest = CheckpointedIngest(tree, str(tmp_path))
    replaced = []
    real_fsync, real_replace = os.fsync, os.replace

    def replace(source, target):
        real_replace(source, target)
        replaced.append(target)

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode) and replaced[-1:] == [ingest.log_path]:
            raise OSError(errno.EIO, "directory fsync failed")
        real_fsync(fd)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="directory fsync failed"):
        ingest.checkpoint()
    monkeypatch.undo()
    with pytest.raises(ValueError):
        ingest.log.append(RECORD_DELETE, [0])
    with pytest.raises(ValueError):
        ingest.insert(POI(999, 1.0, 1.0), {9: 4})
    assert 999 not in tree
    ingest.close()
