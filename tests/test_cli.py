"""The command-line interface end to end."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_cli_err(argv):
    """Like run_cli but also captures stderr (serve/shard-worker
    refusals print there so scripts can tell refusal from output)."""
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.npz"
    code, output = run_cli(
        ["generate", "--preset", "LA", "--scale", "0.01", "--seed", "3",
         "--out", str(path)]
    )
    assert code == 0
    assert "wrote" in output
    return path


@pytest.fixture(scope="module")
def tree_file(dataset_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tree.json"
    code, output = run_cli(
        ["build", str(dataset_file), "--strategy", "integral3d",
         "--out", str(path)]
    )
    assert code == 0
    assert "TARTree" in output
    return path


@pytest.fixture(scope="module")
def cluster_dir(dataset_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cluster"
    code, output = run_cli(
        ["shard", str(dataset_file), "--shards", "4", "--out", str(path)]
    )
    assert code == 0
    assert "4 shards" in output
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_query_needs_interval(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "t.json", "--x", "1", "--y", "2"])

    def test_query_interval_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "t.json", "--x", "1", "--y", "2",
                 "--last-days", "7", "--interval", "0", "7"]
            )


class TestGenerate:
    def test_reports_statistics(self, dataset_file):
        # The module-scoped fixture already asserts success; re-read it.
        from repro.storage.serialize import load_dataset

        data = load_dataset(dataset_file)
        assert data.num_pois == 455
        assert data.name == "LA"


class TestFit:
    def test_fit_runs(self, dataset_file):
        code, output = run_cli(["fit", str(dataset_file), "--bootstrap", "5"])
        assert code == 0
        assert "beta=" in output
        assert "xmin=" in output


class TestQuery:
    def test_query_prints_ranked_results(self, tree_file):
        code, output = run_cli(
            ["query", str(tree_file), "--x", "50", "--y", "50",
             "--last-days", "60", "--k", "3"]
        )
        assert code == 0
        assert output.count("#") == 3
        # The cost line renders every AccessStats.as_dict() counter.
        assert "node accesses" in output
        assert "internal" in output and "leaf" in output
        assert "TIA page reads" in output and "buffer hits" in output

    def test_query_with_explicit_interval(self, tree_file):
        code, output = run_cli(
            ["query", str(tree_file), "--x", "10", "--y", "90",
             "--interval", "0", "400", "--k", "2", "--alpha0", "0.7"]
        )
        assert code == 0
        assert "alpha0=0.7" in output

    def test_scan_cross_check_passes(self, tree_file):
        code, output = run_cli(
            ["query", str(tree_file), "--x", "30", "--y", "70",
             "--last-days", "120", "--k", "5", "--scan"]
        )
        assert code == 0
        assert "scan cross-check: OK" in output


class TestShard:
    def test_shard_reports_the_plan(self, cluster_dir):
        # The module fixture already built it; the manifest is on disk.
        from repro.cluster import is_cluster_directory

        assert is_cluster_directory(str(cluster_dir))
        code, output = run_cli(
            ["shard", str(cluster_dir / "missing.npz"), "--out",
             str(cluster_dir / "nope")]
        )
        assert code == 2
        assert "cannot read dataset snapshot" in output

    def test_shard_lines_describe_every_region(self, dataset_file, tmp_path):
        code, output = run_cli(
            ["shard", str(dataset_file), "--shards", "3", "--method", "grid",
             "--out", str(tmp_path / "c")]
        )
        assert code == 0
        assert "(grid plan)" in output
        assert output.count("shard ") == 3


class TestClusterQuery:
    def test_query_against_a_cluster_directory(self, cluster_dir):
        code, output = run_cli(
            ["query", str(cluster_dir), "--x", "50", "--y", "50",
             "--last-days", "60", "--k", "3"]
        )
        assert code == 0
        assert output.count("#") == 3
        assert "cluster:" in output
        assert "of 4 shard(s) visited" in output

    def test_query_explain_prints_shard_labeled_costs(self, cluster_dir):
        code, output = run_cli(
            ["query", str(cluster_dir), "--x", "50", "--y", "50",
             "--last-days", "60", "--k", "3", "--explain"]
        )
        assert code == 0
        assert "shards.visited = " in output
        assert "shards.0." in output or "shards.1." in output

    def test_cluster_matches_single_tree_answers(self, cluster_dir, tree_file):
        argv = ["--x", "30", "--y", "70", "--last-days", "120", "--k", "5"]
        code_c, cluster_output = run_cli(["query", str(cluster_dir)] + argv)
        code_t, tree_output = run_cli(["query", str(tree_file)] + argv)
        assert code_c == code_t == 0
        ranked = [
            line for line in cluster_output.splitlines() if line.strip().startswith("#")
        ]
        assert ranked == [
            line for line in tree_output.splitlines() if line.strip().startswith("#")
        ]

    def test_scan_cross_check_passes_on_a_cluster(self, cluster_dir):
        code, output = run_cli(
            ["query", str(cluster_dir), "--x", "10", "--y", "90",
             "--last-days", "200", "--k", "5", "--scan"]
        )
        assert code == 0
        assert "scan cross-check: OK" in output

    def test_corrupt_shard_snapshot_exits_two(self, dataset_file, tmp_path):
        from repro.reliability.faults import flip_bit

        code, _ = run_cli(
            ["shard", str(dataset_file), "--shards", "2",
             "--out", str(tmp_path / "c")]
        )
        assert code == 0
        flip_bit(str(tmp_path / "c" / "shard-0" / "tree.json"), bit_index=2000)
        code, output = run_cli(
            ["query", str(tmp_path / "c"), "--x", "50", "--y", "50",
             "--last-days", "60", "--k", "3"]
        )
        assert code == 2
        assert "cannot open cluster" in output

    def test_directory_without_manifest_exits_two(self, tmp_path):
        code, output = run_cli(
            ["query", str(tmp_path), "--x", "1", "--y", "1", "--last-days", "7"]
        )
        assert code == 2
        assert "no cluster manifest" in output


class TestWatch:
    @pytest.fixture()
    def watchable(self, small_dataset, tmp_path):
        # A tree over the leading 70% of the history, with the data set
        # alongside: `watch --dataset` replays the remaining tail.
        from repro import TARTree
        from repro.storage.serialize import save_dataset, save_tree

        tree = TARTree.build(small_dataset.snapshot(0.7))
        tree_path = tmp_path / "watch-tree.json"
        data_path = tmp_path / "watch-data.npz"
        save_tree(tree, str(tree_path))
        save_dataset(small_dataset, str(data_path))
        return tree_path, data_path

    def test_watch_without_dataset_prints_initial_ranking(self, watchable):
        tree_path, _ = watchable
        code, output = run_cli(
            ["watch", str(tree_path), "--x", "40", "--y", "40",
             "--window", "3", "--k", "3"]
        )
        assert code == 0
        assert "watching top-3 at (40, 40), window 3 epoch(s)" in output
        assert output.count("#") == 3
        assert "replayed" not in output

    def test_watch_replays_the_dataset_tail(self, watchable):
        tree_path, data_path = watchable
        code, output = run_cli(
            ["watch", str(tree_path), "--x", "40", "--y", "40",
             "--window", "3", "--k", "5", "--dataset", str(data_path)]
        )
        assert code == 0
        assert "seq 1:" in output
        assert "update(s) pushed" in output
        assert "evals.errors=0" in output

    def test_max_updates_caps_the_replay(self, watchable):
        tree_path, data_path = watchable
        code, output = run_cli(
            ["watch", str(tree_path), "--x", "40", "--y", "40",
             "--window", "3", "--dataset", str(data_path),
             "--max-updates", "2"]
        )
        assert code == 0
        assert "2 update(s) pushed" in output
        assert "seq 3:" not in output

    def test_watch_a_cluster_directory(self, cluster_dir):
        code, output = run_cli(
            ["watch", str(cluster_dir), "--x", "50", "--y", "50",
             "--window", "2", "--k", "3"]
        )
        assert code == 0
        assert "watching top-3" in output

    def test_watch_bad_directory_exits_two(self, tmp_path):
        code, output = run_cli(
            ["watch", str(tmp_path), "--x", "1", "--y", "1", "--window", "2"]
        )
        assert code == 2
        assert "no cluster manifest" in output


class TestMWA:
    def test_mwa_prints_bounds(self, tree_file):
        code, output = run_cli(
            ["mwa", str(tree_file), "--x", "50", "--y", "50",
             "--last-days", "120", "--k", "5"]
        )
        assert code == 0
        assert "alpha0" in output
        assert ("minimum adjustment" in output) or ("immutable" in output)

    def test_mwa_methods_agree(self, tree_file):
        argv = ["mwa", str(tree_file), "--x", "20", "--y", "40",
                "--last-days", "200", "--k", "5"]
        _, pruning = run_cli(argv + ["--method", "pruning"])
        _, enumerating = run_cli(argv + ["--method", "enumerating"])
        assert pruning == enumerating


class TestVerify:
    def test_clean_tree_exits_zero(self, tree_file):
        code, output = run_cli(["verify", str(tree_file)])
        assert code == 0
        assert "no violations" in output

    def test_clean_tree_with_dataset_exits_zero(self, tree_file, dataset_file):
        code, output = run_cli(
            ["verify", str(tree_file), "--dataset", str(dataset_file)]
        )
        assert code == 0
        assert "no violations" in output

    def test_dataset_check_counts_each_poi_once(self, tree_file, dataset_file):
        from repro.storage.serialize import load_tree

        pois = len(load_tree(str(tree_file)))
        code, output = run_cli(
            ["verify", str(tree_file), "--dataset", str(dataset_file)]
        )
        assert code == 0
        assert "%d POIs checked" % pois in output

    def test_mismatched_dataset_exits_one(self, tree_file, tmp_path):
        other = tmp_path / "other.npz"
        code, _ = run_cli(
            ["generate", "--preset", "LA", "--scale", "0.01", "--seed", "4",
             "--out", str(other)]
        )
        assert code == 0
        code, output = run_cli(
            ["verify", str(tree_file), "--dataset", str(other)]
        )
        assert code == 1
        assert "violation codes" in output

    def test_corrupt_tree_exits_two(self, tree_file, tmp_path):
        import json

        corrupt = tmp_path / "corrupt.json"
        payload = json.loads(tree_file.read_text())
        payload["sections"]["pois"][0][3][0][1] += 1
        corrupt.write_text(json.dumps(payload))
        code, output = run_cli(["verify", str(corrupt)])
        assert code == 2
        assert "corrupt tree snapshot" in output
        assert "'pois'" in output

    def test_missing_files_exit_two(self, tree_file, tmp_path):
        code, output = run_cli(["verify", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read tree snapshot" in output
        code, output = run_cli(
            ["verify", str(tree_file), "--dataset", str(tmp_path / "no.npz")]
        )
        assert code == 2
        assert "cannot read dataset snapshot" in output

    def test_unsupported_version_exits_two(self, tree_file, tmp_path):
        import json

        payload = json.loads(tree_file.read_text())
        for version in (2, 99):
            other = tmp_path / ("v%d.json" % version)
            other.write_text(json.dumps(dict(payload, version=version)))
            for command in (
                ["verify", str(other)],
                ["query", str(other), "--x", "50", "--y", "50", "--last-days", "60"],
            ):
                code, output = run_cli(command)
                assert code == 2
                assert "format version %d;" % version in output

    def test_cluster_manifest_exits_two(self, cluster_dir):
        code, output = run_cli(["verify", str(cluster_dir / "cluster.json")])
        assert code == 2
        assert "cluster manifest" in output

    def test_corrupt_dataset_exits_two(self, tree_file, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"\x00" * 64)
        code, output = run_cli(
            ["verify", str(tree_file), "--dataset", str(garbage)]
        )
        assert code == 2
        assert "corrupt dataset snapshot" in output


class TestRecover:
    def make_state(self, tree_file, directory):
        """A crashed ingest state: snapshot + un-checkpointed WAL."""
        from repro.core.tar_tree import POI
        from repro.reliability.recovery import CheckpointedIngest
        from repro.storage.serialize import load_tree

        tree = load_tree(str(tree_file))
        epoch = tree.num_epochs
        poi_ids = sorted(tree.poi_ids())[:3]
        with CheckpointedIngest(tree, str(directory)) as ingest:
            ingest.insert(POI("cli-poi", 50.0, 50.0), {epoch - 1: 2})
            ingest.digest(epoch, {poi_ids[0]: 2, "cli-poi": 1})
            ingest.delete(poi_ids[1])
        return tree

    def test_recover_replays_and_reports(self, tree_file, tmp_path):
        self.make_state(tree_file, tmp_path)
        code, output = run_cli(["recover", str(tmp_path)])
        assert code == 0
        assert "1 insert(s)" in output
        assert "1 delete(s)" in output
        assert "1 epoch batch(es) replayed" in output

    def test_recover_with_checkpoint_resets_the_wal(self, tree_file, tmp_path):
        from repro.reliability.wal import RECORD_CHECKPOINT, read_wal

        self.make_state(tree_file, tmp_path)
        code, output = run_cli(["recover", str(tmp_path), "--checkpoint"])
        assert code == 0
        assert "checkpointed to" in output
        records, dropped = read_wal(str(tmp_path / "tree.wal"))
        assert dropped == 0
        assert [record.type for record in records] == [RECORD_CHECKPOINT]
        # a second recovery now replays nothing
        code, output = run_cli(["recover", str(tmp_path)])
        assert code == 0
        assert "0 insert(s)" in output

    def test_recover_verify_runs_validators(self, tree_file, tmp_path):
        self.make_state(tree_file, tmp_path)
        code, output = run_cli(["recover", str(tmp_path), "--verify"])
        assert code == 0
        assert "no violations" in output

    def test_missing_state_exits_two(self, tmp_path):
        code, output = run_cli(["recover", str(tmp_path / "nope")])
        assert code == 2
        assert "cannot read state" in output

    def test_corrupt_wal_exits_two(self, tree_file, tmp_path):
        self.make_state(tree_file, tmp_path)
        wal = tmp_path / "tree.wal"
        lines = wal.read_text().splitlines(keepends=True)
        lines[0] = "deadbeef" + lines[0][8:]
        wal.write_text("".join(lines))
        code, output = run_cli(["recover", str(tmp_path)])
        assert code == 2
        assert "corrupt state" in output
        assert "'wal'" in output


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "t.json"])
        assert args.port == 0
        assert args.workers == 2
        assert args.batch_size == 16
        assert args.queue_limit == 256
        assert args.state_dir is None

    def test_missing_tree_exits_two(self, tmp_path):
        code, output, error = run_cli_err(
            ["serve", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert output == ""
        assert "cannot read state" in error

    @pytest.mark.timeout(120)
    def test_serves_queries_over_tcp(self, tree_file, tmp_path):
        import json
        import re
        import socket
        import threading
        import time

        state_dir = tmp_path / "state"
        out = io.StringIO()
        result = {}

        def serve():
            result["code"] = main(
                ["serve", str(tree_file), "--port", "0",
                 "--state-dir", str(state_dir), "--scrub-interval-ms", "0"],
                out=out,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        # Poll the captured output for the bound port.
        deadline = time.monotonic() + 30
        match = None
        while time.monotonic() < deadline and not match:
            match = re.search(r"serving on ([\d.]+):(\d+)", out.getvalue())
            time.sleep(0.02)
        assert match, out.getvalue()
        address = (match.group(1), int(match.group(2)))

        sock = socket.create_connection(address, timeout=30)
        handle = sock.makefile("rwb")

        def rpc(payload):
            handle.write((json.dumps(payload) + "\n").encode("utf-8"))
            handle.flush()
            return json.loads(handle.readline())

        assert rpc({"op": "ping"})["pong"]
        response = rpc(
            {"op": "query", "point": [50, 50], "interval": [0, 200], "k": 3}
        )
        assert response["ok"]
        assert len(response["results"]) == 3
        response = rpc(
            {"op": "insert", "poi_id": "tcp-poi", "point": [50.0, 50.0],
             "aggregates": [[1, 4]]}
        )
        assert response["ok"]
        assert rpc({"op": "shutdown"})["bye"]
        sock.close()
        thread.join(timeout=30)
        assert result["code"] == 0
        assert "shut down" in out.getvalue()
        # The WAL-backed state dir holds the mutation durably.
        from repro.reliability.recovery import recover

        assert "tcp-poi" in recover(str(state_dir)).tree

    def test_refuses_wal_without_checkpoint(self, tree_file, tmp_path):
        # Regression: a state dir holding a WAL but no snapshot used to
        # start an empty serving session, silently orphaning the durable
        # mutations.  It must refuse with an actionable message instead.
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "tree.wal").write_text("")
        code, output, error = run_cli_err(
            ["serve", str(tree_file), "--state-dir", str(state_dir)]
        )
        assert code == 2
        assert output == ""
        assert "refusing to start" in error
        assert "repro recover" in error

    def test_refuses_legacy_digestlog_without_checkpoint(
        self, tree_file, tmp_path
    ):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "tree.digestlog").write_text("")
        code, _, error = run_cli_err(
            ["serve", str(tree_file), "--state-dir", str(state_dir)]
        )
        assert code == 2
        assert "tree.digestlog" in error

    def test_cluster_and_state_dir_conflict(self, cluster_dir, tmp_path):
        code, _, error = run_cli_err(
            ["serve", str(cluster_dir), "--cluster",
             "--state-dir", str(tmp_path / "state")]
        )
        assert code == 2
        assert "--state-dir does not apply" in error

    def test_cluster_on_a_non_cluster_directory_exits_two(self, tmp_path):
        code, _, error = run_cli_err(["serve", str(tmp_path), "--cluster"])
        assert code == 2
        assert "cannot open cluster" in error

    @pytest.mark.timeout(120)
    def test_serves_cluster_queries_over_tcp(self, cluster_dir, tmp_path):
        import json
        import re
        import shutil
        import socket
        import threading
        import time

        # Serving checkpoints on shutdown; work on a private copy.
        directory = tmp_path / "cluster"
        shutil.copytree(cluster_dir, directory)
        out = io.StringIO()
        result = {}

        def serve():
            result["code"] = main(
                ["serve", str(directory), "--cluster",
                 "--port", "0", "--scrub-interval-ms", "0"],
                out=out,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        match = None
        while time.monotonic() < deadline and not match:
            match = re.search(r"serving on ([\d.]+):(\d+)", out.getvalue())
            time.sleep(0.02)
        assert match, out.getvalue()
        assert "shards recovered" in out.getvalue()
        address = (match.group(1), int(match.group(2)))

        sock = socket.create_connection(address, timeout=30)
        handle = sock.makefile("rwb")

        def rpc(payload):
            handle.write((json.dumps(payload) + "\n").encode("utf-8"))
            handle.flush()
            return json.loads(handle.readline())

        response = rpc(
            {"op": "query", "point": [50, 50], "interval": [0, 200], "k": 3}
        )
        assert response["ok"]
        assert len(response["results"]) == 3
        response = rpc(
            {"op": "insert", "poi_id": "tcp-cluster-poi",
             "point": [50.0, 50.0], "aggregates": [[1, 4]]}
        )
        assert response["ok"]
        stats = rpc({"op": "stats"})
        assert stats["stats"]["cluster"]["shards"] == 4
        assert rpc({"op": "shutdown"})["bye"]
        sock.close()
        thread.join(timeout=30)
        assert result["code"] == 0
        # Shutdown checkpointed the cluster: the mutation is durable.
        from repro.cluster import open_cluster

        reopened = open_cluster(str(directory))
        try:
            assert "tcp-cluster-poi" in reopened
        finally:
            reopened.close()


class TestShardWorkers:
    """The out-of-process serving surface: ``serve --shard-workers``
    plus the ``shard-worker`` per-shard entry point."""

    def test_parser_accepts_shard_workers(self):
        args = build_parser().parse_args(
            ["serve", "c", "--cluster", "--shard-workers"]
        )
        assert args.shard_workers is True
        args = build_parser().parse_args(["serve", "c", "--shard-workers"])
        assert args.shard_workers is True  # implies --cluster downstream

    def test_shard_worker_parser_defaults(self):
        args = build_parser().parse_args(["shard-worker", "--dir", "d"])
        assert args.directory == "d"
        assert args.port == 0
        assert args.name == "tree"
        assert args.announce is None

    def test_shard_worker_missing_directory_exits_two(self, tmp_path):
        code, output, error = run_cli_err(
            ["shard-worker", "--dir", str(tmp_path / "nope")]
        )
        assert code == 2
        assert output == ""
        assert "no shard state directory" in error

    def test_shard_worker_non_shard_directory_exits_two(self, tmp_path):
        code, _, error = run_cli_err(["shard-worker", "--dir", str(tmp_path)])
        assert code == 2
        assert "no tree.json checkpoint" in error

    def test_manifest_behind_committed_reshard_exits_two(
        self, cluster_dir, tmp_path
    ):
        # A successor directory holding *committed* reshard metadata at
        # a plan epoch newer than the manifest means the manifest was
        # rolled back across a live split; serving it would resurrect
        # the retired source shard, so startup refuses on stderr.
        import shutil

        from repro.cluster.state import write_shard_meta

        directory = tmp_path / "cluster"
        shutil.copytree(cluster_dir, directory)
        orphan = directory / "shard-9"
        orphan.mkdir()
        write_shard_meta(str(orphan), plan_epoch=1, committed=True)
        code, output, error = run_cli_err(
            ["serve", str(directory), "--cluster", "--shard-workers"]
        )
        assert code == 2
        assert output == ""
        assert "cannot start shard workers" in error
        assert "rolled back" in error
        # The distinct messages keep the two refusals tellable apart.
        assert "refusing to start over durable mutations" not in error

    def test_unreadable_shard_exits_two_and_leaves_no_worker(
        self, cluster_dir, tmp_path
    ):
        import multiprocessing
        import shutil

        directory = tmp_path / "cluster"
        shutil.copytree(cluster_dir, directory)
        torn = directory / "shard-1" / "tree.json"
        torn.write_text('{"version": 3, "sections": ')
        before = {process.pid for process in multiprocessing.active_children()}
        code, output, error = run_cli_err(
            ["serve", str(directory), "--cluster", "--shard-workers"]
        )
        assert code == 2
        assert output == ""
        assert error.count("\n") == 1
        assert str(directory / "shard-1") in error
        assert [
            process
            for process in multiprocessing.active_children()
            if process.pid not in before
        ] == []

    @pytest.mark.timeout(300)
    def test_serves_worker_cluster_queries_over_tcp(
        self, cluster_dir, tmp_path
    ):
        import json
        import re
        import shutil
        import socket
        import threading
        import time

        directory = tmp_path / "cluster"
        shutil.copytree(cluster_dir, directory)
        out = io.StringIO()
        result = {}

        def serve():
            result["code"] = main(
                ["serve", str(directory), "--cluster", "--shard-workers",
                 "--port", "0", "--scrub-interval-ms", "0"],
                out=out,
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 120
        match = None
        while time.monotonic() < deadline and not match:
            match = re.search(r"serving on ([\d.]+):(\d+)", out.getvalue())
            time.sleep(0.02)
        assert match, out.getvalue()
        banner = out.getvalue()
        assert "4 shard worker process(es)" in banner
        assert banner.count("pid") == 4
        address = (match.group(1), int(match.group(2)))

        sock = socket.create_connection(address, timeout=30)
        handle = sock.makefile("rwb")

        def rpc(payload):
            handle.write((json.dumps(payload) + "\n").encode("utf-8"))
            handle.flush()
            return json.loads(handle.readline())

        response = rpc(
            {"op": "query", "point": [50, 50], "interval": [0, 200], "k": 3}
        )
        assert response["ok"]
        assert len(response["results"]) == 3
        response = rpc(
            {"op": "insert", "poi_id": "worker-tcp-poi",
             "point": [50.0, 50.0], "aggregates": [[1, 4]]}
        )
        assert response["ok"]
        health = rpc({"op": "health"})["health"]
        assert len(health["shards"]) == 4
        assert all(entry["alive"] for entry in health["shards"])
        assert rpc({"op": "shutdown"})["bye"]
        sock.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["code"] == 0
        # Shutdown checkpointed through the workers: the insert is
        # durable in the owning shard's WAL-backed state.
        from repro.cluster import open_cluster

        reopened = open_cluster(str(directory))
        try:
            assert "worker-tcp-poi" in reopened
        finally:
            reopened.close()
