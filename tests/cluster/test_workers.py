"""Out-of-process shard workers: protocol, equivalence, live resharding.

Three layers under test (docs/CLUSTER.md "Coordinator and shard
endpoints"):

1. the worker wire protocol — ``hello`` handshake with ``proto``
   version negotiation, shard ops (query/batch/insert/delete/digest),
   and the reshard-facing ops (``wal_tail``, ``checkpoint``);
2. the :class:`RemoteClusterTree` coordinator — every answer
   bit-identical (ids, scores, tie order) to the single-tree oracle,
   across alphas, intervals, semantics and a routed mutation stream;
3. live resharding — a shard split under load keeps answers
   bit-identical before, during and after the cutover, survives a
   coordinator restart through the versioned manifest, and a manifest
   rolled back across a committed split is refused.
"""

import json
import multiprocessing
import os
import random
import socketserver
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import (
    ClusterTree,
    IntervalSemantics,
    KNNTAQuery,
    TARTree,
    TimeInterval,
)
from repro.cluster import (
    ClusterStateError,
    RemoteClusterTree,
    RemoteShard,
    ReshardPolicy,
    ShardWorkerServer,
    WireProtocolError,
    WorkerClient,
    maybe_split,
    run_worker,
    save_cluster,
    split_shard,
)
from repro.cluster.state import read_manifest, write_manifest_payload
from repro.core.query import Normalizer
from repro.core.tar_tree import POI
from repro.reliability.recovery import recover
from repro.service.server import PROTO_VERSION
from repro.storage.serialize import load_tree


def make_cluster_dir(dataset, path, num_shards=4):
    """Build, persist and close an in-process cluster; return its dir."""
    built = ClusterTree.build(dataset, num_shards=num_shards)
    save_cluster(built, str(path))
    built.close()
    return str(path)


def rows_of(answer):
    return [tuple(row) for row in answer]


def random_queries(tree, rng, count=12):
    """A seeded spread over point, k, alpha0, interval and semantics."""
    end = tree.current_time
    world = tree.world
    queries = []
    for _ in range(count):
        point = (
            rng.uniform(world.lows[0], world.highs[0]),
            rng.uniform(world.lows[1], world.highs[1]),
        )
        span = rng.uniform(7.0, 120.0)
        offset = rng.uniform(0.0, 200.0)
        interval = TimeInterval(max(0.0, end - offset - span), end - offset)
        queries.append(
            KNNTAQuery(
                point,
                interval,
                k=rng.choice([1, 3, 5, 10]),
                alpha0=rng.choice([0.05, 0.3, 0.7, 0.95]),
                semantics=rng.choice(
                    [IntervalSemantics.INTERSECTS, IntervalSemantics.CONTAINED]
                ),
            )
        )
    return queries


# ----------------------------------------------------------------------
# Wire protocol (in-thread server — no process spawn)
# ----------------------------------------------------------------------


@pytest.fixture
def worker_server(small_dataset, tmp_path):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=2)
    server = ShardWorkerServer(os.path.join(directory, "shard-0")).start()
    yield server
    server.shutdown()


@pytest.mark.timeout(120)
class TestWorkerProtocol:
    def test_hello_announces_identity_and_proto(self, worker_server, monkeypatch):
        hellos = []
        handshake = worker_server._op_hello

        def counted():
            hellos.append(1)
            return handshake()

        monkeypatch.setattr(worker_server, "_op_hello", counted)
        host, port = worker_server.address
        client = WorkerClient(host, port, index=0)
        try:
            hello = client.connect()
            # A fresh connection costs one hello exchange, an open one none.
            assert len(hellos) == 1
            assert client.connect() is hello is client.hello
            assert len(hellos) == 1
            assert hello["proto"] == PROTO_VERSION
            assert hello["name"] == "tree"
            assert hello["pois"] == len(worker_server.shard.tree)
            assert len(hello["world"]) == 2
            assert len(hello["clock"]) == 2
            assert hello["descriptor"]["pois"] == len(worker_server.shard.tree)
            assert hello["aggregate_kind"] == worker_server.shard.tree.aggregate_kind.value
        finally:
            client.close()

    def test_mismatched_request_refused_with_stable_code(self, worker_server):
        response = worker_server.handle_request(
            json.dumps({"op": "hello", "proto": PROTO_VERSION + 1})
        )
        assert response["ok"] is False
        assert response["code"] == "proto-mismatch"
        assert response["proto"] == PROTO_VERSION
        # The refusal names both versions so the operator can tell
        # which side is stale.
        assert str(PROTO_VERSION + 1) in response["error"]

    def test_proto_one_query_is_refused(self, worker_server):
        # Version 2 added reply stats; a version-1 coordinator, which
        # would not read them, is refused before the query runs.
        response = worker_server.handle_request(
            json.dumps({"op": "query", "point": [0.5, 0.5], "interval": [0, 9],
                        "normalizer": [1.0, 1.0], "proto": 1})
        )
        assert response["code"] == "proto-mismatch"

    def test_batch_riders_of_one_interval_share_a_normalizer(self, worker_server):
        rider = {"point": [0.5, 0.5], "interval": [0, 9],
                 "normalizer": [1.0, 1.0]}
        response = worker_server.handle_request(json.dumps({
            "op": "batch",
            "queries": [rider, dict(rider, normalizer=[1.0, 2.0])],
        }))
        assert response["code"] == "bad-request"
        response = worker_server.handle_request(
            json.dumps({"op": "batch", "queries": [rider, rider]})
        )
        assert response["ok"]
        assert len(response["stats"]) == 4

    def test_query_cutoff_drops_the_rows_scoring_above_it(self, worker_server):
        frame = {"op": "query", "point": [0.5, 0.5], "interval": [0, 400],
                 "k": 10, "normalizer": [1.0, 1.0]}
        uncut = worker_server.handle_request(json.dumps(frame))["results"]
        assert len(uncut) > 2
        cutoff = uncut[len(uncut) // 2][1]  # a row's exact score: kept
        response = worker_server.handle_request(
            json.dumps(dict(frame, cutoff=cutoff))
        )
        assert response["ok"]
        assert response["results"] == [row for row in uncut if row[1] <= cutoff]

    def test_query_cutoff_must_be_a_number(self, worker_server):
        # JSON's NaN parses to a float, and ``score <= nan`` never holds:
        # accepted, it would silently empty the answer.
        frame = json.dumps({"op": "query", "point": [0.5, 0.5],
                            "interval": [0, 9], "normalizer": [1.0, 1.0]})
        for bad in ("NaN", '"0.5"', "null", "true", "[0.5]"):
            response = worker_server.handle_request(
                frame[:-1] + ', "cutoff": %s}' % bad
            )
            assert response["code"] == "bad-request", bad
            assert "cutoff" in response["error"], bad
        # An integer too large for a float is the caller's error too,
        # not a redacted internal one.
        response = worker_server.handle_request(
            frame[:-1] + ', "cutoff": 1%s}' % ("0" * 400)
        )
        assert response["code"] == "bad-request"
        assert worker_server.errors == 0
        assert worker_server.handle_request(frame[:-1] + ', "cutoff": 1}')["ok"]
        assert worker_server.handle_request(frame)["ok"]

    def test_batch_rider_cutoff_drops_the_rows_scoring_above_it(
        self, worker_server
    ):
        rider = {"point": [0.5, 0.5], "interval": [0, 400], "k": 10,
                 "normalizer": [1.0, 1.0]}
        frame = {"op": "batch", "queries": [rider, rider]}
        (uncut, _) = worker_server.handle_request(json.dumps(frame))["results"]
        assert len(uncut) > 2
        cutoff = uncut[len(uncut) // 2][1]  # a row's exact score: kept
        response = worker_server.handle_request(json.dumps(
            dict(frame, queries=[dict(rider, cutoff=cutoff), rider])
        ))
        assert response["ok"]
        cut, whole = response["results"]
        assert cut == [row for row in uncut if row[1] <= cutoff]
        assert whole == uncut

    def test_batch_rider_cutoff_must_be_a_number(self, worker_server):
        rider = json.dumps({"point": [0.5, 0.5], "interval": [0, 9],
                            "normalizer": [1.0, 1.0]})
        for bad in ("NaN", '"0.5"', "true", "false", "null"):
            frame = '{"op": "batch", "queries": [%s, %s, "cutoff": %s}]}' % (
                rider, rider[:-1], bad
            )
            response = worker_server.handle_request(frame)
            assert response["code"] == "bad-request", bad
            assert "cutoff" in response["error"], bad
        assert worker_server.errors == 0
        frame = '{"op": "batch", "queries": [%s, %s, "cutoff": 1}]}' % (
            rider, rider[:-1]
        )
        assert worker_server.handle_request(frame)["ok"]

    def test_client_refuses_a_server_speaking_another_proto(self):
        class FutureHandler(socketserver.StreamRequestHandler):
            def handle(self):
                for _ in self.rfile:
                    frame = {"ok": True, "proto": PROTO_VERSION + 1}
                    self.wfile.write(
                        (json.dumps(frame) + "\n").encode("utf-8")
                    )
                    self.wfile.flush()

        server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), FutureHandler
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = WorkerClient(*server.server_address, index=0)
        try:
            with pytest.raises(WireProtocolError):
                client.connect()
        finally:
            client.close()
            server.shutdown()
            server.server_close()

    def test_mutations_carry_descriptor_footer_and_lsn(self, worker_server):
        host, port = worker_server.address
        client = WorkerClient(host, port, index=0)
        try:
            client.connect()
            response = client.request(
                {
                    "op": "insert",
                    "poi_id": "wire-poi",
                    "point": [0.5, 0.5],
                    "aggregates": [[0, 3]],
                }
            )
            assert response["lsn"] is not None
            assert response["applied_lsn"] == response["lsn"]
            assert response["pois"] == len(worker_server.shard.tree)
            assert response["descriptor"]["pois"] == len(worker_server.shard.tree)
            assert client.request({"op": "delete", "poi_id": "wire-poi"})[
                "deleted"
            ]
        finally:
            client.close()

    def test_wal_tail_after_checkpoint_is_empty(self, worker_server):
        host, port = worker_server.address
        client = WorkerClient(host, port, index=0)
        try:
            lsn = client.request(
                {
                    "op": "insert",
                    "poi_id": "tail-poi",
                    "point": [0.25, 0.25],
                    "aggregates": [[0, 1]],
                }
            )["lsn"]
            tail = client.request({"op": "wal_tail", "after": lsn - 1})
            assert [record[0] for record in tail["records"]] == [lsn]
            assert tail["records"][0][1] == "insert"
            checkpointed = client.request({"op": "checkpoint"})
            ckpt_lsn = checkpointed["applied_lsn"]
            assert ckpt_lsn >= lsn
            # A tail from the checkpoint LSN onward is contiguous (and
            # empty: the checkpoint compacted everything before it).
            tail = client.request({"op": "wal_tail", "after": ckpt_lsn})
            assert tail["records"] == []
            # The drain that worked before the checkpoint now spans a
            # compacted record — pretending "empty" there would silently
            # lose mutations in a reshard drain, so the worker refuses
            # with a stable code instead.
            with pytest.raises(RuntimeError, match="wal-tail-gap"):
                client.request({"op": "wal_tail", "after": lsn - 1})
        finally:
            client.close()

    def test_bad_requests_keep_the_worker_serving(self, worker_server):
        response = worker_server.handle_request(json.dumps({"op": "nope"}))
        assert response["code"] == "bad-request"
        response = worker_server.handle_request(json.dumps({"op": "query"}))
        assert response["code"] == "bad-request"
        assert worker_server.handle_request(json.dumps({"op": "health"}))["ok"]


@pytest.mark.timeout(60)
def test_shutdown_of_a_server_that_never_served_returns(small_dataset, tmp_path):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=2)
    server = ShardWorkerServer(os.path.join(directory, "shard-0"))
    ingest = server.shard.ingest
    closer = threading.Thread(target=server.shutdown, daemon=True)
    closer.start()
    closer.join(timeout=10.0)
    assert not closer.is_alive(), "shutdown() hung on a server that never served"
    assert server._server.socket.fileno() == -1
    assert ingest.log._handle.closed


@pytest.mark.timeout(60)
def test_a_mutation_after_shutdown_is_refused_not_lost(worker_server):
    # Another connection's handler outlives shutdown(); its write must
    # fail rather than be acknowledged and then missing on recovery.
    host, port = worker_server.address
    other = WorkerClient(host, port, index=0)
    try:
        other.connect()
        worker_server.shutdown()
        with pytest.raises(RuntimeError):
            other.request(
                {
                    "op": "insert",
                    "poi_id": "late-poi",
                    "point": [0.5, 0.5],
                    "aggregates": [[0, 1]],
                }
            )
    finally:
        other.close()
    assert "late-poi" not in recover(worker_server.directory).tree


@pytest.mark.timeout(60)
def test_clean_shutdown_persists_the_scrubber_manifest(small_dataset, tmp_path):
    # As Shard.close() does in process: a worker that scrubbed, then
    # took a write, leaves a manifest that covers the write.
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=2)
    shard = os.path.join(directory, "shard-0")
    announce = str(tmp_path / "worker.json")
    serving = threading.Thread(
        target=run_worker, args=(shard,), kwargs={"announce": announce},
        daemon=True,
    )
    serving.start()
    deadline = time.monotonic() + 30.0
    while not os.path.exists(announce):
        assert serving.is_alive() and time.monotonic() < deadline
        time.sleep(0.01)
    with open(announce, encoding="utf-8") as handle:
        endpoint = json.load(handle)
    client = WorkerClient(endpoint["host"], endpoint["port"], index=0)
    try:
        client.connect()
        assert client.request({"op": "scrub", "budget": 1})["ok"]
        lsn = client.request(
            {
                "op": "insert",
                "poi_id": "scrubbed-poi",
                "point": [0.5, 0.5],
                "aggregates": [[0, 2]],
            }
        )["lsn"]
        assert client.request({"op": "shutdown"})["bye"]
    finally:
        client.close()
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    with open(os.path.join(shard, "tree.scrub.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["applied_lsn"] == lsn
    assert "scrubbed-poi" in {poi_id for poi_id, _crc in manifest["pois"]}


#: A shard worker's start (``run_worker``) and one query frame, in a
#: fresh interpreter; prints the reply and which heavy modules loaded.
WORKER_OPEN = """
import json, sys
from repro.cluster.workers import ShardWorkerServer
server = ShardWorkerServer(sys.argv[1])
reply = server.handle_request(sys.argv[2])
loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
print(json.dumps({"reply": reply, "loaded": loaded}))
"""


@pytest.mark.timeout(120)
def test_a_worker_opens_and_answers_without_numpy(small_dataset, tmp_path):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=2)
    shard = os.path.join(directory, "shard-0")
    frame = {"op": "query", "point": [0.5, 0.5], "interval": [0, 400],
             "k": 10, "normalizer": [1.0, 1.0]}
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", WORKER_OPEN, shard, json.dumps(frame)],
        env=env, capture_output=True, text=True, timeout=100, check=True,
    )
    outcome = json.loads(completed.stdout)
    expected = load_tree(os.path.join(shard, "tree.json")).query(
        KNNTAQuery((0.5, 0.5), TimeInterval(0, 400), k=10), Normalizer(1.0, 1.0)
    )
    assert outcome["reply"]["ok"]
    assert outcome["reply"]["results"] == [list(row) for row in expected]
    assert outcome["loaded"] == []


# ----------------------------------------------------------------------
# Coordinator equivalence (spawned worker processes)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def remote_cluster(small_dataset, tmp_path_factory):
    directory = make_cluster_dir(
        small_dataset, tmp_path_factory.mktemp("workers") / "c", num_shards=4
    )
    remote = RemoteClusterTree.start(directory)
    single = TARTree.build(small_dataset)
    yield remote, single
    remote.close()


@pytest.mark.timeout(300)
def test_start_with_an_unreadable_shard_leaves_no_worker(small_dataset, tmp_path):
    directory = make_cluster_dir(small_dataset, tmp_path / "c", num_shards=4)
    with open(os.path.join(directory, "shard-2", "tree.json"), "w") as handle:
        handle.write('{"version": 3, "sections": ')  # torn snapshot
    before = {process.pid for process in multiprocessing.active_children()}
    with pytest.raises(RuntimeError, match="shard-2"):
        RemoteClusterTree.start(directory)
    assert [
        process
        for process in multiprocessing.active_children()
        if process.pid not in before
    ] == []


@pytest.mark.timeout(300)
class TestRemoteEquivalence:
    def test_workers_are_separate_processes(self, remote_cluster):
        remote, _ = remote_cluster
        pids = {shard.handle.pid for shard in remote.shards}
        assert len(pids) == len(remote.shards)
        assert os.getpid() not in pids

    def test_answers_bit_identical_to_single_tree(self, remote_cluster):
        remote, single = remote_cluster
        before = remote.counters()
        rng = random.Random(31)
        for query in random_queries(single, rng, count=15):
            assert rows_of(remote.query(query)) == rows_of(
                single.query(query)
            ), query
        counters = remote.counters()
        assert counters["queries"] - before["queries"] == 15
        assert counters["shards.failed"] == before["shards.failed"]
        assert counters["degraded_answers"] == before["degraded_answers"]

    def test_batches_bit_identical_to_single_tree(self, remote_cluster):
        remote, single = remote_cluster
        rng = random.Random(77)
        queries = random_queries(single, rng, count=8)
        got = remote.query_batch(queries)
        expected = [single.query(query) for query in queries]
        assert [rows_of(answer) for answer in got] == [
            rows_of(answer) for answer in expected
        ]

    def test_bound_pruning_skips_unreachable_workers(
        self, small_dataset, tmp_path
    ):
        # Sequential dispatch makes the pruning observable: the
        # coordinator stops contacting workers once the next-best bound
        # cannot beat the running k-th score.
        directory = make_cluster_dir(
            small_dataset, tmp_path / "seq", num_shards=4
        )
        remote = RemoteClusterTree.start(directory, parallelism=1)
        try:
            single = TARTree.build(small_dataset)
            rng = random.Random(13)
            for query in random_queries(single, rng, count=10):
                assert rows_of(remote.query(query)) == rows_of(
                    single.query(query)
                )
            counters = remote.counters()
            assert counters["shards.pruned"] > 0
            assert (
                counters["shards.visited"] + counters["shards.pruned"]
                == counters["queries"] * 4
            )
        finally:
            remote.close()

    def test_health_reports_live_workers(self, remote_cluster):
        remote, _ = remote_cluster
        health = remote.health()
        assert len(health["shards"]) == len(remote.shards)
        for entry in health["shards"]:
            assert entry["alive"] is True
            assert entry["pid"] is not None
            assert entry["state"] == "closed"
        assert health["plan_epoch"] == 0
        assert health["reshards"] == 0

    def test_len_and_contains_parity(self, remote_cluster):
        remote, single = remote_cluster
        assert len(remote) == len(single)
        poi_id = next(iter(single.poi_ids()))
        assert poi_id in remote
        assert "definitely-not-a-poi" not in remote

    def test_exact_normalizer_refused(self, remote_cluster):
        remote, single = remote_cluster
        end = remote.current_time
        interval = TimeInterval(end - 28.0, end)
        with pytest.raises(ValueError, match="exact"):
            remote.normalizer(interval, exact=True)
        # The bound normaliser matches the single tree's: same diagonal,
        # same global per-epoch maxima.
        assert remote.normalizer(interval) == single.normalizer(interval)


@pytest.mark.timeout(300)
class TestRemoteMutations:
    def test_mutation_stream_keeps_answers_identical(
        self, small_dataset, tmp_path
    ):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        single = TARTree.build(small_dataset)
        remote = RemoteClusterTree.start(directory)
        rng = random.Random(42)
        try:
            next_id = 0
            for step in range(18):
                action = rng.random()
                if action < 0.4:
                    x = rng.uniform(
                        remote.world.lows[0], remote.world.highs[0]
                    )
                    y = rng.uniform(
                        remote.world.lows[1], remote.world.highs[1]
                    )
                    poi = POI("mut-%d" % next_id, x, y)
                    next_id += 1
                    history = {
                        e: rng.randint(1, 5) for e in range(rng.randint(0, 3))
                    }
                    remote.insert_poi(poi, dict(history))
                    single.insert_poi(poi, dict(history))
                elif action < 0.6:
                    ids = sorted(map(str, single.poi_ids()))
                    victim_key = rng.choice(ids)
                    victim = next(
                        poi_id
                        for poi_id in single.poi_ids()
                        if str(poi_id) == victim_key
                    )
                    assert remote.delete_poi(victim) == single.delete_poi(
                        victim
                    )
                else:
                    ids = list(single.poi_ids())
                    epoch = remote.clock.epoch_of(remote.current_time) + (
                        step % 2
                    )
                    batch = {
                        poi_id: rng.randint(1, 4)
                        for poi_id in rng.sample(ids, min(5, len(ids)))
                    }
                    remote.digest_epoch(epoch, dict(batch))
                    single.digest_epoch(epoch, dict(batch))
                if step % 6 == 5:
                    for query in random_queries(single, rng, count=3):
                        assert rows_of(remote.query(query)) == rows_of(
                            single.query(query)
                        )
            assert len(remote) == len(single)
            # The mutations are WAL-durable: a fresh set of workers over
            # the same directories recovers to the same answers.
            remote.checkpoint()
        finally:
            remote.close()
        reopened = RemoteClusterTree.start(directory)
        try:
            for query in random_queries(single, rng, count=5):
                assert rows_of(reopened.query(query)) == rows_of(
                    single.query(query)
                )
            assert len(reopened) == len(single)
        finally:
            reopened.close()

    def test_duplicate_insert_and_unknown_digest_refused(
        self, small_dataset, tmp_path
    ):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        remote = RemoteClusterTree.start(directory)
        try:
            poi_id = next(iter(TARTree.build(small_dataset).poi_ids()))
            with pytest.raises(ValueError):
                remote.insert_poi(POI(poi_id, 0.5, 0.5), {0: 1})
            with pytest.raises(KeyError):
                remote.digest_epoch(1, {"no-such-poi": 3})
        finally:
            remote.close()


# ----------------------------------------------------------------------
# Live resharding
# ----------------------------------------------------------------------


@pytest.mark.timeout(300)
class TestLiveReshard:
    def test_split_under_load_stays_bit_identical(
        self, small_dataset, tmp_path
    ):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        single = TARTree.build(small_dataset)
        remote = RemoteClusterTree.start(directory)
        rng = random.Random(8)
        queries = random_queries(single, rng, count=8)
        oracle = [rows_of(single.query(query)) for query in queries]
        failures = []
        stop = threading.Event()

        def prober():
            # Queries racing the split: every answer, including those
            # interleaved with the drain/cutover/replay, must equal the
            # oracle bit for bit.
            prng = random.Random(99)
            while not stop.is_set():
                index = prng.randrange(len(queries))
                try:
                    got = rows_of(remote.query(queries[index]))
                except Exception as exc:  # pragma: no cover - fail loud
                    failures.append("query %d escaped: %r" % (index, exc))
                    return
                if got != oracle[index]:
                    failures.append("query %d diverged during split" % index)
                    return

        thread = threading.Thread(target=prober, daemon=True)
        try:
            thread.start()
            loads = [(shard.descriptor.pois, shard.index) for shard in remote.shards]
            source = max(loads)[1]
            low, high = split_shard(remote, source)
            stop.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert not failures, failures[:5]
            assert low == source
            assert high == 2
            assert len(remote.shards) == 3
            assert remote.plan_epoch == 1
            assert remote.counters()["reshards"] == 1
            for index, query in enumerate(queries):
                assert rows_of(remote.query(query)) == oracle[index]
            # The manifest now names three shards at the new epoch.
            manifest = read_manifest(directory)
            assert manifest["plan_epoch"] == 1
            assert len(manifest["shards"]) == 3
        finally:
            stop.set()
            remote.close()
        # The versioned manifest makes the reshard crash-consistent: a
        # fresh coordinator over the same directory serves the split
        # plan with identical answers.
        reopened = RemoteClusterTree.start(directory)
        try:
            assert len(reopened.shards) == 3
            assert reopened.plan_epoch == 1
            for index, query in enumerate(queries):
                assert rows_of(reopened.query(query)) == oracle[index]
        finally:
            reopened.close()

    def test_manifest_rollback_across_a_split_is_refused(
        self, small_dataset, tmp_path
    ):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        stale_manifest = read_manifest(directory)
        remote = RemoteClusterTree.start(directory)
        try:
            split_shard(remote, 0)
        finally:
            remote.close()
        # Roll the manifest back to the pre-split epoch: the successor
        # directories hold committed reshard metadata that is newer, so
        # serving the stale plan would resurrect the retired source.
        write_manifest_payload(directory, stale_manifest)
        with pytest.raises(ClusterStateError, match="reshard"):
            RemoteClusterTree.start(directory)

    def test_policy_splits_on_the_maintenance_tick(
        self, small_dataset, tmp_path
    ):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        policy = ReshardPolicy(max_pois=4)
        remote = RemoteClusterTree.start(directory, reshard_policy=policy)
        try:
            assert remote.scrub_tick(budget=4) >= 0
            assert remote.counters()["reshards"] == 1
            assert len(remote.shards) == 3
            single = TARTree.build(small_dataset)
            rng = random.Random(4)
            for query in random_queries(single, rng, count=6):
                assert rows_of(remote.query(query)) == rows_of(
                    single.query(query)
                )
        finally:
            remote.close()

    def test_policy_leaves_small_shards_alone(self, small_dataset, tmp_path):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        remote = RemoteClusterTree.start(
            directory,
            reshard_policy=ReshardPolicy(max_pois=10 ** 6, min_pois=10 ** 6),
        )
        try:
            assert maybe_split(remote) is None
            assert remote.counters()["reshards"] == 0
            assert len(remote.shards) == 2
        finally:
            remote.close()

    def test_concurrent_splits_are_serialized(self, small_dataset, tmp_path):
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        remote = RemoteClusterTree.start(directory)
        try:
            remote._resharding = True
            with pytest.raises(ClusterStateError, match="in flight"):
                split_shard(remote, 0)
            remote._resharding = False
        finally:
            remote.close()

    def test_checkpoint_refuses_during_a_live_reshard(
        self, small_dataset, tmp_path
    ):
        # A cluster checkpoint interleaving with a split's lock-free
        # Phase A would compact the source WAL out from under the Phase
        # B drain, silently losing the tail — so checkpoint and split
        # claim the same exclusive-maintenance flag.
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        remote = RemoteClusterTree.start(directory)
        try:
            remote._resharding = True
            with pytest.raises(ClusterStateError, match="reshard"):
                remote.checkpoint()
            remote._resharding = False
            assert os.path.exists(remote.checkpoint())
            # And the flag excludes the other direction too: a split
            # cannot start while a checkpoint holds the claim.
            remote._resharding = True
            with pytest.raises(ClusterStateError, match="in flight"):
                split_shard(remote, 0)
            remote._resharding = False
        finally:
            remote.close()

    def test_post_commit_failure_keeps_committed_successors(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # Once the manifest naming the successors is durable, a failure
        # in the remaining cutover steps must NOT tear the successors
        # down — deleting directories the committed manifest names
        # would leave a cluster that refuses to open.
        directory = make_cluster_dir(
            small_dataset, tmp_path / "c", num_shards=2
        )
        single = TARTree.build(small_dataset)
        rng = random.Random(21)
        queries = random_queries(single, rng, count=6)
        oracle = [rows_of(single.query(query)) for query in queries]
        remote = RemoteClusterTree.start(directory)
        try:
            original = RemoteShard.absorb

            def boom(self, payload):
                if remote._resharding:
                    raise RuntimeError("injected post-commit crash")
                return original(self, payload)

            monkeypatch.setattr(RemoteShard, "absorb", boom)
            with pytest.raises(RuntimeError, match="post-commit crash"):
                split_shard(remote, 0)
            monkeypatch.setattr(RemoteShard, "absorb", original)
            # The committed state survived the failure.
            manifest = read_manifest(directory)
            assert manifest["plan_epoch"] == 1
            assert len(manifest["shards"]) == 3
            for entry in manifest["shards"]:
                assert os.path.isdir(os.path.join(directory, entry["dir"]))
        finally:
            remote.close()
        # The key regression: the directory still opens, and answers
        # over the committed successor plan match the oracle.
        reopened = RemoteClusterTree.start(directory)
        try:
            assert len(reopened.shards) == 3
            for index, query in enumerate(queries):
                assert rows_of(reopened.query(query)) == oracle[index]
        finally:
            reopened.close()
