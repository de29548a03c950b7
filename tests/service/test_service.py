"""QueryService behaviour: correctness, batching, admission, lifecycle."""

import threading
import time
from collections import Counter

import pytest

from repro import ClusterTree, IntervalSemantics, TARTree
from repro.cluster import WorkerClient
from repro.core.query import KNNTAQuery
from repro.core.tar_tree import POI
from repro.service import (
    QueryService,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.temporal.epochs import TimeInterval

from tests.cluster.conftest import open_on
from tests.service.conftest import build_tree


def make_query(x=5.0, y=5.0, lo=2, hi=6, k=5):
    return KNNTAQuery(point=(x, y), interval=TimeInterval(lo, hi), k=k)


def trailing_interval(tree, epochs, lag=0):
    """``epochs`` epochs ending ``lag`` epochs before the tree's clock."""
    length = tree.clock.epoch_length
    end = tree.current_time - lag * length
    return TimeInterval(end - epochs * length, end)


@pytest.mark.timeout(120)
class TestQueryPath:
    def test_single_query_matches_direct_answer(self, small_tree):
        with QueryService(small_tree) as service:
            query = make_query()
            assert service.query(query) == small_tree.query(query)

    def test_many_same_interval_queries_all_match(self, small_tree):
        queries = [make_query(x=float(i % 7), y=float(i % 5)) for i in range(24)]
        expected = [small_tree.query(q) for q in queries]
        config = ServiceConfig(workers=2, batch_size=8, linger=0.01)
        with QueryService(small_tree, config=config) as service:
            results = [None] * len(queries)

            def run(index):
                results[index] = service.query(queries[index])

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert results == expected

    def test_mixed_intervals_are_not_coalesced_together(self, small_tree, small_dataset):
        # Two interval presets, on a single tree and on an in-process
        # cluster: every executed batch must be homogeneous, and each
        # answer must still be exact.
        cluster = ClusterTree.build(small_dataset, num_shards=3)
        try:
            for tree in (small_tree, cluster):
                presets = [trailing_interval(tree, 4), trailing_interval(tree, 8, lag=1)]
                point = tuple(
                    (low + high) / 2.0
                    for low, high in zip(tree.world.lows, tree.world.highs)
                )
                queries = [
                    KNNTAQuery(point, interval, k=5)
                    for interval in presets
                    for _ in range(6)
                ]
                expected = [tree.query(q) for q in queries]
                config = ServiceConfig(workers=1, batch_size=16, linger=0.05)
                service = QueryService(tree, config=config, autostart=False)
                pending = [service.submit(q) for q in queries]
                service.start()
                results = [p.result(timeout=30) for p in pending]
                assert results == expected
                for p in pending:
                    assert p.batch_size <= 6, tree  # never a cross-interval batch
                service.close()
        finally:
            cluster.close()

    def test_backlog_coalesces_into_one_batch(self, small_tree):
        config = ServiceConfig(workers=1, batch_size=64, linger=0.05)
        service = QueryService(small_tree, config=config, autostart=False)
        query = make_query()
        pending = [service.submit(query) for _ in range(10)]
        service.start()
        for p in pending:
            p.result(timeout=30)
        assert all(p.batch_size == 10 for p in pending)
        histogram = service.service_stats.batch_size_histogram
        assert histogram.get(10) == 1
        service.close()

    def test_batch_of_one_reports_size_one(self, small_tree):
        with QueryService(small_tree, config=ServiceConfig(linger=0.0)) as service:
            pending = service.submit(make_query())
            pending.result(timeout=30)
            assert pending.batch_size == 1
            assert pending.cost.rtree_nodes > 0

    def test_batched_cost_below_individual_cost(self, small_tree):
        # Each rider of a batch runs its own search, so the batch's
        # total access count equals the same queries run one by one.
        queries = [make_query(x=float(i), y=float(i % 4)) for i in range(8)]
        snapshot = small_tree.stats.snapshot()
        for q in queries:
            small_tree.query(q)
        individual = small_tree.stats.diff(snapshot).rtree_nodes
        config = ServiceConfig(workers=1, batch_size=8, linger=0.05)
        service = QueryService(small_tree, config=config, autostart=False)
        pending = [service.submit(q) for q in queries]
        service.start()
        for p in pending:
            p.result(timeout=30)
        assert pending[0].batch_size == 8
        batched = service.service_stats.access_totals.rtree_nodes
        assert batched == individual
        service.close()

    def test_invalid_query_rejected_at_submit(self, small_tree):
        with QueryService(small_tree) as service:
            with pytest.raises(ValueError):
                service.submit(make_query(k=0))


@pytest.mark.timeout(120)
class TestWorkerClusterBatching:
    """On a worker cluster the service coalesces any queued queries."""

    def test_backlog_of_distinct_intervals_is_one_batch(
        self, small_dataset, tmp_path, monkeypatch
    ):
        frames = []
        send = WorkerClient.request

        def counted(client, payload, timeout=None):
            frames.append((client.index, payload["op"]))
            return send(client, payload, timeout=timeout)

        single = TARTree.build(small_dataset)
        with open_on("workers", small_dataset, tmp_path / "c") as cluster:
            end = cluster.current_time
            semantics = (IntervalSemantics.INTERSECTS, IntervalSemantics.CONTAINED)
            queries = [
                KNNTAQuery(
                    (0.1 * i, 0.9 - 0.1 * i),
                    TimeInterval(end - 14 * (i + 1), end - 3 * i),
                    k=3 + i % 3,
                    semantics=semantics[i % 2],
                )
                for i in range(10)
            ]
            config = ServiceConfig(workers=1, batch_size=16, linger=0.05)
            service = QueryService(cluster, config=config, autostart=False)
            pending = [service.submit(query) for query in queries]
            monkeypatch.setattr(WorkerClient, "request", counted)
            service.start()
            answers = [p.result(timeout=30) for p in pending]
            service.close()
            shards = len(cluster.shards)
        assert [p.batch_size for p in pending] == [len(queries)] * len(queries)
        # Workers reply with their node accesses.
        assert service.service_stats.access_totals.rtree_nodes > 0
        assert pending[0].cost.rtree_nodes > 0
        # One batch is one two-wave scatter: each worker gets at most a
        # wave-1 and a wave-2 batch frame, never a frame per query.
        searches = Counter(frame for frame in frames if frame[1] in ("query", "batch"))
        assert all(op == "batch" for _, op in searches)
        assert set(searches) <= {(index, "batch") for index in range(shards)}
        assert all(count <= 2 for count in searches.values())
        for query, answer in zip(queries, answers):
            oracle = single.query(query)
            assert [tuple(row) for row in answer] == [tuple(row) for row in oracle]


class OverlapCounter:
    """Wraps a tree's ``query``/``query_batch`` to count the threads
    searching at once; each call also sleeps 1 ms, releasing the GIL,
    so that two threads free to search together do."""

    def __init__(self, tree, monkeypatch):
        self.lock = threading.Lock()
        self.depth = Counter()  # thread ident -> nesting depth
        self.most = 0
        for name in ("query", "query_batch"):
            monkeypatch.setattr(tree, name, self.wrap(getattr(tree, name)))

    def wrap(self, search):
        def counted(*args, **options):
            ident = threading.get_ident()
            with self.lock:
                self.depth[ident] += 1
                self.most = max(self.most, len(self.depth))
            try:
                time.sleep(0.001)
                return search(*args, **options)
            finally:
                with self.lock:
                    self.depth[ident] -= 1
                    if not self.depth[ident]:
                        del self.depth[ident]

        return counted


def started_threads(service):
    """Start ``service``; return the worker threads that start left running."""
    before = set(threading.enumerate())
    service.start()
    return [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("repro-service-worker-")
    ]


@pytest.mark.timeout(120)
class TestScheduling:
    """One worker thread for searches in this interpreter; a linger that
    ends as soon as anything else is queued."""

    @pytest.mark.parametrize("kind", ["tree", "inproc"])
    def test_inprocess_searches_never_overlap(
        self, kind, small_tree, small_dataset, monkeypatch
    ):
        tree = small_tree
        if kind == "inproc":
            tree = ClusterTree.build(small_dataset, num_shards=3)
        try:
            # 24 distinct intervals: every batch holds one query.
            queries = [
                KNNTAQuery((0.1, 0.2), trailing_interval(tree, 2 + i % 6, i // 6), k=4)
                for i in range(24)
            ]
            expected = [tree.query(query) for query in queries]
            counter = OverlapCounter(tree, monkeypatch)
            config = ServiceConfig(workers=4, batch_size=4, linger=0.0)
            service = QueryService(tree, config=config, autostart=False)
            pending = [service.submit(query) for query in queries]
            assert len(started_threads(service)) == service.worker_threads == 1
            assert [p.result(timeout=30) for p in pending] == expected
            service.close()
            assert counter.most == 1
        finally:
            if kind == "inproc":
                tree.close()

    def test_worker_cluster_keeps_its_threads(self, small_dataset, tmp_path):
        with open_on("workers", small_dataset, tmp_path / "c", num_shards=2) as cluster:
            config = ServiceConfig(workers=4)
            with QueryService(cluster, config=config, autostart=False) as service:
                assert len(started_threads(service)) == service.worker_threads == 4
                query = KNNTAQuery((0.5, 0.5), trailing_interval(cluster, 4), k=3)
                assert service.query(query) == cluster.query(query)

    def test_other_queued_request_ends_the_linger(self, small_tree):
        config = ServiceConfig(linger=0.5)
        service = QueryService(small_tree, config=config, autostart=False)
        first = service.submit(make_query(lo=2, hi=6))
        second = service.submit(make_query(lo=1, hi=9))
        start = time.monotonic()
        service.start()
        assert first.result(timeout=30) == small_tree.query(first.query)
        assert time.monotonic() - start < 0.1
        assert first.batch_size == 1
        service.close()
        assert second.result(timeout=30) == small_tree.query(second.query)

    def test_lone_request_takes_a_same_interval_straggler(self, small_tree):
        config = ServiceConfig(workers=4, linger=0.5)
        with QueryService(small_tree, config=config) as service:
            first = service.submit(make_query(x=1.0))
            time.sleep(0.05)
            second = service.submit(make_query(x=9.0))
            for request in (first, second):
                assert request.result(timeout=30) == small_tree.query(request.query)
                assert request.batch_size == 2


@pytest.mark.timeout(120)
class TestAdmissionControl:
    def test_full_queue_rejects_with_retry_after(self, small_tree):
        config = ServiceConfig(queue_limit=4)
        service = QueryService(small_tree, config=config, autostart=False)
        for _ in range(4):
            service.submit(make_query())
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(make_query())
        assert excinfo.value.retry_after > 0
        assert excinfo.value.queue_depth == 4
        assert service.service_stats.rejected == 1
        service.close(drain=False)

    def test_expired_request_fails_with_timeout(self, small_tree):
        service = QueryService(small_tree, autostart=False)
        pending = service.submit(make_query(), timeout=0.0)
        service.start()
        with pytest.raises(RequestTimeoutError):
            pending.result(timeout=30)
        assert service.service_stats.timed_out == 1
        service.close()

    def test_submit_after_close_raises(self, small_tree):
        service = QueryService(small_tree)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(make_query())

    def test_close_without_drain_fails_queued_requests(self, small_tree):
        service = QueryService(small_tree, autostart=False)
        pending = service.submit(make_query())
        service.close(drain=False)
        with pytest.raises(ServiceClosedError):
            pending.result(timeout=5)


@pytest.mark.timeout(120)
class TestMutations:
    def test_insert_delete_digest_without_ingest(self, small_tree):
        with QueryService(small_tree) as service:
            service.insert(POI(900, 3.0, 3.0), {2: 9})
            assert 900 in small_tree
            service.digest(10, {900: 4})
            assert small_tree.poi_tia(900).get(10) == 4
            assert service.delete(900)
            assert 900 not in small_tree

    def test_mutations_route_through_wal(self, tmp_path):
        from repro.reliability.recovery import CheckpointedIngest, recover

        tree = build_tree(pois=30)
        ingest = CheckpointedIngest(tree, str(tmp_path))
        with QueryService(tree, ingest=ingest) as service:
            service.insert(POI(500, 2.0, 2.0), {1: 3})
            service.digest(10, {500: 6})
            assert service.delete(0)
        ingest.close()
        report = recover(str(tmp_path))
        assert 500 in report.tree
        assert 0 not in report.tree
        assert report.tree.poi_tia(500).get(10) == 6
        # The recovered answers match the served tree's.
        query = make_query()
        assert report.tree.query(query) == tree.query(query)

    def test_ingest_tree_mismatch_rejected(self, small_tree, tmp_path):
        from repro.reliability.recovery import CheckpointedIngest

        other = build_tree(pois=10, seed=1)
        ingest = CheckpointedIngest(other, str(tmp_path))
        with pytest.raises(ValueError):
            QueryService(small_tree, ingest=ingest)
        ingest.close()


@pytest.mark.timeout(120)
class TestWorkerCrash:
    # The crash is the point: the worker re-raises after recording its
    # death, which pytest's thread-exception hook would otherwise warn on.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_pool_fails_pending_and_rejects_new_work(self, small_tree):
        # One worker; the first batch (first request) kills it.  The
        # second request uses a different interval so it stays queued —
        # a silently dead pool would leave its untimed waiter hanging
        # forever, which is exactly what WorkerCrashError prevents.
        config = ServiceConfig(workers=1, linger=0.0)
        service = QueryService(small_tree, config=config, autostart=False)
        service.submit(make_query())
        survivor = service.submit(make_query(lo=1, hi=9))

        def boom(batch):
            raise RuntimeError("worker exploded")

        service._execute = boom
        service.start()
        with pytest.raises(WorkerCrashError) as excinfo:
            survivor.result(timeout=30)
        assert "worker exploded" in str(excinfo.value)
        # Fail-fast from then on: submit() rejects without enqueueing.
        with pytest.raises(WorkerCrashError):
            service.submit(make_query())
        assert service.stats()["worker_deaths"] == 1
        service.close()

    def test_batch_failure_does_not_kill_the_worker(self, small_tree, monkeypatch):
        # A query that blows up inside execution fails only its own
        # riders; the worker survives to serve the next request.
        real = small_tree.query
        calls = {"count": 0}

        def flaky(query, **options):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("query blew up")
            return real(query, **options)

        monkeypatch.setattr(small_tree, "query", flaky)
        config = ServiceConfig(workers=1, linger=0.0)
        with QueryService(small_tree, config=config) as service:
            with pytest.raises(RuntimeError, match="query blew up"):
                service.query(make_query())
            assert service.query(make_query()) == small_tree.query(make_query())
            snapshot = service.stats()
            assert snapshot["worker_deaths"] == 0
            assert snapshot["failed"] == 1


@pytest.mark.timeout(120)
class TestStatsSurface:
    def test_snapshot_shape(self, small_tree):
        with QueryService(small_tree) as service:
            service.query(make_query())
            snapshot = service.stats()
        assert snapshot["completed"] == 1
        assert snapshot["batches"] == 1
        assert snapshot["access_totals"]["rtree_nodes"] > 0
        assert snapshot["access_per_request"]["rtree_nodes"] > 0
        assert snapshot["latency"]["p50"] is not None
        assert snapshot["latency"]["p99"] >= snapshot["latency"]["p50"]
        assert "scrubber" in snapshot
        assert snapshot["pois"] == len(small_tree)
        import json

        json.dumps(snapshot)  # must be wire-serialisable

    def test_batch_histogram_uses_string_keys(self, small_tree):
        with QueryService(small_tree) as service:
            service.query(make_query())
            histogram = service.stats()["batch_size_histogram"]
        assert histogram == {"1": 1}
