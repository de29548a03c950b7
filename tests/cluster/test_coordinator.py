"""The cluster coordinator: scatter-gather queries and routed mutations."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    AccessStats,
    ClusterTree,
    KNNTAQuery,
    POI,
    TARTree,
    TimeInterval,
    sequential_scan,
)
import repro.cluster.coordinator as coordinator
from repro.cluster.coordinator import Shard
from repro.cluster.planner import plan_shards
from tests.cluster.conftest import open_on


@pytest.fixture(scope="module")
def cluster(small_dataset):
    built = ClusterTree.build(small_dataset, num_shards=4)
    yield built


@pytest.fixture(scope="module")
def single_tree(small_dataset):
    return TARTree.build(small_dataset)


def trailing_query(tree, days=28.0, k=10, alpha0=0.3):
    end = tree.current_time
    return KNNTAQuery((0.4, 0.6), TimeInterval(end - days, end), k=k, alpha0=alpha0)


class TestConstruction:
    def test_build_distributes_every_effective_poi(self, cluster, small_dataset):
        assert len(cluster) == len(small_dataset.effective_poi_ids())
        assert sorted(cluster.poi_ids()) == sorted(
            small_dataset.effective_poi_ids()
        )

    def test_shards_share_world_and_clock(self, cluster):
        for shard in cluster.shards:
            assert shard.tree.world == cluster.world
            assert shard.tree.clock is cluster.clock

    def test_plan_and_shard_count_must_agree(self, small_dataset):
        built = ClusterTree.build(small_dataset, num_shards=3)
        plan = plan_shards([(0.0, 0.0), (1.0, 1.0)], 2, world=small_dataset.world)
        with pytest.raises(ValueError):
            ClusterTree(plan, built.shards)

    def test_parallelism_validated(self, small_dataset):
        with pytest.raises(ValueError):
            ClusterTree.build(small_dataset, num_shards=2, parallelism=0)

    def test_bulk_build_matches_incremental(self, small_dataset):
        incremental = ClusterTree.build(small_dataset, num_shards=3)
        bulk = ClusterTree.build(small_dataset, num_shards=3, bulk=True)
        query = trailing_query(incremental)
        assert bulk.query(query) == incremental.query(query)


class TestNormalization:
    def test_global_epoch_max_matches_single_tree(self, cluster, single_tree):
        assert cluster.global_epoch_max() == single_tree.global_epoch_max()

    def test_normalizer_matches_single_tree(self, cluster, single_tree):
        query = trailing_query(cluster)
        assert cluster.normalizer(
            query.interval, query.semantics
        ) == single_tree.normalizer(query.interval, query.semantics)

    def test_exact_normalizer_matches_single_tree(self, cluster, single_tree):
        query = trailing_query(cluster)
        assert cluster.normalizer(
            query.interval, query.semantics, exact=True
        ) == single_tree.normalizer(query.interval, query.semantics, exact=True)


@pytest.fixture
def keyed(transport, small_dataset, tmp_path):
    """A 2-shard cluster on ``transport`` for the dotted-key tests."""
    with open_on(transport, small_dataset, tmp_path / "c", num_shards=2) as built:
        yield built


class TestQueries:
    @pytest.fixture
    def transport(self):
        return "inproc"

    def test_query_matches_single_tree(self, cluster, single_tree):
        query = trailing_query(cluster)
        assert cluster.query(query) == single_tree.query(query)

    def test_query_matches_sequential_scan_over_the_cluster(self, cluster):
        query = trailing_query(cluster, k=5, alpha0=0.7)
        results = cluster.query(query)
        expected = sequential_scan(cluster, query)
        assert [r.poi_id for r in results] == [r.poi_id for r in expected]

    def test_query_merges_stats_into_caller_stats(self, cluster):
        stats = AccessStats()
        cluster.query(trailing_query(cluster), stats=stats)
        assert stats.rtree_nodes > 0

    def test_explain_reports_flat_shard_labeled_costs(self, cluster):
        query = trailing_query(cluster)
        results, cost = cluster.explain(query)
        assert results == cluster.query(query)
        assert cost["shards"] == 4
        assert cost["shards.visited"] + cost["shards.pruned"] <= 4
        visited = [
            index
            for index in range(4)
            if ("shards.%d.total_io" % index) in cost
        ]
        assert len(visited) == cost["shards.visited"]
        total = sum(cost["shards.%d.rtree_nodes" % index] for index in visited)
        assert cost["rtree_nodes"] == total

    def test_selective_query_prunes_shards(self, cluster):
        # alpha0 ~ 1: distance dominates, so only the shards nearest the
        # query point can reach the top-k.
        query = trailing_query(cluster, k=2, alpha0=0.95)
        _, cost = cluster.explain(query)
        assert cost["shards.pruned"] >= 1

    def test_parallel_dispatch_matches_sequential(self, small_dataset):
        sequential = ClusterTree.build(small_dataset, num_shards=4)
        parallel = ClusterTree.build(small_dataset, num_shards=4, parallelism=4)
        for alpha0 in (0.1, 0.5, 0.9):
            query = trailing_query(sequential, k=7, alpha0=alpha0)
            assert parallel.query(query) == sequential.query(query)

    def test_counters_accumulate(self, small_dataset):
        built = ClusterTree.build(small_dataset, num_shards=2)
        built.query(trailing_query(built))
        built.query(trailing_query(built, alpha0=0.9))
        counters = built.counters()
        assert counters["queries"] == 2
        assert counters["shards"] == 2
        assert 1 <= counters["shards.visited"] <= 4

    def test_counters_emit_only_canonical_dotted_keys(self, keyed):
        # Dotted keys are canonical (one scheme with the shards.<i>.*
        # blocks of explain()); the snake-case aliases shimmed in for
        # one release are now gone.
        keyed.query(trailing_query(keyed))
        counters = keyed.counters()
        for dotted in (
            "shards.visited",
            "shards.pruned",
            "shards.failed",
            "shards.down",
            "shards.retries",
            "shards.timeouts",
        ):
            assert dotted in counters
        for legacy in (
            "shards_visited",
            "shards_pruned",
            "shards_failed",
            "shards_down",
            "shard_retries",
            "shard_timeouts",
        ):
            assert legacy not in counters

    def test_explain_emits_only_canonical_dotted_keys(self, keyed):
        _, cost = keyed.explain(trailing_query(keyed))
        for dotted in (
            "shards.visited",
            "shards.pruned",
            "shards.failed",
            "shards.certified",
            "shards.down",
        ):
            assert dotted in cost
        for legacy in (
            "shards_visited",
            "shards_pruned",
            "shards_failed",
            "shards_certified",
            "shards_down",
        ):
            assert legacy not in cost

    def test_query_batch_matches_single_tree(self, cluster, single_tree):
        end = cluster.current_time
        queries = [
            KNNTAQuery(
                (0.1 * i, 0.5), TimeInterval(end - 28, end), k=5, alpha0=0.3
            )
            for i in range(6)
        ]
        expected = [single_tree.query(query) for query in queries]
        assert cluster.query_batch(queries) == expected

    def test_query_batch_mixed_intervals(self, cluster, single_tree):
        end = cluster.current_time
        queries = [
            KNNTAQuery((0.4, 0.6), TimeInterval(end - 28, end), k=5),
            KNNTAQuery((0.2, 0.8), TimeInterval(end - 90, end - 30), k=3),
        ]
        expected = [single_tree.query(query) for query in queries]
        assert cluster.query_batch(queries) == expected

    def test_empty_shard_is_skipped_not_pruned(self, small_dataset):
        built = ClusterTree.build(small_dataset, num_shards=2)
        empty = TARTree(
            world=built.world,
            clock=built.clock,
            current_time=built.current_time,
        )
        shard = Shard(2, built.plan.regions[1], empty)
        plan = plan_shards(
            [(p.x, p.y) for p in map(built.poi, built.poi_ids())],
            3,
            world=built.world,
        )
        padded = ClusterTree(plan, list(built.shards) + [shard])
        _, cost = padded.explain(trailing_query(padded))
        assert cost["shards.visited"] + cost["shards.pruned"] <= 2


class TestDottedKeysOnWorkers:
    """The dotted-key counters()/explain() tests over worker processes,
    sharing one worker cluster."""

    @pytest.fixture(scope="class")
    def keyed(self, small_dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("keyed") / "c"
        with open_on("workers", small_dataset, path, num_shards=2) as built:
            yield built

    test_counters_emit_only_canonical_dotted_keys = (
        TestQueries.test_counters_emit_only_canonical_dotted_keys
    )
    test_explain_emits_only_canonical_dotted_keys = (
        TestQueries.test_explain_emits_only_canonical_dotted_keys
    )

    def test_explain_reports_the_in_process_coordinator_keys(
        self, keyed, small_dataset
    ):
        # Workers reply with their node accesses, so explain() reports
        # the in-process keys, per-shard counters included, on the same
        # 2-shard plan with both shards dispatched at once.
        local = ClusterTree.build(small_dataset, num_shards=2, parallelism=2)
        try:
            _, in_process = local.explain(trailing_query(local))
        finally:
            local.close()
        _, remote = keyed.explain(trailing_query(keyed))
        assert set(remote) == set(in_process)
        assert remote["rtree_nodes"] == in_process["rtree_nodes"] > 0


def test_parallel_queries_share_one_executor(
    transport, small_dataset, tmp_path, monkeypatch
):
    # Parallel dispatch runs on one executor per cluster, made on first
    # use: concurrent queries and a batch build no pools of their own,
    # and close() leaves no scatter thread behind.
    made = []

    class Counting(coordinator.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(coordinator, "ThreadPoolExecutor", Counting)
    earlier = set(threading.enumerate())  # other tests' unclosed clusters
    with open_on(transport, small_dataset, tmp_path / "c", parallelism=4) as built:
        queries = [
            trailing_query(built, k=7, alpha0=alpha0) for alpha0 in (0.1, 0.5, 0.9)
        ] * 4
        with ThreadPoolExecutor(max_workers=4) as clients:
            answers = list(clients.map(built.query, queries))
        assert answers[:3] == answers[3:6]
        built.query_batch(queries[:3])
        assert len(made) == 1
    assert not [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-scatter") and thread not in earlier
    ]


class TestRoutedMutations:
    def build(self, small_dataset, shards=3):
        return ClusterTree.build(small_dataset, num_shards=shards)

    def test_insert_routes_to_the_owning_shard(self, small_dataset):
        built = self.build(small_dataset)
        poi = POI("routed-1", 30.0, 25.0)
        built.insert_poi(poi, {0: 3})
        owner = built.plan.route(poi.point)
        assert "routed-1" in built.shards[owner].tree
        assert built.poi("routed-1").point == poi.point

    def test_duplicate_insert_rejected_cluster_wide(self, small_dataset):
        built = self.build(small_dataset)
        built.insert_poi(POI("dup", 30.0, 25.0))
        with pytest.raises(ValueError):
            built.insert_poi(POI("dup", 40.0, 30.0))

    def test_out_of_world_insert_rejected(self, small_dataset):
        built = self.build(small_dataset)
        outside = (built.world.highs[0] * 2 + 10, built.world.highs[1])
        with pytest.raises(ValueError):
            built.insert_poi(POI("far", outside[0], outside[1]))
        assert built.counters()["routing_overflows"] == 0

    def test_overflow_insert_falls_back_to_nearest_shard(self, small_dataset):
        built = self.build(small_dataset)
        # Inside the world but outside the planned (data bounding box)
        # regions: near-origin corners are typically unplanned.
        candidate = None
        for x, y in [(0.01, 0.01), (built.world.highs[0] - 0.01, 0.01)]:
            if built.plan.route((x, y)) is None and built.world.contains_point(
                (x, y)
            ):
                candidate = (x, y)
                break
        assert candidate is not None, "dataset box covers the whole world"
        built.insert_poi(POI("overflow", candidate[0], candidate[1]))
        assert built.counters()["routing_overflows"] == 1
        assert "overflow" in built
        nearest = built.plan.nearest(candidate)
        assert "overflow" in built.shards[nearest].tree

    def test_delete_routes_and_reports(self, small_dataset):
        built = self.build(small_dataset)
        victim = built.poi_ids()[0]
        assert built.delete_poi(victim) is True
        assert victim not in built
        assert built.delete_poi(victim) is False

    def test_digest_routes_per_shard(self, small_dataset):
        built = self.build(small_dataset)
        single = TARTree.build(small_dataset)
        epoch = built.clock.epoch_of(built.current_time)
        batch = {poi_id: 2 for poi_id in built.poi_ids()[:10]}
        built.digest_epoch(epoch, batch)
        single.digest_epoch(epoch, batch)
        query = trailing_query(single)
        assert built.query(query) == single.query(query)

    def test_digest_unknown_poi_rejected_before_any_apply(self, small_dataset):
        built = self.build(small_dataset)
        known = built.poi_ids()[0]
        before = built.poi_tia(known).get(0)
        with pytest.raises(KeyError):
            built.digest_epoch(0, {known: 5, "nope": 1})
        assert built.poi_tia(known).get(0) == before

    def test_digest_drops_non_positive_counts(self, small_dataset):
        built = self.build(small_dataset)
        known = built.poi_ids()[0]
        before = built.poi_tia(known).get(0)
        built.digest_epoch(0, {known: 0, "unknown-but-non-positive": -3})
        assert built.poi_tia(known).get(0) == before

    def test_mutations_preserve_single_tree_equivalence(self, small_dataset):
        built = self.build(small_dataset)
        single = TARTree.build(small_dataset)
        poi = POI("extra", 31.0, 26.0)
        built.insert_poi(poi, {1: 4})
        single.insert_poi(poi, {1: 4})
        victim = sorted(
            poi_id for poi_id in single.poi_ids() if poi_id != "extra"
        )[0]
        built.delete_poi(victim)
        single.delete_poi(victim)
        query = trailing_query(single, k=8, alpha0=0.5)
        assert built.query(query) == single.query(query)


class TestMaintenanceSurface:
    def test_scrub_tick_round_robins_the_shards(self, small_dataset):
        built = ClusterTree.build(small_dataset, num_shards=2)
        for _ in range(4):
            assert built.scrub_tick(budget=64) >= 0
        assert all(shard.scrubber is not None for shard in built.shards)

    def test_checkpoint_without_durable_state_raises(self, small_dataset):
        from repro import ClusterStateError

        built = ClusterTree.build(small_dataset, num_shards=2)
        with pytest.raises(ClusterStateError):
            built.checkpoint()

    def test_repr_and_iteration(self, cluster):
        assert "4 shards" in repr(cluster)
        assert [shard.index for shard in cluster] == [0, 1, 2, 3]


def test_batch_skips_an_emptied_shard(transport, small_dataset, tmp_path):
    # A shard whose descriptor holds no POI is never sent the batch, so
    # both transports count the same shards as visited.
    single = TARTree.build(small_dataset)
    with open_on(transport, small_dataset, tmp_path / "c", num_shards=3) as cluster:
        for poi_id in small_dataset.effective_poi_ids():
            point = small_dataset.positions[poi_id]
            index = cluster.plan.route(point)
            if (cluster.plan.nearest(point) if index is None else index) == 1:
                assert cluster.delete_poi(poi_id)
                assert single.delete_poi(poi_id)
        assert cluster.shards[1].descriptor.pois == 0
        queries = [
            trailing_query(cluster, k=k, alpha0=alpha0)
            for k, alpha0 in ((3, 0.1), (10, 0.5), (5, 0.9))
        ]
        before = cluster.counters()["shards.visited"]
        assert cluster.query_batch(queries) == [single.query(q) for q in queries]
        assert cluster.counters()["shards.visited"] - before == 2 * len(queries)


def test_merged_maxima_follow_every_descriptor_change(
    transport, small_dataset, tmp_path
):
    """The coordinator merges the descriptors' per-epoch maxima once and
    re-merges only when a descriptor changes: after an insert, a digest,
    a shard recovery and a split (worker clusters split), the cached
    maxima and the normaliser still equal the single tree's."""
    from repro.cluster import RemoteClusterTree, open_cluster, save_cluster, split_shard

    built = ClusterTree.build(small_dataset, num_shards=2)
    save_cluster(built, str(tmp_path / "c"))
    built.close()
    if transport == "inproc":
        cluster = open_cluster(str(tmp_path / "c"))
    else:
        cluster = RemoteClusterTree.start(str(tmp_path / "c"))
    single = TARTree.build(small_dataset)

    def current():
        merged = cluster._epoch_max()
        assert cluster._epoch_max() is merged  # served from the cache
        assert cluster.global_epoch_max() == single.global_epoch_max()
        end = single.current_time
        for days in (7.0, 28.0, 400.0):
            interval = TimeInterval(end - days, end)
            assert cluster.normalizer(interval) == single.normalizer(interval)
        return merged

    try:
        merged = current()
        peak = max(single.global_epoch_max().values()) + 5
        poi = POI("peak", *small_dataset.world.center)
        cluster.insert_poi(poi, {0: peak})
        single.insert_poi(poi, {0: peak})
        assert current() is not merged
        merged = current()
        epoch = single.clock.epoch_of(single.current_time) + 1
        counts = {poi_id: peak + 1 for poi_id in list(single.poi_ids())[:3]}
        cluster.digest_epoch(epoch, counts)
        single.digest_epoch(epoch, counts)
        assert current() is not merged
        merged = current()
        cluster.recover_shard(0)
        assert current() is not merged
        if transport == "workers":
            merged = current()
            split_shard(cluster, 0)
            assert len(cluster.shards) == 3
            assert current() is not merged
    finally:
        cluster.close()


def test_a_distant_epoch_answers_as_the_single_tree(
    transport, small_dataset, tmp_path
):
    """A history ``{0: 1, 10**9: 1}`` and a digest of a distant epoch
    cost shard frames and descriptors one column each, not one per epoch
    between: the cluster answers exactly as the single tree's object
    path, and its normaliser equals the single tree's."""
    far = 10**9
    single = TARTree.build(small_dataset)
    single.frames.disable()
    clock = single.clock
    with open_on(transport, small_dataset, tmp_path / "c") as cluster:
        poi = POI("far", *small_dataset.world.center)
        for tree in (cluster, single):
            tree.insert_poi(poi, {0: 1, far: 1})
            tree.digest_epoch(far + 2, {"far": 3})
        assert cluster.global_epoch_max() == single.global_epoch_max()
        windows = [
            (0, 12),
            (3, far + 1),
            (0, far + 3),
            (far, far + 3),
        ]
        intervals = [
            TimeInterval(clock.bounds(first)[0], clock.bounds(last - 1)[1])
            for first, last in windows
        ]
        queries = [
            KNNTAQuery(small_dataset.world.center, interval, k=5, alpha0=alpha0)
            for interval in intervals
            for alpha0 in (0.05, 0.5)
        ]
        for interval in intervals:
            assert cluster.normalizer(interval) == single.normalizer(interval)
        expected = [single.query(query) for query in queries]
        assert [cluster.query(query) for query in queries] == expected
        assert cluster.query_batch(queries) == expected
        assert any("far" in [row.poi_id for row in rows] for rows in expected)
