"""Property test: sharded kNNTA answers equal the single-tree answers.

The coordinator's exactness claim (docs/CLUSTER.md) is that for every
query the scatter-gather result — ids, scores, distances, aggregates
and order — is *identical* to the one tree built over the same data,
because every shard shares the cluster-level normaliser and the
per-shard bound only ever skips shards that provably cannot reach the
top-k.  This file checks that claim across randomized datasets, shard
counts, planning methods, alphas, k values, intervals and semantics.
"""

import random

import pytest

from repro import (
    ClusterTree,
    IntervalSemantics,
    KNNTAQuery,
    TARTree,
    TimeInterval,
    datasets,
)
from tests.cluster.conftest import open_on

DATASET_CONFIGS = [
    ("NYC", 0.02, 7),
    ("LA", 0.01, 3),
    ("GS", 0.05, 11),
]

SHARD_CONFIGS = [(2, "kd"), (4, "kd"), (4, "grid"), (7, "kd")]


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
                k=rng.choice([1, 3, 5, 10, 25]),
                alpha0=rng.choice([0.05, 0.3, 0.5, 0.7, 0.95]),
                semantics=rng.choice(
                    [IntervalSemantics.INTERSECTS, IntervalSemantics.CONTAINED]
                ),
            )
        )
    return queries


@pytest.fixture
def transport():
    """The tests below run in process under their own names;
    :class:`TestOnWorkers` re-runs them over worker processes."""
    return "inproc"


@pytest.mark.parametrize(
    "preset,scale,seed", DATASET_CONFIGS, ids=[c[0] for c in DATASET_CONFIGS]
)
def test_sharded_answers_equal_single_tree(preset, scale, seed, transport, tmp_path):
    data = datasets.make(preset, scale=scale, seed=seed)
    single = TARTree.build(data)
    rng = random.Random(seed * 31 + 1)
    # A worker costs about a second to spawn and the plan matrix does not
    # depend on the transport, so over workers one plan per dataset.
    configs = SHARD_CONFIGS if transport == "inproc" else SHARD_CONFIGS[1:2]
    for num_shards, method in configs:
        path = tmp_path / ("%s-%d" % (method, num_shards))
        with open_on(
            transport, data, path, num_shards=num_shards, method=method
        ) as cluster:
            for query in random_queries(single, rng):
                expected = single.query(query)
                got = cluster.query(query)
                # Full tuple equality: poi_id, score, distance,
                # aggregate, in order.  Scores must be bit-identical, not
                # approximate — both sides evaluate the same normalised
                # expression per POI.
                assert got == expected, (
                    "mismatch: %s shards=%d method=%s query=%r"
                    % (preset, num_shards, method, query)
                )


def test_sharded_batches_equal_single_tree(transport, tmp_path):
    data = datasets.make("NYC", scale=0.02, seed=7)
    single = TARTree.build(data)
    rng = random.Random(99)
    queries = random_queries(single, rng, count=10)
    expected = [single.query(query) for query in queries]
    with open_on(transport, data, tmp_path / "c") as cluster:
        assert cluster.query_batch(queries) == expected


def test_parallel_scatter_equals_single_tree(transport, tmp_path):
    data = datasets.make("GS", scale=0.05, seed=11)
    single = TARTree.build(data)
    rng = random.Random(5)
    with open_on(
        transport, data, tmp_path / "c", num_shards=5, parallelism=3
    ) as cluster:
        for query in random_queries(single, rng, count=10):
            assert cluster.query(query) == single.query(query)


class TestOnWorkers:
    """The identity, batch and parallel-scatter tests over worker processes."""

    @pytest.fixture
    def transport(self):
        return "workers"

    test_sharded_answers_equal_single_tree = staticmethod(
        test_sharded_answers_equal_single_tree
    )
    test_sharded_batches_equal_single_tree = staticmethod(
        test_sharded_batches_equal_single_tree
    )
    test_parallel_scatter_equals_single_tree = staticmethod(
        test_parallel_scatter_equals_single_tree
    )


def test_packed_frames_do_not_change_cluster_answers():
    """Scatter-gather over packed shards equals frames-disabled shards."""
    data = datasets.make("NYC", scale=0.02, seed=7)
    packed = ClusterTree.build(data, num_shards=4)
    plain = ClusterTree.build(data, num_shards=4)
    for shard in plain.shards:
        shard.tree.frames.disable()
    rng = random.Random(17)
    for query in random_queries(packed, rng, count=12):
        assert packed.query(query) == plain.query(query)
    queries = random_queries(packed, rng, count=6)
    assert packed.query_batch(queries) == plain.query_batch(queries)


def test_equivalence_survives_mutation_stream():
    """Random routed inserts/deletes/digests keep the answers identical."""
    data = datasets.make("NYC", scale=0.02, seed=13)
    single = TARTree.build(data)
    cluster = ClusterTree.build(data, num_shards=3)
    rng = random.Random(42)
    from repro import POI

    next_id = 0
    for step in range(40):
        action = rng.random()
        if action < 0.4:
            x = rng.uniform(cluster.world.lows[0], cluster.world.highs[0])
            y = rng.uniform(cluster.world.lows[1], cluster.world.highs[1])
            poi = POI("mut-%d" % next_id, x, y)
            next_id += 1
            history = {e: rng.randint(1, 5) for e in range(rng.randint(0, 3))}
            cluster.insert_poi(poi, dict(history))
            single.insert_poi(poi, dict(history))
        elif action < 0.6:
            ids = sorted(map(str, single.poi_ids()))
            if ids:
                victim_key = rng.choice(ids)
                victim = next(
                    poi_id
                    for poi_id in single.poi_ids()
                    if str(poi_id) == victim_key
                )
                assert cluster.delete_poi(victim) == single.delete_poi(victim)
        else:
            ids = list(single.poi_ids())
            epoch = cluster.clock.epoch_of(cluster.current_time) + (step % 2)
            batch = {
                poi_id: rng.randint(1, 4)
                for poi_id in rng.sample(ids, min(5, len(ids)))
            }
            cluster.digest_epoch(epoch, dict(batch))
            single.digest_epoch(epoch, dict(batch))
        if step % 8 == 7:
            for query in random_queries(single, rng, count=3):
                assert cluster.query(query) == single.query(query)
    assert len(cluster) == len(single)
