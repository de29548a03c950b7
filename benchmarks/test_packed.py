"""Packed node frames vs the object path — wall-clock, same answers.

The packed hot path (:mod:`repro.core.frames`) claims two things: it is
faster, and it changes *nothing* about the answers.  This benchmark
measures both on the serving surfaces that matter — single-tree
``knnta_search``, a collective batch, and cluster scatter-gather — by
running identical workloads with the frame store enabled and disabled
on otherwise identical trees.  Answers must be bit-identical (full
tuple equality, including under a 40-step mutation stream) and the
packed path must be at least ``MIN_SPEEDUP`` times faster on the
single-tree search; the series lands in ``BENCH_packed.json``.

Trees are built directly here (the shared ``_harness`` trees disable
frames on purpose: the per-figure benchmarks reproduce the paper's
object-path cost model).  ``REPRO_BENCH_SMOKE=1`` shrinks the dataset
and relaxes the bar to "not slower" for the CI smoke leg.
"""

import functools
import os
import random
import time

from _harness import write_bench
from repro import POI, ClusterTree, TARTree, datasets
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DATASET = "GS"
SCALE = 0.3 if SMOKE else 1.0
SEED = 42
N_QUERIES = 50 if SMOKE else 200
NUM_SHARDS = 4

#: The acceptance bar on the single-tree search.  The full run must
#: show a real win; the smoke leg (tiny fixture, noisy shared CI box)
#: only has to prove the packed path is not a regression.
MIN_SPEEDUP = 1.0 if SMOKE else 1.5
#: Softer floor for the shared/batched paths, where traversal sharing
#: already amortises much of what the frames remove.
MIN_BATCH_SPEEDUP = 1.0

REPEATS = 3


@functools.lru_cache(maxsize=None)
def get_data():
    return datasets.make(DATASET, scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def get_queries():
    from repro.datasets.workload import generate_queries

    return generate_queries(
        get_data(), n_queries=N_QUERIES, k=10, alpha0=0.3, seed=7
    )


def best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs (noise floor, not average)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def compare(label, build, run, collect):
    """Time ``run`` on a packed and a frames-disabled twin of ``build``.

    Both twins are warmed (one full pass) before timing so frame
    construction and TIA buffer effects are amortised identically.
    Returns ``(speedup, packed_seconds, object_seconds)`` and asserts
    the answers are bit-identical.
    """
    packed_tree = build()
    run(packed_tree)  # warm: builds frames, fills buffers
    packed_time = best_of(lambda: run(packed_tree))
    packed_answers = collect(packed_tree)

    object_tree = build()
    disable_frames(object_tree)
    run(object_tree)
    object_time = best_of(lambda: run(object_tree))
    object_answers = collect(object_tree)

    assert packed_answers == object_answers, (
        "%s: packed answers diverged from the object path" % label
    )
    return object_time / packed_time, packed_time, object_time


def disable_frames(tree):
    if hasattr(tree, "shards"):  # a ClusterTree: disable on every shard
        for shard in tree.shards:
            shard.tree.frames.disable()
    else:
        tree.frames.disable()


def test_packed_speedup_and_identity():
    queries = get_queries()
    results = {}

    speedup, packed_s, object_s = compare(
        "knnta_search",
        lambda: TARTree.build(get_data()),
        lambda tree: [knnta_search(tree, q) for q in queries],
        lambda tree: [list(knnta_search(tree, q)) for q in queries],
    )
    results["knnta_search"] = {
        "speedup": speedup,
        "packed_s": packed_s,
        "object_s": object_s,
    }
    assert speedup >= MIN_SPEEDUP, (
        "single-tree packed path only %.2fx over the object path "
        "(bar: %.1fx)" % (speedup, MIN_SPEEDUP)
    )

    speedup, packed_s, object_s = compare(
        "collective",
        lambda: TARTree.build(get_data()),
        lambda tree: CollectiveProcessor(tree).run(queries),
        lambda tree: [list(r) for r in CollectiveProcessor(tree).run(queries)],
    )
    results["collective"] = {
        "speedup": speedup,
        "packed_s": packed_s,
        "object_s": object_s,
    }
    assert speedup >= MIN_BATCH_SPEEDUP

    speedup, packed_s, object_s = compare(
        "cluster",
        lambda: ClusterTree.build(get_data(), num_shards=NUM_SHARDS),
        lambda cluster: [cluster.query(q) for q in queries],
        lambda cluster: [list(cluster.query(q)) for q in queries],
    )
    results["cluster"] = {
        "speedup": speedup,
        "packed_s": packed_s,
        "object_s": object_s,
    }
    assert speedup >= MIN_BATCH_SPEEDUP

    write_bench(
        "packed",
        {
            "dataset": DATASET,
            "scale": SCALE,
            "n_queries": N_QUERIES,
            "num_shards": NUM_SHARDS,
            "smoke": SMOKE,
            "min_speedup": MIN_SPEEDUP,
            "results": results,
        },
    )

    print()
    for label, row in results.items():
        print(
            "%-14s packed %7.3fs  object %7.3fs  speedup %5.2fx"
            % (label, row["packed_s"], row["object_s"], row["speedup"])
        )


def test_packed_identity_under_mutation_stream():
    """40 mixed mutations; packed and object answers stay bit-identical."""
    tree = TARTree.build(get_data())
    rng = random.Random(23)
    queries = get_queries()
    next_id = 10**9
    epoch = tree.clock.epoch_of(tree.current_time)
    for step in range(40):
        op = rng.choice(["insert", "delete", "digest", "digest"])
        if op == "insert":
            x = rng.uniform(tree.world.lows[0], tree.world.highs[0])
            y = rng.uniform(tree.world.lows[1], tree.world.highs[1])
            tree.insert_poi(
                POI(next_id, x, y), {epoch: rng.randint(1, 5)}
            )
            next_id += 1
        elif op == "delete":
            tree.delete_poi(rng.choice(list(tree.poi_ids())))
        else:
            batch = {
                poi_id: rng.randint(1, 4)
                for poi_id in rng.sample(list(tree.poi_ids()), 10)
            }
            tree.digest_epoch(epoch + step % 2, batch)
        query = queries[step % len(queries)]
        packed = list(knnta_search(tree, query))
        tree.frames.enabled = False
        try:
            plain = list(knnta_search(tree, query))
        finally:
            tree.frames.enabled = True
        assert packed == plain, "diverged at mutation step %d" % step
