"""Packed node frames vs the object path — CPU time, same answers.

The packed hot path (:mod:`repro.core.frames`) claims two things: it is
faster, and it changes *nothing* about the answers.  This benchmark
measures both on the serving surfaces that matter — single-tree
``knnta_search``, a collective batch, and cluster scatter-gather — by
running identical workloads with the frame store enabled and disabled
on otherwise identical trees.  Answers must be bit-identical (full
tuple equality, on COUNT, SUM and MAX trees, including under a 40-step
mutation stream) and the packed path must be at least ``MIN_SPEEDUP``
times faster on the single-tree search of a COUNT tree.  Each side is
timed as process CPU in ``ROUNDS`` rounds that alternate which side
runs first, and a speedup is the median of the rounds' ratios: CPU
time leaves out the waits a shared host adds to wall-clock, and the
interleaving puts drift over the run on both sides.  The same
search is also timed at daily epochs on LA, the sparsest data set, on
COUNT and MAX trees, and must not be slower than the object path there.
The series lands in ``BENCH_packed.json``, beside what the built frames
hold per entry and per stored TIA record on each data set at weekly and
daily epochs: a frame's rows are dense over the epochs its node stores,
so their cells per record follow the node's *density* (an entry's
records over the node's epoch columns), and a sparse data set or a
short epoch shows up there.

Trees are built directly here (the shared ``_harness`` trees disable
frames on purpose: the per-figure benchmarks reproduce the paper's
object-path cost model).  ``REPRO_BENCH_SMOKE=1`` shrinks the dataset
and relaxes the bar to "not slower" for the CI smoke leg, and the series
then lands in ``BENCH_packed.smoke.json``.
"""

import functools
import random
import statistics
import sys
import time

import pytest
from _harness import SMOKE, write_bench
from repro import POI, ClusterTree, TARTree, datasets
from repro.core.collective import CollectiveProcessor
from repro.core.frames import build_frame
from repro.core.knnta import knnta_search

DATASET = "GS"
#: The data sets whose built frames are measured (``frame_memory``),
#: at each of these epoch lengths in days.
MEMORY_DATASETS = ("NYC", "LA", "GW", "GS")
MEMORY_EPOCH_DAYS = (7.0, 1.0)
#: The sparse search: daily epochs on the data set whose entries store
#: the smallest share of their node's epochs.
SPARSE_DATASET = "LA"
SPARSE_EPOCH_DAYS = 1.0
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

#: Timed rounds per comparison, each running both sides once.
ROUNDS = 5


@functools.lru_cache(maxsize=None)
def get_data():
    return datasets.make(DATASET, scale=SCALE, seed=SEED)


@functools.lru_cache(maxsize=None)
def get_queries(name=DATASET):
    from repro.datasets.workload import generate_queries

    data = datasets.make(name, scale=SCALE, seed=SEED)
    return generate_queries(data, n_queries=N_QUERIES, k=10, alpha0=0.3, seed=7)


def cpu_seconds(fn):
    """Process CPU seconds of one ``fn()`` call."""
    start = time.process_time()
    fn()
    return time.process_time() - start


def compare(label, build, run, collect):
    """Time ``run`` on a packed and a frames-disabled twin of ``build``.

    Both twins are warmed (one full pass) before timing so frame
    construction and TIA buffer effects are amortised identically, then
    run once each per round, the first side alternating.  Returns
    ``(speedup, packed_seconds, object_seconds)``, the medians over the
    rounds, and asserts the answers are bit-identical.
    """
    sides = {"packed": build(), "object": build()}
    disable_frames(sides["object"])
    for tree in sides.values():
        run(tree)  # warm: builds frames, fills buffers
    times = {"packed": [], "object": []}
    for round_index in range(ROUNDS):
        for side in sorted(sides, reverse=bool(round_index % 2)):
            times[side].append(cpu_seconds(lambda: run(sides[side])))

    assert collect(sides["packed"]) == collect(sides["object"]), (
        "%s: packed answers diverged from the object path" % label
    )
    packed, unpacked = times["packed"], times["object"]
    speedup = statistics.median(slow / fast for fast, slow in zip(packed, unpacked))
    return speedup, statistics.median(packed), statistics.median(unpacked)


def disable_frames(tree):
    if hasattr(tree, "shards"):  # a ClusterTree: disable on every shard
        for shard in tree.shards:
            shard.tree.frames.disable()
    else:
        tree.frames.disable()


def surfaces(kind):
    """``(label, build, run, collect)`` for each serving surface, over
    trees ranking by the aggregate ``kind``."""
    queries = get_queries()
    return [
        (
            "knnta_search",
            lambda: TARTree.build(get_data(), aggregate_kind=kind),
            lambda tree: [knnta_search(tree, q) for q in queries],
            lambda tree: [list(knnta_search(tree, q)) for q in queries],
        ),
        (
            "collective",
            lambda: TARTree.build(get_data(), aggregate_kind=kind),
            lambda tree: CollectiveProcessor(tree).run(queries),
            lambda tree: [list(r) for r in CollectiveProcessor(tree).run(queries)],
        ),
        (
            "cluster",
            lambda: ClusterTree.build(
                get_data(), num_shards=NUM_SHARDS, aggregate_kind=kind
            ),
            lambda cluster: [cluster.query(q) for q in queries],
            lambda cluster: [list(cluster.query(q)) for q in queries],
        ),
    ]


def sparse_surface(kind):
    """``(label, build, run, collect)`` for the single-tree search at
    daily epochs on the sparse data set."""
    data = datasets.make(SPARSE_DATASET, scale=SCALE, seed=SEED)
    queries = get_queries(SPARSE_DATASET)
    return (
        "knnta_search %s %gd %s" % (SPARSE_DATASET, SPARSE_EPOCH_DAYS, kind),
        lambda: TARTree.build(
            data, aggregate_kind=kind, epoch_length=SPARSE_EPOCH_DAYS
        ),
        lambda tree: [knnta_search(tree, q) for q in queries],
        lambda tree: [list(knnta_search(tree, q)) for q in queries],
    )


def all_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(e.child for e in node.entries if e.child is not None)


def frame_memory(name, epoch_days):
    """What the built frames of a ``name`` tree with ``epoch_days``-day
    epochs hold, at the bench scale.

    Every frame is built; its bytes are its buffers (entry MBRs, epoch
    columns and the table).  ``density`` is the share of row slots (an
    entry times a column of its node) that hold a stored record; a
    node too sparse for a frame counts under ``object_nodes``.
    """
    tree = TARTree.build(
        datasets.make(name, scale=SCALE, seed=SEED), bulk=True, epoch_length=epoch_days
    )
    entries = records = slots = frame_bytes = cells = 0
    nodes = object_nodes = 0
    typecodes = {}
    for node in all_nodes(tree):
        frame = build_frame(node, True)
        nodes += 1
        entries += len(node.entries)
        records += sum(len(entry.tia) for entry in node.entries)
        slots += len(node.entries) * len(frame.epochs)
        table = frame.table
        if table is None:
            object_nodes += 1
            continue
        frame_bytes += (
            len(frame.coords) * frame.coords.itemsize
            + sys.getsizeof(frame.epochs)
            + len(table) * table.itemsize
        )
        cells += len(table)
        typecodes[table.typecode] = typecodes.get(table.typecode, 0) + 1
    return {
        "nodes": nodes,
        "object_nodes": object_nodes,
        "entries": entries,
        "records": records,
        "density": records / slots,
        "cells": cells,
        "cells_per_record": cells / records,
        "typecodes": typecodes,
        "frame_bytes": frame_bytes,
        "bytes_per_entry": frame_bytes / entries,
        "bytes_per_record": frame_bytes / records,
    }


def test_packed_speedup_and_identity():
    results = {}
    for label, build, run, collect in surfaces("count"):
        speedup, packed_s, object_s = compare(label, build, run, collect)
        results[label] = {
            "speedup": speedup,
            "packed_s": packed_s,
            "object_s": object_s,
        }
        if label == "knnta_search":
            assert speedup >= MIN_SPEEDUP, (
                "single-tree packed path only %.2fx over the object path "
                "(bar: %.1fx)" % (speedup, MIN_SPEEDUP)
            )
        else:
            assert speedup >= MIN_BATCH_SPEEDUP
    for kind in ("count", "max"):
        label, build, run, collect = sparse_surface(kind)
        speedup, packed_s, object_s = compare(label, build, run, collect)
        results[label] = {
            "speedup": speedup,
            "packed_s": packed_s,
            "object_s": object_s,
        }
        assert speedup >= MIN_BATCH_SPEEDUP, label
    memory = {
        "%s %gd" % (name, days): frame_memory(name, days)
        for days in MEMORY_EPOCH_DAYS
        for name in MEMORY_DATASETS
    }

    write_bench(
        "packed",
        {
            "dataset": DATASET,
            "scale": SCALE,
            "n_queries": N_QUERIES,
            "num_shards": NUM_SHARDS,
            "smoke": SMOKE,
            "min_speedup": MIN_SPEEDUP,
            "rounds": ROUNDS,
            "timing": "process CPU, median of interleaved rounds",
            "results": results,
            "frame_memory": memory,
        },
    )

    print()
    for label, row in results.items():
        print(
            "%-26s packed %7.3fs  object %7.3fs  speedup %5.2fx"
            % (label, row["packed_s"], row["object_s"], row["speedup"])
        )
    for name, row in memory.items():
        print(
            "%-7s frames %8d B  %6.1f B/entry  %5.2f B/record  "
            "%5.2f cells/record  density %.2f  object nodes %d"
            % (
                name,
                row["frame_bytes"],
                row["bytes_per_entry"],
                row["bytes_per_record"],
                row["cells_per_record"],
                row["density"],
                row["object_nodes"],
            )
        )


@pytest.mark.parametrize("kind", ["sum", "max"])
def test_packed_identity_per_aggregate_kind(kind):
    """SUM shares COUNT's prefix-sum fold; MAX folds a slice max."""
    for label, build, run, collect in surfaces(kind):
        packed = build()
        unpacked = build()
        disable_frames(unpacked)
        assert collect(packed) == collect(unpacked), (
            "%s on %s trees: packed answers diverged from the object path"
            % (label, kind)
        )


@pytest.mark.parametrize("kind", ["count", "sum", "max"])
def test_packed_identity_under_mutation_stream(kind):
    """40 mixed mutations; packed and object answers stay bit-identical."""
    tree = TARTree.build(get_data(), aggregate_kind=kind)
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
