"""Subscription advances vs one collective batch of the same queries.

A :class:`~repro.continuous.SubscriptionRegistry` advance re-runs every
subscription's bound-pruned one-shot query at its current window.  The
paper's collective processing (Section 7.2) is the obvious rival: the
subscriptions of one window length share an interval on each advance,
so one :class:`~repro.core.collective.CollectiveProcessor` batch could
answer them all with shared node fetches.  This benchmark replays a
data set's tail through a subscribed tree and, after every digest,
measures both sides side by side — wall-clock and R-tree node accesses
of ``registry.advance()`` and of one batch over the same queries —
across subscriber fan-outs and window sizes.  Identity is asserted
inline: after every advance each subscription's rows, its batch rows
and its ``tree.query()`` rows must be equal.  No wall-clock bar is set;
the series lands in ``BENCH_continuous.json`` with the host it ran on.
``REPRO_BENCH_SMOKE=1`` shrinks the fixture for the CI smoke leg.

A digest invalidates the packed frames of the nodes it touched, and
whichever side runs first after it rebuilds them, so the two sides
take turns going first.
"""

import functools
import json
import os
import random
import time

from _harness import ROOT, host
from repro import KNNTAQuery, TARTree, datasets
from repro.continuous import SubscriptionRegistry, window_state
from repro.core.collective import CollectiveProcessor
from repro.datasets.streaming import epoch_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DATASET = "GS"
SCALE = 0.3 if SMOKE else 1.0
SEED = 42

SUBSCRIBERS = (1, 8, 64)
WINDOWS = (2, 8)


@functools.lru_cache(maxsize=None)
def get_data():
    return datasets.make(DATASET, scale=SCALE, seed=SEED)


def one_shot_query(tree, point, window, k):
    state = window_state(tree.clock, tree.current_time, window)
    return KNNTAQuery(point, state.interval, k=k)


def measured(tree, call):
    """``call()``'s result, wall-clock seconds and R-tree node accesses."""
    snap = tree.stats.snapshot()
    start = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - start
    return result, seconds, tree.stats.diff(snap).rtree_nodes


def run_config(n_subs, window):
    """Replay the tail once; return the per-side cost totals."""
    data = get_data()
    tree = TARTree.build(data.snapshot(0.7))
    rng = random.Random(101 + n_subs * 13 + window)
    registry = SubscriptionRegistry(tree)
    subs = []
    for _ in range(n_subs):
        point = (
            rng.uniform(tree.world.lows[0], tree.world.highs[0]),
            rng.uniform(tree.world.lows[1], tree.world.highs[1]),
        )
        sub, _ = registry.subscribe(point, window, k=10)
        subs.append((sub, point))
    totals = {"advance_s": 0.0, "advance_nodes": 0, "batch_s": 0.0, "batch_nodes": 0}
    advances = 0
    stream = epoch_stream(
        data, tree.clock, start_time=tree.current_time,
        poi_ids=list(tree.poi_ids()),
    )
    for epoch, counts in stream:
        tree.digest_epoch(epoch, counts)
        queries = [one_shot_query(tree, point, window, k=10) for _, point in subs]
        sides = [
            ("advance", registry.advance),
            ("batch", lambda: CollectiveProcessor(tree).run(queries)),
        ]
        if advances % 2:
            sides.reverse()
        answers = {}
        for side, call in sides:
            answers[side], seconds, nodes = measured(tree, call)
            totals[side + "_s"] += seconds
            totals[side + "_nodes"] += nodes
        for (sub, _), query, rows in zip(subs, queries, answers["batch"]):
            oracle = list(tree.query(query).rows)
            assert list(sub.last_rows) == oracle, (
                "subscription diverged from tree.query() at epoch %d" % epoch
            )
            assert list(rows) == oracle, (
                "collective batch diverged from tree.query() at epoch %d" % epoch
            )
        advances += 1
    counters = registry.counters()
    registry.close()
    assert advances >= 3, "tail too short to measure anything"
    assert counters["evals.errors"] == 0
    return dict(
        totals,
        subscribers=n_subs,
        window=window,
        advances=advances,
        evals_fresh=counters["evals.fresh"],
    )


def test_advances_beside_collective_batches():
    rows = [
        run_config(n_subs, window)
        for n_subs in SUBSCRIBERS
        for window in WINDOWS
    ]
    for row in rows:
        assert row["advance_nodes"] > 0 and row["batch_nodes"] > 0

    out_path = os.path.join(ROOT, "BENCH_continuous.json")
    with open(out_path, "w") as handle:
        json.dump(
            {
                "dataset": DATASET,
                "scale": SCALE,
                "smoke": SMOKE,
                "host": host(),
                "results": rows,
            },
            handle,
            indent=2,
            sort_keys=True,
        )

    print()
    for row in rows:
        print(
            "%3d subs  window %d  advances %2d  nodes %6d vs %6d  "
            "wall %6.3fs vs %6.3fs  (advance vs batch)"
            % (
                row["subscribers"], row["window"], row["advances"],
                row["advance_nodes"], row["batch_nodes"],
                row["advance_s"], row["batch_s"],
            )
        )
