"""Shared machinery for the per-figure benchmark files.

The paper's experiments (Section 8) use four data sets and report, for
1,000 queries, the average CPU time and number of node accesses.  The
reproduction uses the synthetic stand-ins at the scales below (recorded
in EXPERIMENTS.md) and 200 queries per sweep point; presented results
follow the paper in showing GW and GS.

Everything heavy (data sets, trees, workloads) is cached per-process so
the figure files can share structures.
"""

import functools
import json
import os
import platform
import subprocess
import time
from typing import NamedTuple

from repro import TARTree, datasets
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search
from repro.core.scan import sequential_scan
from repro.datasets.workload import generate_queries

# Scales applied to the published data set sizes (DESIGN.md §3): full-size
# GW (1.28M POIs) is impractical for a pure-Python R-tree, and the paper's
# findings are about *relative* behaviour.  GS runs at full scale; GW at
# 0.3 (~3,000 effective POIs, the build-time sweet spot for the sweeps
# that reconstruct trees per configuration).
BENCH_SCALES = {"NYC": 0.3, "LA": 0.3, "GW": 0.3, "GS": 1.0}
BENCH_SEED = 42
N_QUERIES = 200
DEFAULT_EPOCH_LENGTH = 7.0
DEFAULT_NODE_SIZE = 1024

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: ``REPRO_BENCH_SMOKE=1`` runs the benchmarks that honour it at CI smoke
#: scale; :func:`write_bench` then writes beside the committed series.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

STRATEGIES = ("integral3d", "spatial", "aggregate")
STRATEGY_LABELS = {
    "integral3d": "TAR-tree",
    "spatial": "IND-spa",
    "aggregate": "IND-agg",
}


def host():
    """The machine and checkout a run was measured on."""
    try:
        revision = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
    }


def write_bench(name, payload):
    """Write ``payload`` to ``BENCH_<name>.json`` at the repository root,
    stamped with the :func:`host` it ran on.  Under :data:`SMOKE` the
    file is ``BENCH_<name>.smoke.json`` (git-ignored), so a smoke run
    never overwrites the committed full-size series."""
    filename = "BENCH_%s%s.json" % (name, ".smoke" if SMOKE else "")
    with open(os.path.join(ROOT, filename), "w") as handle:
        json.dump(dict(payload, host=host()), handle, indent=2, sort_keys=True)
        handle.write("\n")


@functools.lru_cache(maxsize=None)
def get_dataset(name, fraction=1.0):
    """The (cached) synthetic stand-in for ``name``, optionally a snapshot."""
    data = datasets.make(name, scale=BENCH_SCALES[name], seed=BENCH_SEED)
    if fraction < 1.0:
        data = data.snapshot(fraction)
    return data


@functools.lru_cache(maxsize=None)
def get_tree(
    name,
    strategy="integral3d",
    epoch_length=DEFAULT_EPOCH_LENGTH,
    node_size=DEFAULT_NODE_SIZE,
    fraction=1.0,
    tia_buffer_slots=10,
):
    """A (cached) TAR-tree over the named data set.

    The packed frame cache is disabled: the per-figure benchmarks
    reproduce the *paper's* cost model — node accesses and TIA page
    reads along the object path — which the packed hot path would
    short-circuit (it reads zero TIA pages).  ``benchmarks/test_packed.py``
    measures the packed path itself, on trees it builds directly.
    """
    data = get_dataset(name, fraction)
    tree = TARTree.build(
        data,
        epoch_length=epoch_length,
        strategy=strategy,
        node_size=node_size,
        tia_buffer_slots=tia_buffer_slots,
    )
    tree.frames.disable()
    return tree


@functools.lru_cache(maxsize=None)
def get_workload(name, n_queries=N_QUERIES, k=10, alpha0=0.3, seed=7):
    data = get_dataset(name)
    return generate_queries(data, n_queries=n_queries, k=k, alpha0=alpha0, seed=seed)


class Measurement(NamedTuple):
    """Per-query averages over a workload."""

    cpu_ms: float
    node_accesses: float
    leaf_node_accesses: float
    tia_pages: float


def measure_index(tree, queries):
    """Run ``queries`` through the BFS; return per-query averages."""
    snap = tree.stats.snapshot()
    start = time.perf_counter()
    for query in queries:
        knnta_search(tree, query)
    elapsed = time.perf_counter() - start
    delta = tree.stats.diff(snap)
    n = len(queries)
    return Measurement(
        cpu_ms=1000.0 * elapsed / n,
        node_accesses=delta.rtree_nodes / n,
        leaf_node_accesses=delta.rtree_leaf / n,
        tia_pages=delta.tia_pages / n,
    )


def measure_baseline(tree, queries):
    """Run ``queries`` through the sequential scan baseline."""
    start = time.perf_counter()
    for query in queries:
        sequential_scan(tree, query)
    elapsed = time.perf_counter() - start
    return Measurement(
        cpu_ms=1000.0 * elapsed / len(queries),
        node_accesses=0.0,
        leaf_node_accesses=0.0,
        tia_pages=0.0,
    )


def measure_collective(tree, queries):
    """Run ``queries`` as one collective batch; per-query averages."""
    snap = tree.stats.snapshot()
    start = time.perf_counter()
    CollectiveProcessor(tree).run(list(queries))
    elapsed = time.perf_counter() - start
    delta = tree.stats.diff(snap)
    n = len(queries)
    return Measurement(
        cpu_ms=1000.0 * elapsed / n,
        node_accesses=delta.rtree_nodes / n,
        leaf_node_accesses=delta.rtree_leaf / n,
        tia_pages=delta.tia_pages / n,
    )


def measure_individual(tree, queries):
    """Run ``queries`` one by one (the Section 8.4 baseline)."""
    snap = tree.stats.snapshot()
    start = time.perf_counter()
    tree.query_batch(list(queries))
    elapsed = time.perf_counter() - start
    delta = tree.stats.diff(snap)
    n = len(queries)
    return Measurement(
        cpu_ms=1000.0 * elapsed / n,
        node_accesses=delta.rtree_nodes / n,
        leaf_node_accesses=delta.rtree_leaf / n,
        tia_pages=delta.tia_pages / n,
    )


def print_series(title, x_label, x_values, series, fmt="%10.2f"):
    """Print one figure's data in the paper's rows/series layout.

    ``series`` maps a curve label (e.g. ``"TAR-tree"``) to a list of
    values aligned with ``x_values``.
    """
    print()
    print("=" * 72)
    print(title)
    print("-" * 72)
    header = "%-12s" % x_label + "".join("%12s" % str(x) for x in x_values)
    print(header)
    for label, values in series.items():
        row = "%-12s" % label + "".join(
            "%12s" % (fmt % v if v is not None else "-") for v in values
        )
        print(row)
    print("=" * 72)


def geometric_mean_ratio(winner, loser):
    """Average advantage of ``winner`` over ``loser`` across a sweep."""
    ratios = [
        l / w for w, l in zip(winner, loser) if w > 0 and l > 0
    ]
    if not ratios:
        return 1.0
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return product ** (1.0 / len(ratios))
