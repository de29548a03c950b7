"""End-to-end integration: the full life cycle of one deployment.

One scenario threaded through every public surface: generate a data set,
persist and reload it, bulk-build an index, serve queries (validated
against the scan ground truth), stream new epochs, explore weights with
the MWA, serve a collective burst, refresh placement, persist the tree
and reload it — asserting consistency at every step.
"""

import random

import pytest

from repro import POI, TARTree, TimeInterval, datasets
from repro.core.collective import CollectiveProcessor
from repro.core.knnta import knnta_search
from repro.core.mwa import minimum_weight_adjustment
from repro.core.query import KNNTAQuery
from repro.core.scan import sequential_scan
from repro.datasets.workload import generate_queries
from repro.storage.serialize import (
    load_dataset,
    load_tree,
    save_dataset,
    save_tree,
)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("lifecycle")
    data = datasets.make("GS", scale=0.05, seed=99)
    dataset_path = root / "gs.npz"
    save_dataset(data, dataset_path)
    data = load_dataset(dataset_path)

    # Index the first 70% of history; the rest arrives as a stream.
    tree = TARTree.build(data.snapshot(0.7), until_time=data.tc, bulk=True)
    return root, data, tree


def scores(results):
    return [round(r.score, 9) for r in results]


def test_lifecycle(scenario):
    root, data, tree = scenario
    tree.check_invariants()
    assert len(tree) == len(data.snapshot(0.7).effective_poi_ids())

    # --- serve queries; the scan is the ground truth ------------------
    workload = generate_queries(data.snapshot(0.7), n_queries=15, seed=1)
    for query in workload:
        assert scores(knnta_search(tree, query)) == scores(
            sequential_scan(tree, query)
        )

    # --- stream the remaining epochs ----------------------------------
    clock = tree.clock
    full_counts = data.epoch_counts(clock, list(tree.poi_ids()))
    streamed = 0
    pending = {}
    for poi_id, epochs in full_counts.items():
        for epoch, count in epochs.items():
            delta = count - tree.poi_tia(poi_id).get(epoch)
            if delta > 0:
                pending.setdefault(epoch, {})[poi_id] = delta
    for epoch in sorted(pending):
        tree.digest_epoch(epoch, pending[epoch])
        streamed += sum(pending[epoch].values())
    assert streamed > 0
    tree.check_invariants()
    for poi_id, epochs in full_counts.items():
        assert dict(tree.poi_tia(poi_id).items()) == epochs

    # --- queries after the stream still match the ground truth --------
    late_queries = generate_queries(data, n_queries=15, seed=2)
    for query in late_queries:
        assert scores(knnta_search(tree, query)) == scores(
            sequential_scan(tree, query)
        )

    # --- weight exploration -------------------------------------------
    query = late_queries[0]
    mwa = minimum_weight_adjustment(tree, query)
    if mwa.gamma_upper is not None:
        baseline = {r.poi_id for r in knnta_search(tree, query)}
        shifted = query._replace(alpha0=min(0.999, mwa.gamma_upper + 1e-5))
        changed = {r.poi_id for r in knnta_search(tree, shifted)}
        assert changed != baseline

    # --- a collective burst matches individual processing -------------
    burst = list(generate_queries(data, n_queries=40, seed=3))
    collective = CollectiveProcessor(tree).run(burst)
    individual = tree.query_batch(burst)
    for a, b in zip(collective, individual):
        assert scores(a) == scores(b)

    # --- refresh drifted placement; content is untouched --------------
    before = {pid: dict(tree.poi_tia(pid).items()) for pid in tree.poi_ids()}
    tree.refresh_aggregate_dimension()
    tree.check_invariants()
    assert {
        pid: dict(tree.poi_tia(pid).items()) for pid in tree.poi_ids()
    } == before

    # --- persist and reload; answers are identical --------------------
    tree_path = root / "tree.json"
    save_tree(tree, tree_path)
    reloaded = load_tree(tree_path)
    reloaded.check_invariants()
    for query in late_queries[:5]:
        assert scores(knnta_search(reloaded, query)) == scores(
            knnta_search(tree, query)
        )


def test_lifecycle_with_late_pois(scenario):
    """POIs crossing the effective threshold mid-stream join the index."""
    _, data, tree = scenario
    rng = random.Random(4)
    newcomers = []
    for i in range(10):
        poi = POI("new-%d" % i, rng.random() * 100, rng.random() * 100)
        history = {e: rng.randrange(1, 9) for e in range(5)}
        tree.insert_poi(poi, history)
        newcomers.append(poi)
    tree.check_invariants()
    query = KNNTAQuery(
        (newcomers[0].x, newcomers[0].y), TimeInterval(0, 35), k=5, alpha0=0.9
    )
    results = knnta_search(tree, query)
    assert scores(results) == scores(sequential_scan(tree, query))
    for poi in newcomers:
        assert tree.delete_poi(poi.poi_id)
    tree.check_invariants()
