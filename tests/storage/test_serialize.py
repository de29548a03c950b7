"""Persistence round trips for data sets and trees."""

import random

import numpy as np
import pytest

from repro import POI, TARTree, TimeInterval, datasets
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.storage.serialize import (
    load_dataset,
    load_tree,
    save_dataset,
    save_tree,
)
from repro.temporal.epochs import EpochClock, VariedEpochClock


@pytest.fixture()
def dataset():
    return datasets.make("LA", scale=0.01, seed=5)


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, dataset, tmp_path):
        path = tmp_path / "la.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.name == dataset.name
        assert loaded.world == dataset.world
        assert loaded.t0 == dataset.t0 and loaded.tc == dataset.tc
        assert loaded.threshold == dataset.threshold
        assert loaded.positions == dataset.positions
        for poi_id, times in dataset.checkin_times.items():
            assert np.array_equal(loaded.checkin_times[poi_id], times)

    def test_loaded_dataset_builds_identical_tree(self, dataset, tmp_path):
        path = tmp_path / "la.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        original_tree = TARTree.build(dataset)
        reloaded_tree = TARTree.build(loaded)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 200), k=10)
        assert [r.poi_id for r in knnta_search(original_tree, query)] == [
            r.poi_id for r in knnta_search(reloaded_tree, query)
        ]


def build_tree(strategy="integral3d", clock=None, **kwargs):
    rng = random.Random(9)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=clock or EpochClock(0.0, 1.0),
        current_time=12.0,
        strategy=strategy,
        tia_backend="memory",
        **kwargs,
    )
    for i in range(150):
        history = {
            e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
        }
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


class TestTreeRoundTrip:
    @pytest.mark.parametrize("strategy", ["integral3d", "spatial", "aggregate"])
    def test_queries_identical_after_reload(self, strategy, tmp_path):
        tree = build_tree(strategy)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        reloaded = load_tree(path)
        reloaded.check_invariants()
        assert len(reloaded) == len(tree)
        assert reloaded.strategy.name == tree.strategy.name
        for seed in range(3):
            rng = random.Random(seed)
            query = KNNTAQuery(
                (rng.random() * 100, rng.random() * 100),
                TimeInterval(0, 12),
                k=10,
                alpha0=0.3,
            )
            a = [(r.poi_id, round(r.score, 10)) for r in knnta_search(tree, query)]
            b = [(r.poi_id, round(r.score, 10)) for r in knnta_search(reloaded, query)]
            assert a == b

    def test_configuration_preserved(self, tmp_path):
        tree = build_tree(node_size=512, aggregate_kind="max")
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        reloaded = load_tree(path)
        assert reloaded.node_size == 512
        assert reloaded.aggregate_kind.value == "max"
        assert reloaded.clock.epoch_length == tree.clock.epoch_length
        assert reloaded.current_time == tree.current_time

    def test_varied_clock_preserved(self, tmp_path):
        clock = VariedEpochClock.exponential(0.0, 1.0, count=6)
        tree = build_tree(clock=clock)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        reloaded = load_tree(path)
        assert isinstance(reloaded.clock, VariedEpochClock)
        assert reloaded.clock.boundaries == clock.boundaries

    def test_overrides_apply(self, tmp_path):
        tree = build_tree()
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        reloaded = load_tree(path, tia_backend="paged", tia_buffer_slots=0)
        assert reloaded.tia_backend == "paged"
        assert len(reloaded) == len(tree)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", "spatial"),
            ("node_size", 2048),
            ("world", Rect((0.0, 0.0), (200.0, 200.0))),
            ("clock", EpochClock(0.0, 2.0)),
            ("current_time", 99.0),
            ("aggregate_kind", "max"),
            ("min_fill_ratio", 0.2),
            ("reinsert_ratio", 0.1),
        ],
    )
    def test_layout_fields_cannot_be_overridden(self, field, value, tmp_path):
        # The saved nodes fix these; an override would contradict them.
        path = tmp_path / "tree.json"
        save_tree(build_tree(), path)
        with pytest.raises(ValueError, match="cannot override '%s'" % field):
            load_tree(path, **{field: value})

    def test_histories_preserved(self, tmp_path):
        tree = build_tree()
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        reloaded = load_tree(path)
        for poi_id in tree.poi_ids():
            assert dict(reloaded.poi_tia(poi_id).items()) == dict(
                tree.poi_tia(poi_id).items()
            )

    def test_unserialisable_poi_id_rejected(self, tmp_path):
        tree = TARTree(
            world=Rect((0.0, 0.0), (1.0, 1.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=1.0,
            tia_backend="memory",
        )
        tree.insert_poi(POI(("tuple", "id"), 0.5, 0.5))
        with pytest.raises(TypeError):
            save_tree(tree, tmp_path / "bad.json")

    def test_version_check(self, tmp_path):
        tree = build_tree()
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_tree(path)
