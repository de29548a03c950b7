"""The Section 6 cost model: internal consistency and empirical accuracy."""

import math
import random

import numpy as np
import pytest

from repro import POI, TARTree, TimeInterval
from repro.core.costmodel import CostModel, boundary_corrected_disc_area
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock


@pytest.fixture(scope="module")
def model():
    return CostModel(n_pois=2000, beta=2.5, xmin=5, max_aggregate=500, capacity=36)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CostModel(0, 2.5, 5, 100, 36)
        with pytest.raises(ValueError):
            CostModel(100, 1.0, 5, 100, 36)
        with pytest.raises(ValueError):
            CostModel(100, 2.5, 200, 100, 36)
        with pytest.raises(ValueError):
            CostModel(100, 2.5, 0, 100, 36)

    def test_from_aggregates_with_explicit_fit(self):
        rng = np.random.default_rng(0)
        values = np.floor(4.5 * (1 - rng.random(3000)) ** (-1 / 1.5) + 0.5).astype(int)
        model = CostModel.from_aggregates(values, capacity=36, beta=2.5, xmin=5)
        assert model.beta == 2.5
        assert model.xmin == 5
        assert model.max_aggregate == int(values.max())

    def test_from_aggregates_rejects_empty(self):
        with pytest.raises(ValueError):
            CostModel.from_aggregates([0, 0], capacity=36)


class TestLayers:
    def test_probabilities_sum_to_at_most_one(self, model):
        assert model._probabilities.sum() <= 1.0 + 1e-9

    # The per-layer arrays hold one cell per layer x = xmin..max_aggregate.
    def test_probability_decreases_with_x(self, model):
        x = model.xmin
        assert model._probabilities[5 - x] > model._probabilities[50 - x]

    def test_counts_proportional_to_n(self):
        small = CostModel(100, 2.5, 5, 500, 36)
        large = CostModel(1000, 2.5, 5, 500, 36)
        assert large._counts[10 - 5] == pytest.approx(10 * small._counts[10 - 5])

    def test_heights(self, model):
        x = model.xmin
        assert model._heights[500 - x] == 0.0
        assert model._heights[250 - x] == pytest.approx(0.5)
        assert model._heights[5 - x] == pytest.approx(0.99)


class TestBoundaryCorrection:
    def test_zero_radius(self):
        assert boundary_corrected_disc_area(0.0) == 0.0

    def test_small_radius_close_to_disc_area(self):
        r = 0.01
        assert boundary_corrected_disc_area(r) == pytest.approx(
            math.pi * r * r, rel=0.05
        )

    def test_large_radius_saturates(self):
        assert boundary_corrected_disc_area(5.0) == 1.0

    def test_monotone(self):
        radii = np.linspace(0, 1.2, 50)
        areas = boundary_corrected_disc_area(radii)
        assert np.all(np.diff(areas) >= -1e-12)


class TestSearchRegion:
    def test_radii_grow_toward_base(self, model):
        radii = model.cross_section_radii(0.2, alpha0=0.3)
        assert radii[-1] >= radii[0]  # layer x_max (height 0) has the base

    def test_apex_cuts_off_high_layers(self, model):
        # hl = f / alpha1 small: top layers (low aggregate) get radius 0.
        radii = model.cross_section_radii(0.05, alpha0=0.5)
        assert radii[0] == 0.0
        assert radii[-1] > 0.0

    def test_expected_pois_monotone_in_f(self, model):
        values = [model.expected_pois_in_region(f, 0.3) for f in (0.05, 0.2, 0.5)]
        assert values == sorted(values)

    def test_estimate_fpk_monotone_in_k(self, model):
        fpks = [model.estimate_fpk(k, 0.3) for k in (1, 5, 10, 50, 100)]
        assert fpks == sorted(fpks)
        assert all(0 < f <= 1 for f in fpks)

    def test_estimate_fpk_inverts_expected_pois(self, model):
        fpk = model.estimate_fpk(25, 0.3)
        assert model.expected_pois_in_region(fpk, 0.3) == pytest.approx(25, rel=1e-3)

    def test_estimate_fpk_rejects_bad_k(self, model):
        with pytest.raises(ValueError):
            model.estimate_fpk(0, 0.3)


class TestBands:
    def test_bands_partition_all_layers(self, model):
        bands = model.bands()
        covered = []
        for start, end, population, extent in bands:
            covered.extend(range(start, end + 1))
            assert population > 0
            assert 0 < extent < 1
        assert covered == list(range(len(model._layers)))

    def test_top_bands_have_smaller_extents(self, model):
        # Figure 4: nodes are small among the (dense) higher layers.
        bands = model.bands()
        assert len(bands) >= 2
        assert bands[0][3] <= bands[-1][3]


class TestNodeAccesses:
    def test_monotone_in_k(self, model):
        accesses = [model.estimate_node_accesses(k=k, alpha0=0.3) for k in (1, 10, 100)]
        assert accesses == sorted(accesses)

    def test_positive_and_bounded(self, model):
        na = model.estimate_node_accesses(k=10, alpha0=0.3)
        total_leaves = model.n_pois / model.fanout
        assert 0 < na <= total_leaves

    def test_requires_k_or_fpk(self, model):
        with pytest.raises(ValueError):
            model.estimate_node_accesses()

    def test_explicit_fpk(self, model):
        na = model.estimate_node_accesses(fpk=0.3, alpha0=0.3)
        assert na > 0


class TestEmpiricalAccuracy:
    """The model should track measurements on power-law data (Figure 6)."""

    @pytest.fixture(scope="class")
    def measured_setup(self):
        rng = np.random.default_rng(42)
        n = 1500
        xmin, beta = 4, 2.4
        aggregates = np.floor(
            (xmin - 0.5) * (1 - rng.random(n)) ** (-1 / (beta - 1)) + 0.5
        ).astype(int)
        aggregates = np.minimum(aggregates, 10000)
        tree = TARTree(
            world=Rect((0.0, 0.0), (100.0, 100.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=1.0,
            tia_backend="memory",
        )
        py_rng = random.Random(7)
        for i in range(n):
            tree.insert_poi(
                POI(i, py_rng.random() * 100, py_rng.random() * 100),
                {0: int(aggregates[i])},
            )
        model = CostModel(
            n_pois=n,
            beta=beta,
            xmin=xmin,
            max_aggregate=int(aggregates.max()),
            capacity=tree.capacity,
        )
        queries = [
            KNNTAQuery(
                (py_rng.random() * 100, py_rng.random() * 100),
                TimeInterval(0, 1),
                k=10,
                alpha0=0.3,
            )
            for _ in range(60)
        ]
        return tree, model, queries

    def test_fpk_estimate_tracks_measured(self, measured_setup):
        tree, model, queries = measured_setup
        measured = []
        for query in queries:
            results = knnta_search(tree, query)
            measured.append(results[-1].score)
        mean_measured = sum(measured) / len(measured)
        estimated = model.estimate_fpk(10, 0.3)
        assert estimated == pytest.approx(mean_measured, rel=0.5)

    def test_leaf_access_estimate_tracks_measured(self, measured_setup):
        tree, model, queries = measured_setup
        leaf_counts = []
        for query in queries:
            snap = tree.stats.snapshot()
            knnta_search(tree, query)
            leaf_counts.append(tree.stats.diff(snap).rtree_leaf)
        mean_measured = sum(leaf_counts) / len(leaf_counts)
        estimated = model.estimate_node_accesses(k=10, alpha0=0.3)
        # Same order of magnitude (Figure 6's bars); the model's uniform
        # cubic-node assumptions leave a small constant-factor gap on a
        # 1,500-POI tree.
        assert mean_measured / 4 <= estimated <= mean_measured * 4
        assert estimated > 1

    def test_access_estimate_trend_matches_measured_across_k(self, measured_setup):
        tree, model, queries = measured_setup

        def measured_mean(k):
            counts = []
            for query in queries[:30]:
                snap = tree.stats.snapshot()
                knnta_search(tree, query._replace(k=k))
                counts.append(tree.stats.diff(snap).rtree_leaf)
            return sum(counts) / len(counts)

        measured = [measured_mean(k) for k in (1, 10, 100)]
        estimated = [model.estimate_node_accesses(k=k, alpha0=0.3) for k in (1, 10, 100)]
        assert measured == sorted(measured)
        assert estimated == sorted(estimated)
        # Both grow strongly with k, and the estimate stays within the
        # same order of magnitude at every k.
        assert estimated[-1] / estimated[0] > 3
        assert measured[-1] / measured[0] > 3
        for est, meas in zip(estimated, measured):
            assert meas / 5 <= est <= meas * 5
