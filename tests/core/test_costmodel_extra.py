"""Additional cost-model coverage: partial fits, extremes, band shapes."""

import numpy as np
import pytest

from repro.core.costmodel import CostModel


class TestFromAggregatesPartialArguments:
    @pytest.fixture(scope="class")
    def aggregates(self):
        rng = np.random.default_rng(3)
        return np.floor(
            4.5 * (1 - rng.random(4000)) ** (-1 / 1.6) + 0.5
        ).astype(int)

    def test_beta_only_fixed(self, aggregates):
        model = CostModel.from_aggregates(aggregates, capacity=36, beta=2.6)
        assert model.beta == 2.6
        assert model.xmin >= 1  # xmin still estimated

    def test_xmin_only_fixed(self, aggregates):
        model = CostModel.from_aggregates(aggregates, capacity=36, xmin=5)
        assert model.xmin == 5
        assert 1.0 < model.beta < 8.0

    def test_xmin_clamped_to_max(self, aggregates):
        model = CostModel.from_aggregates(
            [3, 4, 5, 6], capacity=36, beta=2.5, xmin=100
        )
        assert model.xmin == 6

    def test_fanout_override(self, aggregates):
        default = CostModel.from_aggregates(aggregates, capacity=36, beta=2.6, xmin=5)
        packed = CostModel.from_aggregates(
            aggregates, capacity=36, beta=2.6, xmin=5, fanout_ratio=1.0
        )
        assert packed.fanout > default.fanout
        # Fuller nodes -> fewer node accesses for the same region.
        assert packed.estimate_node_accesses(k=10, alpha0=0.3) <= (
            default.estimate_node_accesses(k=10, alpha0=0.3)
        )


class TestExtremes:
    @pytest.fixture(scope="class")
    def model(self):
        return CostModel(n_pois=5000, beta=2.4, xmin=3, max_aggregate=800, capacity=36)

    def test_k_equals_population_saturates(self, model):
        fpk = model.estimate_fpk(10 ** 9, alpha0=0.3)
        assert fpk == 1.0

    def test_alpha_extremes_are_finite(self, model):
        for alpha0 in (0.01, 0.99):
            fpk = model.estimate_fpk(10, alpha0)
            assert 0.0 < fpk <= 1.0
            na = model.estimate_node_accesses(k=10, alpha0=alpha0)
            assert 0.0 <= na <= model.n_pois / model.fanout

    def test_single_layer_model(self):
        # Degenerate case: xmin == max_aggregate, everything on one layer.
        model = CostModel(100, 2.5, 7, 7, capacity=36)
        assert list(model._heights) == [0.0]
        fpk = model.estimate_fpk(5, 0.3)
        assert 0.0 < fpk <= 1.0
        assert model.estimate_node_accesses(k=5, alpha0=0.3) >= 0.0

    def test_fixed_fpk_estimates_stay_bounded_across_alpha(self, model):
        # At a fixed f(pk) the cone trades base radius against height as
        # alpha0 moves (no monotone direction), but the estimate must
        # always stay within the physical bounds.
        leaf_count = model.n_pois / model.fanout
        for alpha0 in (0.1, 0.3, 0.5, 0.7, 0.9):
            estimate = model.estimate_node_accesses(fpk=0.3, alpha0=alpha0)
            assert 0.0 <= estimate <= leaf_count


class TestBandShapes:
    def test_heavier_tail_means_more_bands(self):
        light = CostModel(3000, 3.2, 5, 600, capacity=36)
        heavy = CostModel(3000, 2.1, 5, 600, capacity=36)
        # A heavier tail spreads POIs across more layers, so the cubic
        # node condition closes bands more often lower down.
        assert len(heavy.bands()) >= len(light.bands()) >= 1

    def test_band_population_conserved(self):
        model = CostModel(2000, 2.5, 4, 500, capacity=36)
        total = sum(population for _, _, population, _ in model.bands())
        assert total == pytest.approx(float(np.sum(model._counts)))
