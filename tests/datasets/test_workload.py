"""Query workload generation (Section 8 setup)."""

import pytest

from repro.datasets.generator import generate
from repro.datasets.workload import (
    DEFAULT_INTERVAL_CHOICES,
    QueryWorkload,
    generate_queries,
)


@pytest.fixture(scope="module")
def dataset():
    return generate("wl", 500, 4000, 365, 2.5, 10, seed=1)


class TestGeneration:
    def test_count_and_defaults(self, dataset):
        workload = generate_queries(dataset, n_queries=100, seed=0)
        assert len(workload) == 100
        for query in workload:
            assert query.k == 10
            assert query.alpha0 == 0.3

    def test_interval_lengths_are_powers_of_two(self, dataset):
        workload = generate_queries(dataset, n_queries=200, seed=1)
        # Lengths beyond the data set span are clipped to it (512 > 365).
        allowed = [min(float(c), dataset.span_days) for c in DEFAULT_INTERVAL_CHOICES]
        for query in workload:
            length = query.interval.end - query.interval.start
            # Float placement arithmetic: compare up to rounding error.
            assert min(abs(length - c) for c in allowed) < 1e-6

    def test_intervals_inside_span(self, dataset):
        workload = generate_queries(dataset, n_queries=200, seed=2)
        for query in workload:
            assert query.interval.start >= dataset.t0
            assert query.interval.end <= dataset.tc + 1e-9

    def test_points_sampled_from_pois(self, dataset):
        locations = set(dataset.positions.values())
        workload = generate_queries(dataset, n_queries=50, seed=3)
        for query in workload:
            assert query.point in locations

    def test_end_anchor(self, dataset):
        workload = generate_queries(dataset, n_queries=50, anchor="end", seed=4)
        for query in workload:
            assert query.interval.end == pytest.approx(dataset.tc)

    def test_lengths_clipped_to_span(self):
        short = generate("short", 100, 500, 10, 2.5, 5, seed=2)
        workload = generate_queries(short, n_queries=50, seed=5)
        for query in workload:
            assert (query.interval.end - query.interval.start) <= short.span_days

    def test_reproducible(self, dataset):
        a = generate_queries(dataset, n_queries=30, seed=6)
        b = generate_queries(dataset, n_queries=30, seed=6)
        assert list(a) == list(b)

    def test_invalid_parameters(self, dataset):
        with pytest.raises(ValueError):
            generate_queries(dataset, n_queries=0)
        with pytest.raises(ValueError):
            generate_queries(dataset, anchor="middle")


class TestWorkloadContainer:
    def test_indexing_and_iteration(self, dataset):
        workload = generate_queries(dataset, n_queries=10, seed=7)
        assert workload[0] in list(workload)

    def test_with_params(self, dataset):
        workload = generate_queries(dataset, n_queries=10, seed=8)
        adjusted = workload.with_params(k=50, alpha0=0.9)
        assert all(q.k == 50 and q.alpha0 == 0.9 for q in adjusted)
        # Points and intervals are preserved.
        for original, changed in zip(workload, adjusted):
            assert original.point == changed.point
            assert original.interval == changed.interval

    def test_with_params_partial(self, dataset):
        workload = generate_queries(dataset, n_queries=5, seed=9)
        adjusted = workload.with_params(k=3)
        assert all(q.k == 3 and q.alpha0 == 0.3 for q in adjusted)
