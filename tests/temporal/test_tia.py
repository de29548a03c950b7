"""TIA backends: in-memory reference semantics, paged B+-tree equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock, TimeInterval
from repro.temporal.records import TemporalRecord
from repro.temporal.tia import (
    IntervalSemantics,
    MemoryTIA,
    PagedTIA,
    make_tia_factory,
)


@pytest.fixture(params=["memory", "paged"])
def tia(request):
    if request.param == "memory":
        return MemoryTIA()
    return PagedTIA(stats=AccessStats(), page_size=64, buffer_slots=4)


class TestCommonBehaviour:
    def test_empty(self, tia):
        assert tia.get(0) == 0
        assert len(tia) == 0
        assert tia.total() == 0
        assert tia.range_sum(0, 100) == 0

    def test_set_get(self, tia):
        tia.set(3, 7)
        assert tia.get(3) == 7
        assert tia.get(2) == 0
        assert len(tia) == 1

    def test_overwrite(self, tia):
        tia.set(3, 7)
        tia.set(3, 2)
        assert tia.get(3) == 2
        assert len(tia) == 1

    def test_set_zero_removes(self, tia):
        tia.set(3, 7)
        tia.set(3, 0)
        assert tia.get(3) == 0
        assert len(tia) == 0

    def test_negative_rejected(self, tia):
        with pytest.raises(ValueError):
            tia.set(0, -1)

    def test_add_accumulates(self, tia):
        tia.add(5, 2)
        tia.add(5, 3)
        assert tia.get(5) == 5

    def test_raise_to(self, tia):
        assert tia.raise_to(1, 4) is True
        assert tia.raise_to(1, 3) is False
        assert tia.raise_to(1, 9) is True
        assert tia.get(1) == 9
        assert tia.raise_to(2, 0) is False

    def test_range_sum(self, tia):
        for epoch, value in [(0, 1), (2, 5), (5, 2), (9, 7)]:
            tia.set(epoch, value)
        assert tia.range_sum(0, 9) == 15
        assert tia.range_sum(1, 5) == 7
        assert tia.range_sum(3, 4) == 0
        assert tia.range_sum(9, 9) == 7
        assert tia.range_sum(5, 2) == 0  # inverted range is empty

    def test_items_sorted(self, tia):
        for epoch in [9, 1, 4, 0]:
            tia.set(epoch, epoch + 1)
        assert list(tia.items()) == [(0, 1), (1, 2), (4, 5), (9, 10)]

    def test_replace_all_drops_zeros(self, tia):
        tia.set(1, 5)
        tia.replace_all({0: 3, 2: 0, 7: 4})
        assert list(tia.items()) == [(0, 3), (7, 4)]

    def test_total_and_mean_rate(self, tia):
        tia.replace_all({0: 2, 1: 4})
        assert tia.total() == 6
        assert tia.mean_rate(3) == pytest.approx(2.0)
        assert tia.mean_rate(0) == 0.0

    def test_aggregate_intersects_vs_contained(self, tia):
        clock = EpochClock(0.0, 7.0)
        tia.replace_all({0: 1, 1: 2, 2: 4})
        interval = TimeInterval(3.0, 17.0)  # spans epochs 0..2 partially
        assert tia.aggregate(clock, interval, IntervalSemantics.INTERSECTS) == 7
        assert tia.aggregate(clock, interval, IntervalSemantics.CONTAINED) == 2

    def test_records(self, tia):
        clock = EpochClock(0.0, 7.0)
        tia.replace_all({0: 3, 2: 1})
        assert tia.records(clock) == [
            TemporalRecord(0.0, 7.0, 3),
            TemporalRecord(14.0, 21.0, 1),
        ]


class TestPagedSpecifics:
    def test_splits_keep_order(self):
        tia = PagedTIA(page_size=64, buffer_slots=4)
        for epoch in range(200):
            tia.set(epoch, epoch % 7 + 1)
        assert len(tia) == 200
        assert list(tia.items()) == [(e, e % 7 + 1) for e in range(200)]
        assert tia.page_count() > 1

    def test_reverse_insert_order(self):
        tia = PagedTIA(page_size=64, buffer_slots=4)
        for epoch in reversed(range(120)):
            tia.set(epoch, 1)
        assert list(tia.items()) == [(e, 1) for e in range(120)]
        assert tia.range_sum(10, 19) == 10

    def test_page_access_counting(self):
        stats = AccessStats()
        tia = PagedTIA(stats=stats, page_size=64, buffer_slots=0)
        for epoch in range(100):
            tia.set(epoch, 1)
        before = stats.tia_pages
        tia.range_sum(0, 99)
        assert stats.tia_pages > before  # unbuffered scan reads pages

    def test_buffer_reduces_misses(self):
        # The working set (about 7 pages for 20 epochs at 64-byte pages)
        # must fit in the buffer, otherwise a repeated sequential scan is
        # the classic LRU worst case and every access misses.
        def run(slots):
            stats = AccessStats()
            tia = PagedTIA(stats=stats, page_size=64, buffer_slots=slots)
            tia.replace_all({e: 1 for e in range(20)})
            stats.reset()
            for _ in range(5):
                tia.range_sum(0, 19)
            return stats.tia_pages

        assert run(10) < run(0)

    def test_sequential_scan_larger_than_buffer_thrashes(self):
        # LRU gives zero hits when the scanned page chain exceeds the
        # buffer — the realistic behaviour the paper's 10-slot TIAs face
        # on long intervals.
        stats = AccessStats()
        tia = PagedTIA(stats=stats, page_size=64, buffer_slots=10)
        tia.replace_all({e: 1 for e in range(100)})
        tia.buffer.clear()
        stats.reset()
        tia.range_sum(0, 99)
        first_pass = stats.tia_pages
        tia.range_sum(0, 99)
        assert stats.tia_pages == 2 * first_pass

    def test_bulk_load_equals_incremental(self):
        incremental = PagedTIA(page_size=64, buffer_slots=4)
        bulk = PagedTIA(page_size=64, buffer_slots=4)
        data = {e * 3: e + 1 for e in range(150)}
        for epoch, value in data.items():
            incremental.set(epoch, value)
        bulk.replace_all(data)
        assert list(incremental.items()) == list(bulk.items())
        assert incremental.range_sum(30, 300) == bulk.range_sum(30, 300)


class TestFactory:
    def test_memory(self):
        assert isinstance(make_tia_factory("memory")(), MemoryTIA)

    def test_paged_shares_stats(self):
        stats = AccessStats()
        factory = make_tia_factory("paged", stats=stats, buffer_slots=0)
        tia = factory()
        tia.set(0, 1)
        tia.get(0)
        assert stats.tia_pages > 0

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_tia_factory("nope")


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(0, 300), st.integers(1, 50), max_size=60),
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=10
    ),
)
def test_property_paged_equals_memory(data, ranges):
    memory = MemoryTIA()
    paged = PagedTIA(page_size=64, buffer_slots=3)
    for epoch, value in data.items():
        memory.set(epoch, value)
        paged.set(epoch, value)
    assert list(memory.items()) == list(paged.items())
    for a, b in ranges:
        lo, hi = min(a, b), max(a, b)
        assert memory.range_sum(lo, hi) == paged.range_sum(lo, hi)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "add", "raise"]),
            st.integers(0, 60),
            st.integers(0, 9),
        ),
        max_size=80,
    )
)
def test_property_paged_equals_memory_under_mutation(operations):
    memory = MemoryTIA()
    paged = PagedTIA(page_size=64, buffer_slots=2)
    for op, epoch, value in operations:
        if op == "set":
            memory.set(epoch, value)
            paged.set(epoch, value)
        elif op == "add":
            memory.add(epoch, value)
            paged.add(epoch, value)
        else:
            memory.raise_to(epoch, value)
            paged.raise_to(epoch, value)
    assert list(memory.items()) == list(paged.items())
    assert memory.total() == paged.total()
