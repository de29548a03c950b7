"""LRU buffer pool behaviour."""

from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.buffer import LRUBufferPool


def test_first_access_misses():
    pool = LRUBufferPool(4)
    assert pool.access("p1") is False
    assert pool.misses == 1
    assert pool.hits == 0


def test_second_access_hits():
    pool = LRUBufferPool(4)
    pool.access("p1")
    assert pool.access("p1") is True
    assert pool.hits == 1


def test_lru_eviction_order():
    pool = LRUBufferPool(2)
    pool.access("a")
    pool.access("b")
    pool.access("a")  # refresh a; b is now least recent
    pool.access("c")  # evicts b
    assert "b" not in pool
    assert pool.access("a") is True
    assert pool.access("b") is False


def test_zero_capacity_never_hits():
    pool = LRUBufferPool(0)
    for _ in range(5):
        assert pool.access("same") is False
    assert pool.misses == 5
    assert len(pool) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LRUBufferPool(-1)


def test_clear_keeps_counters():
    pool = LRUBufferPool(4)
    pool.access("a")
    pool.access("a")
    pool.clear()
    assert len(pool) == 0
    assert pool.hits == 1
    assert pool.misses == 1


def test_resident_set_never_exceeds_capacity():
    pool = LRUBufferPool(3)
    for i in range(50):
        pool.access(i)
        assert len(pool) <= 3


@given(st.lists(st.integers(0, 9), max_size=200), st.integers(1, 5))
def test_property_hits_plus_misses_equals_accesses(accesses, capacity):
    pool = LRUBufferPool(capacity)
    for page in accesses:
        pool.access(page)
    assert pool.hits + pool.misses == len(accesses)
    assert len(pool) <= capacity


@given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_property_working_set_within_capacity_always_hits(accesses):
    # With capacity >= distinct pages, only the first touch of each page
    # can miss.
    pool = LRUBufferPool(4)
    for page in accesses:
        pool.access(page)
    assert pool.misses == len(set(accesses))


def test_eviction_counter_counts_only_pressure():
    pool = LRUBufferPool(2)
    pool.access("a")
    pool.access("b")
    assert pool.evictions == 0
    pool.access("c")  # evicts a
    assert pool.evictions == 1
    pool.clear()  # deliberate: not an eviction
    assert pool.evictions == 1


class _ModelPool:
    """Reference model: the documented contract, written the naive way."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pages = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def access(self, page):
        if self.capacity == 0:
            self.misses += 1
            return False
        if page in self.pages:
            self.pages.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        self.pages[page] = True
        while len(self.pages) > self.capacity:
            self.pages.popitem(last=False)
            self.evictions += 1
        return False

    def clear(self):
        dropped = len(self.pages)
        self.pages.clear()
        return dropped


_OPERATIONS = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 6)),
    st.tuples(st.just("clear"), st.none()),
)


@given(st.integers(0, 4), st.lists(_OPERATIONS, max_size=300))
def test_property_matches_reference_model(capacity, operations):
    # Drive the pool and an independently written model through the same
    # interleaving of access/clear; every observable (return values,
    # counters, residency) must agree at every step, so the LRU order
    # shows in which page each later eviction drops.
    pool = LRUBufferPool(capacity)
    model = _ModelPool(capacity)
    for name, argument in operations:
        if name == "access":
            assert pool.access(argument) == model.access(argument)
        else:
            assert pool.clear() == model.clear()
        assert [page in pool for page in range(7)] == [
            page in model.pages for page in range(7)
        ]
        assert (pool.hits, pool.misses, pool.evictions) == (
            model.hits,
            model.misses,
            model.evictions,
        )
        assert len(pool) == len(model.pages)
