"""The fault injector: determinism, schedules, storage wrappers."""

import random

import pytest

from repro import POI, TARTree
from repro.reliability.faults import (
    FatalFaultError,
    FaultInjector,
    FaultyTIA,
    TransientIOError,
    constant,
    decaying,
    first_n,
    flip_bit,
    inject_tree_faults,
    torn_write,
    truncate_file,
)
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import MemoryTIA


class TestSchedules:
    def test_constant_rate_validated(self):
        with pytest.raises(ValueError):
            constant(1.5)

    def test_first_n_fires_then_stops(self):
        schedule = first_n(3)
        assert [schedule(i) for i in range(5)] == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_decaying_halves(self):
        schedule = decaying(0.8, half_life=2)
        assert schedule(0) == pytest.approx(0.8)
        assert schedule(2) == pytest.approx(0.4)
        assert schedule(4) == pytest.approx(0.2)

    def test_decaying_needs_positive_half_life(self):
        with pytest.raises(ValueError):
            decaying(0.5, half_life=0)


class TestFaultInjector:
    def test_unarmed_site_never_fires(self):
        injector = FaultInjector(seed=1)
        assert not any(injector.fires("tia") for _ in range(100))

    def test_deterministic_under_seed(self):
        a = FaultInjector(seed=42, rates={"tia": 0.3})
        b = FaultInjector(seed=42, rates={"tia": 0.3})
        assert [a.fires("tia") for _ in range(200)] == [
            b.fires("tia") for _ in range(200)
        ]

    def test_different_seeds_diverge(self):
        a = FaultInjector(seed=1, rates={"tia": 0.5})
        b = FaultInjector(seed=2, rates={"tia": 0.5})
        assert [a.fires("tia") for _ in range(64)] != [
            b.fires("tia") for _ in range(64)
        ]

    def test_check_raises_and_counts(self):
        injector = FaultInjector(seed=0, rates={"io": 1.0})
        with pytest.raises(TransientIOError):
            injector.check("io")
        assert injector.injected("io") == 1
        assert injector.attempts("io") == 1

    def test_rate_roughly_respected(self):
        injector = FaultInjector(seed=7, rates={"tia": 0.1})
        fired = sum(injector.fires("tia") for _ in range(5000))
        assert 350 < fired < 650  # ~10% of 5000

    def test_disarm(self):
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        injector.disarm("tia")
        injector.check("tia")  # no raise

    def test_configure_requires_exactly_one_spec(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.configure("tia")
        with pytest.raises(ValueError):
            injector.configure("tia", rate=0.1, schedule=constant(0.1))

    def test_fatal_kind_raises_non_io_error(self):
        # FatalFaultError is deliberately not an IOError: retry loops
        # keyed on transient I/O must not swallow a dead-shard fault.
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.query", schedule=constant(1.0), kind="fatal")
        with pytest.raises(FatalFaultError):
            injector.check("shard.0.query")
        assert not isinstance(FatalFaultError("x"), IOError)
        assert injector.injected("shard.0.query") == 1

    def test_latency_kind_stalls_via_the_injected_sleep(self):
        stalls = []
        injector = FaultInjector(seed=0, sleep=stalls.append)
        injector.configure(
            "shard.1.query", schedule=constant(1.0), kind="latency", delay=0.4
        )
        injector.check("shard.1.query")  # stalls, does not raise
        assert stalls == [0.4]
        assert injector.injected("shard.1.query") == 1

    def test_unknown_kind_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.configure("tia", rate=0.5, kind="gamma-ray")

    def test_latency_requires_positive_delay(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.configure("tia", rate=0.5, kind="latency")
        with pytest.raises(ValueError):
            injector.configure("tia", rate=0.5, kind="latency", delay=0.0)

    def test_open_wrapper_faults_then_delegates(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("hello")
        injector = FaultInjector(seed=0)
        injector.configure("io", schedule=first_n(1))
        with pytest.raises(TransientIOError):
            injector.open(path)
        with injector.open(path) as handle:
            assert handle.read() == "hello"


class TestFaultyTIA:
    def make(self, injector, fault_writes=False):
        inner = MemoryTIA()
        inner.replace_all({0: 3, 2: 5})
        return FaultyTIA(inner, injector, fault_writes=fault_writes)

    def test_reads_fault(self):
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        tia = self.make(injector)
        for operation in (
            lambda: tia.get(0),
            lambda: tia.range_sum(0, 2),
            lambda: tia.range_max(0, 2),
        ):
            with pytest.raises(TransientIOError):
                operation()

    def test_writes_clean_by_default(self):
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        tia = self.make(injector)
        tia.set(4, 7)
        tia.add(4, 1)
        tia.raise_to(4, 10)
        assert dict(tia.items())[4] == 10

    def test_writes_fault_when_enabled(self):
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        tia = self.make(injector, fault_writes=True)
        with pytest.raises(TransientIOError):
            tia.set(4, 7)

    def test_items_and_len_never_fault(self):
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        tia = self.make(injector)
        assert dict(tia.items()) == {0: 3, 2: 5}
        assert len(tia) == 2

    def test_delegates_results(self):
        injector = FaultInjector(seed=0)  # unarmed: never faults
        tia = self.make(injector)
        assert tia.get(2) == 5
        assert tia.range_sum(0, 2) == 8
        assert tia.total() == 8


def small_tree():
    rng = random.Random(3)
    tree = TARTree(
        world=Rect((0.0, 0.0), (10.0, 10.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=8.0,
        tia_backend="memory",
    )
    for i in range(60):
        history = {e: rng.randrange(1, 6) for e in range(8) if rng.random() < 0.5}
        tree.insert_poi(POI(i, rng.random() * 10, rng.random() * 10), history)
    return tree


class TestInjectTreeFaults:
    def test_preserves_invariants_and_identity(self):
        tree = small_tree()
        injector = FaultInjector(seed=0)  # unarmed
        inject_tree_faults(tree, injector)
        tree.check_invariants()
        for poi_id in tree.poi_ids():
            assert isinstance(tree.poi_tia(poi_id), FaultyTIA)

    def test_future_tias_are_wrapped(self):
        tree = small_tree()
        inject_tree_faults(tree, FaultInjector(seed=0))
        tree.insert_poi(POI("new", 5.0, 5.0), {0: 2})
        assert isinstance(tree.poi_tia("new"), FaultyTIA)
        tree.check_invariants()

    def test_idempotent(self):
        tree = small_tree()
        injector = FaultInjector(seed=0)
        inject_tree_faults(tree, injector)
        inject_tree_faults(tree, injector)
        tia = tree.poi_tia(0)
        assert isinstance(tia, FaultyTIA)
        assert not isinstance(tia.inner, FaultyTIA)

    def test_armed_injector_faults_queries(self):
        from repro.core.query import KNNTAQuery
        from repro.temporal.epochs import TimeInterval

        tree = small_tree()
        injector = FaultInjector(seed=0, rates={"tia": 1.0})
        inject_tree_faults(tree, injector)
        query = KNNTAQuery((5.0, 5.0), TimeInterval(0.0, 8.0), k=3)
        from repro.core.knnta import knnta_search

        with pytest.raises(TransientIOError):
            knnta_search(tree, query)
        assert injector.injected("tia") > 0


class TestFileMutators:
    def test_flip_bit_changes_exactly_one_bit(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(bytes(range(16)))
        flipped = flip_bit(path, bit_index=13)
        data = path.read_bytes()
        assert flipped == 13
        assert data[1] == 1 ^ (1 << 5)
        assert data[0] == 0 and data[2:] == bytes(range(2, 16))

    def test_flip_bit_rejects_empty_and_out_of_range(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            flip_bit(empty)
        short = tmp_path / "short"
        short.write_bytes(b"x")
        with pytest.raises(ValueError):
            flip_bit(short, bit_index=800)

    def test_truncate_file(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"0123456789")
        assert truncate_file(path, keep_fraction=0.4) == 4
        assert path.read_bytes() == b"0123"

    def test_torn_write(self, tmp_path):
        path = tmp_path / "blob"
        kept = torn_write(path, "abcdefgh", fraction=0.25)
        assert kept == 2
        assert path.read_bytes() == b"ab"
