"""The runtime lock-order witness (repro.devtools.watchdog)."""

import threading

import pytest

from repro.devtools import LockOrderViolation, LockOrderWatchdog
from repro.devtools.lockmodel import (
    ADVANCE_GATE,
    COUNTER,
    REGISTRY,
    SERVICE_RW,
)
from repro.devtools.watchdog import (
    MonitoredLock,
    active,
    disable,
    enable,
    iter_rank_violations,
    monitored_lock,
    monitored_rlock,
)


@pytest.fixture
def watchdog(monkeypatch):
    """A fresh enabled watchdog, with the prior state restored after.

    A fresh instance even when ``REPRO_LOCK_WATCHDOG=1`` already holds a
    process-wide watchdog: tests here trigger violations on purpose, and
    those witnessed edges must not leak into later tests' assertions.
    """
    import repro.devtools.watchdog as watchdog_module

    monkeypatch.setattr(watchdog_module, "_ACTIVE", None)
    yield enable()


class TestWatchdogStacks:
    def test_descending_acquisitions_pass_and_are_witnessed(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(REGISTRY)
        watchdog.note_acquire(COUNTER)
        assert watchdog.held() == (REGISTRY, COUNTER)
        watchdog.note_release(COUNTER)
        watchdog.note_release(REGISTRY)
        assert watchdog.held() == ()
        assert watchdog.witnessed_edges() == [(REGISTRY, COUNTER)]
        assert watchdog.violations() == 0

    def test_rank_ascent_raises_before_blocking(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(COUNTER)
        with pytest.raises(LockOrderViolation, match="strictly descending"):
            watchdog.note_acquire(REGISTRY)
        assert watchdog.violations() == 1

    def test_non_reentrant_reacquisition_raises(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(COUNTER)
        with pytest.raises(LockOrderViolation, match="non-reentrant"):
            watchdog.note_acquire(COUNTER)

    def test_reentrant_reacquisition_is_fine(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(REGISTRY)
        watchdog.note_acquire(REGISTRY)
        assert watchdog.held() == (REGISTRY, REGISTRY)

    def test_release_pops_the_most_recent_acquisition(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(REGISTRY)
        watchdog.note_acquire(REGISTRY)
        watchdog.note_release(REGISTRY)
        assert watchdog.held() == (REGISTRY,)
        watchdog.note_release("never-acquired")  # no-op, no raise
        assert watchdog.held() == (REGISTRY,)

    def test_stacks_are_thread_local(self):
        watchdog = LockOrderWatchdog()
        watchdog.note_acquire(COUNTER)
        seen = []

        def other():
            seen.append(watchdog.held())
            # COUNTER is held by the *other* thread: no ascent here.
            watchdog.note_acquire(REGISTRY)
            seen.append(watchdog.held())

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        assert seen == [(), (REGISTRY,)]
        assert watchdog.held() == (COUNTER,)


class TestMonitoredFactories:
    def test_factories_return_plain_locks_when_off(self):
        if active() is not None:
            pytest.skip("REPRO_LOCK_WATCHDOG is set for this run")
        lock = monitored_lock(COUNTER)
        rlock = monitored_rlock(REGISTRY)
        assert not isinstance(lock, MonitoredLock)
        assert not isinstance(rlock, MonitoredLock)
        with lock:
            pass
        with rlock:
            pass

    def test_factories_return_monitored_locks_when_on(self, watchdog):
        lock = monitored_lock(COUNTER)
        assert isinstance(lock, MonitoredLock)
        with lock:
            assert watchdog.held() == (COUNTER,)
        assert watchdog.held() == ()

    def test_monitored_nesting_raises_on_ascent(self, watchdog):
        counter = monitored_lock(COUNTER)
        registry = monitored_rlock(REGISTRY)
        with counter:
            with pytest.raises(LockOrderViolation):
                registry.acquire()
        # The failed acquisition left no residue on the stack.
        assert watchdog.held() == ()

    def test_failed_nonblocking_acquire_is_unwound(self, watchdog):
        lock = monitored_lock(COUNTER)
        lock.acquire()
        holder = []

        def contend():
            holder.append(lock.acquire(blocking=False))

        worker = threading.Thread(target=contend)
        worker.start()
        worker.join()
        assert holder == [False]
        lock.release()
        assert watchdog.held() == ()


class TestRankViolationHelper:
    def test_ascending_and_self_edges_are_flagged(self):
        edges = [
            (REGISTRY, COUNTER),        # descending: fine
            (COUNTER, REGISTRY),        # ascending: flagged
            (COUNTER, COUNTER),         # non-reentrant self edge: flagged
            (REGISTRY, REGISTRY),       # reentrant self edge: fine
            ("unknown", COUNTER),       # undeclared: ignored here
        ]
        assert list(iter_rank_violations(edges)) == [
            (COUNTER, REGISTRY),
            (COUNTER, COUNTER),
        ]


class TestServiceUnderTheWatchdog:
    def test_subscription_workload_witnesses_only_descending_edges(
        self, watchdog
    ):
        # The cross-validation: drive a real digest/subscribe workload
        # with every instrumented lock reporting, then assert no
        # witnessed nesting ascends the declared hierarchy.
        from repro.service import QueryService

        from tests.service.conftest import build_tree

        tree = build_tree(pois=40, seed=7)
        pushed = []
        with QueryService(tree) as service:
            sub, _ = service.subscribe(
                (10.0, 10.0), 3, k=5, sink=pushed.append
            )
            ids = sorted(tree.poi_ids())[:5]
            for step in range(3):
                epoch = tree.clock.epoch_of(tree.current_time)
                service.digest(epoch, {poi_id: 2 + step for poi_id in ids})
            service.unsubscribe(sub)
        edges = watchdog.witnessed_edges()
        assert edges, "the workload should nest at least one lock pair"
        assert list(iter_rank_violations(edges)) == []
        assert watchdog.violations() == 0
        names = {name for edge in edges for name in edge}
        assert ADVANCE_GATE in names or SERVICE_RW in names
