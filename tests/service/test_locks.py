"""ReadWriteLock semantics: sharing, exclusion, writer preference."""

import sys
import threading
import time

import pytest

from repro.service.locks import ReadWriteLock


@pytest.mark.timeout(60)
def test_readers_share():
    lock = ReadWriteLock()
    entered = []
    barrier = threading.Barrier(3, timeout=10)

    def reader():
        with lock.read_locked():
            entered.append(1)
            barrier.wait()  # all three must be inside simultaneously

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert len(entered) == 3


@pytest.mark.timeout(60)
def test_writer_excludes_readers_and_writers():
    lock = ReadWriteLock()
    assert lock.acquire_write(timeout=1)
    assert not lock.acquire_read(timeout=0.05)
    assert not lock.acquire_write(timeout=0.05)
    lock.release_write()
    assert lock.acquire_read(timeout=1)
    lock.release_read()


@pytest.mark.timeout(60)
def test_waiting_writer_blocks_new_readers():
    lock = ReadWriteLock()
    lock.acquire_read()
    writer_started = threading.Event()
    writer_done = threading.Event()

    def writer():
        writer_started.set()
        lock.acquire_write()
        lock.release_write()
        writer_done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    writer_started.wait(5)
    # Give the writer time to register as waiting, then try to read:
    # write preference must turn us away while it queues.
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        if lock._writers_waiting:
            break
        time.sleep(0.005)
    assert not lock.acquire_read(timeout=0.05)
    lock.release_read()
    thread.join(timeout=5)
    assert writer_done.is_set()
    # With the writer gone, readers flow again.
    assert lock.acquire_read(timeout=1)
    lock.release_read()


def test_unbalanced_releases_raise():
    lock = ReadWriteLock()
    with pytest.raises(RuntimeError):
        lock.release_read()
    with pytest.raises(RuntimeError):
        lock.release_write()


@pytest.mark.timeout(60)
def test_write_timeout_leaves_lock_usable():
    lock = ReadWriteLock()
    lock.acquire_read()
    assert not lock.acquire_write(timeout=0.05)
    # The timed-out writer must not leave a phantom waiter behind.
    assert lock._writers_waiting == 0
    assert lock.acquire_read(timeout=1)
    lock.release_read()
    lock.release_read()
    assert lock.acquire_write(timeout=1)
    lock.release_write()


@pytest.mark.timeout(60)
def test_context_managers_exclude_under_contention():
    """Every thread gets the lock's one ``read_locked``/``write_locked``
    context manager per side: with more threads than cores and a short
    switch interval, writers still exclude each other and every reader,
    and a body that raises releases its side."""
    lock = ReadWriteLock()
    counter = threading.Lock()
    state = {"readers": 0, "total": 0, "overlaps": 0}

    def reader():
        for _ in range(300):
            with lock.read_locked():
                with counter:
                    state["readers"] += 1
                with counter:
                    state["readers"] -= 1

    def writer():
        for _ in range(300):
            with lock.write_locked():
                if state["readers"]:
                    state["overlaps"] += 1
                total = state["total"]
                time.sleep(0)
                state["total"] = total + 1

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads += [threading.Thread(target=writer) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert state == {"readers": 0, "total": 1200, "overlaps": 0}
    with pytest.raises(ValueError):
        with lock.write_locked():
            raise ValueError("body failed")
    with pytest.raises(ValueError):
        with lock.read_locked():
            raise ValueError("body failed")
    assert lock.acquire_write(timeout=1)
    lock.release_write()
