"""A readers-writer lock for the query service.

Queries take shared (read) access — the TAR-tree's search paths never
mutate tree state — while ``insert_poi``/``delete_poi``/``digest_epoch``
take exclusive (write) access.  The lock is *write-preferring*: once a
writer is waiting, new readers queue behind it, so a stream of queries
cannot starve ingest.

Neither side is re-entrant; the service's code paths never nest
acquisitions.  Constructed with a ``name`` from the canonical lock
hierarchy (:mod:`repro.devtools.lockmodel`), every acquisition is
reported to the :class:`~repro.devtools.watchdog.LockOrderWatchdog`
when one is active (``REPRO_LOCK_WATCHDOG=1``) — both sides push the
same name, so the watchdog also catches the classic readers-writer
self-deadlocks: read→write upgrade and nested read under a waiting
writer.  Unnamed locks stay unwitnessed.
"""

import threading

from repro.devtools import watchdog


class _Held:
    """One side of a :class:`ReadWriteLock` as a context manager: takes
    it on entry and releases it on exit.  A plain object rather than a
    ``contextlib.contextmanager`` generator, which cost about as much
    again as the lock itself; it holds no state, so every thread shares
    the lock's one instance per side."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release):
        self._acquire = acquire
        self._release = release

    def __enter__(self):
        self._acquire()

    def __exit__(self, *exc_info):
        self._release()


class ReadWriteLock:
    """Write-preferring readers-writer lock over a single condition."""

    def __init__(self, name=None):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self.name = name
        self._read_side = _Held(self.acquire_read, self.release_read)
        self._write_side = _Held(self.acquire_write, self.release_write)

    def _note_acquire(self):
        if self.name is None:
            return None
        witness = watchdog.active()
        if witness is not None:
            # Before blocking: a would-be deadlock raises instead of
            # hanging the thread.
            witness.note_acquire(self.name)
        return witness

    def _note_failed(self, witness):
        if witness is not None:
            witness.note_release(self.name)

    def _note_release(self):
        if self.name is None:
            return
        witness = watchdog.active()
        if witness is not None:
            witness.note_release(self.name)

    # -- shared (query) side -------------------------------------------------

    def acquire_read(self, timeout=None):
        """Take shared access; returns ``False`` on timeout."""
        witness = self._note_acquire()
        with self._cond:
            # Uncontended, skip ``wait_for``: it would only re-test this.
            if self._writer_active or self._writers_waiting:
                if not self._cond.wait_for(
                    lambda: not self._writer_active and not self._writers_waiting,
                    timeout,
                ):
                    self._note_failed(witness)
                    return False
            self._readers += 1
            return True

    def release_read(self):
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        self._note_release()

    # -- exclusive (mutation) side -------------------------------------------

    def acquire_write(self, timeout=None):
        """Take exclusive access; returns ``False`` on timeout."""
        witness = self._note_acquire()
        with self._cond:
            self._writers_waiting += 1
            try:
                if not self._cond.wait_for(
                    lambda: not self._writer_active and self._readers == 0,
                    timeout,
                ):
                    self._note_failed(witness)
                    return False
                self._writer_active = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self):
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()
        self._note_release()

    # -- context managers ----------------------------------------------------

    def read_locked(self):
        """``with lock.read_locked():`` holds shared access."""
        return self._read_side

    def write_locked(self):
        """``with lock.write_locked():`` holds exclusive access."""
        return self._write_side

    def __repr__(self):
        return "ReadWriteLock(readers=%d, writer=%r, writers_waiting=%d)" % (
            self._readers,
            self._writer_active,
            self._writers_waiting,
        )
