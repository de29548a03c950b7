"""Deterministic fault injection for the simulated storage layer.

Every robustness claim in this library is testable because the failure
modes are injected, not hoped for.  A :class:`FaultInjector` is a
seeded random source plus a set of named *sites* (``"tia"``,
``"io"``, ...), each with a probability *schedule* mapping the attempt
index to a failure probability.  The storage wrappers —
:class:`FaultyTIA` around any TIA backend and
:meth:`FaultInjector.open` around snapshot file I/O — consult their
site before every operation and raise :class:`TransientIOError` when
the schedule fires.

Corruption (as opposed to transient failure) is injected with the file
mutators :func:`flip_bit`, :func:`truncate_file` and :func:`torn_write`,
which damage snapshots the way real storage does: a flipped bit, a
short read, a write that stopped halfway.

Everything is deterministic under a fixed seed, so a chaos test that
fails replays exactly.
"""

import math
import os
import random
import time

from repro.temporal.tia import BaseTIA


class TransientIOError(IOError):
    """An injected, retryable I/O failure (the fault model's soft error)."""


class FatalFaultError(RuntimeError):
    """An injected *non*-retryable failure (the fault model's hard error).

    Deliberately not an :class:`IOError` subclass: retry layers
    (``RetryPolicy``, the cluster's shard guards) treat it as fatal —
    the simulated analogue of a crashed or corrupted shard that no
    amount of retrying will bring back.
    """


# ---------------------------------------------------------------------------
# Probability schedules
# ---------------------------------------------------------------------------


def constant(probability):
    """Schedule failing every attempt with fixed ``probability``."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1], got %r" % (probability,))
    return lambda attempt: probability


def first_n(n, probability=1.0):
    """Schedule failing (only) the first ``n`` attempts."""
    return lambda attempt: probability if attempt < n else 0.0


def decaying(initial, half_life):
    """Schedule whose failure probability halves every ``half_life`` attempts.

    Models a fault that clears up — e.g. a storage node rejoining."""
    if half_life <= 0:
        raise ValueError("half_life must be positive, got %r" % (half_life,))
    return lambda attempt: initial * math.pow(0.5, attempt / float(half_life))


#: Valid fault kinds for :meth:`FaultInjector.configure`.
FAULT_KINDS = ("transient", "fatal", "latency")


class _Site:
    __slots__ = ("schedule", "attempts", "injected", "kind", "delay")

    def __init__(self, schedule, kind="transient", delay=0.0):
        self.schedule = schedule
        self.attempts = 0
        self.injected = 0
        self.kind = kind
        self.delay = delay


class FaultInjector:
    """A seeded source of injected failures, shared by the storage wrappers.

    Parameters
    ----------
    seed:
        Seed for the private ``random.Random``; identical seeds replay
        identical fault sequences.
    rates:
        Convenience mapping ``{site: probability}``; equivalent to
        calling :meth:`configure` per site with a constant schedule.

    Sites that were never configured never fire, so a single injector
    can be threaded through every layer and armed selectively.
    """

    def __init__(self, seed=0, rates=None, sleep=time.sleep):
        self._rng = random.Random(seed)
        self._sites = {}
        self._sleep = sleep
        for site, probability in (rates or {}).items():
            self.configure(site, rate=probability)

    def configure(self, site, rate=None, schedule=None, kind="transient",
                  delay=0.0):
        """Arm ``site`` with a constant ``rate`` or an explicit ``schedule``.

        ``kind`` selects the failure mode when the schedule fires:

        * ``"transient"`` — raise :class:`TransientIOError` (retryable);
        * ``"fatal"`` — raise :class:`FatalFaultError` (non-retryable,
          the simulated crashed/corrupted shard);
        * ``"latency"`` — stall for ``delay`` seconds and then succeed
          (the simulated slow disk or GC-paused worker; the caller's
          timeout, not an exception, is what surfaces it).
        """
        if (rate is None) == (schedule is None):
            raise ValueError("pass exactly one of rate= or schedule=")
        if kind not in FAULT_KINDS:
            raise ValueError(
                "kind must be one of %r, got %r" % (FAULT_KINDS, kind)
            )
        if kind == "latency" and delay <= 0.0:
            raise ValueError("latency faults need a positive delay=")
        self._sites[site] = _Site(
            constant(rate) if schedule is None else schedule, kind, delay
        )
        return self

    def disarm(self, site):
        """Stop injecting at ``site`` (its counters are kept)."""
        entry = self._sites.get(site)
        if entry is not None:
            entry.schedule = constant(0.0)

    def attempts(self, site):
        """Operations checked against ``site`` so far."""
        entry = self._sites.get(site)
        return entry.attempts if entry else 0

    def injected(self, site):
        """Faults raised at ``site`` so far."""
        entry = self._sites.get(site)
        return entry.injected if entry else 0

    def fires(self, site):
        """Advance ``site`` by one attempt; return whether it fails."""
        entry = self._sites.get(site)
        if entry is None:
            return False
        probability = entry.schedule(entry.attempts)
        entry.attempts += 1
        if probability <= 0.0:
            return False
        if self._rng.random() < probability:
            entry.injected += 1
            return True
        return False

    def check(self, site):
        """Inject ``site``'s configured fault when its schedule fires.

        Transient sites raise :class:`TransientIOError`, fatal sites
        raise :class:`FatalFaultError`, and latency sites block for the
        configured delay (then return normally).
        """
        entry = self._sites.get(site)
        if entry is None or not self.fires(site):
            return
        if entry.kind == "latency":
            self._sleep(entry.delay)
            return
        if entry.kind == "fatal":
            raise FatalFaultError(
                "injected fatal fault at site %r (attempt %d)"
                % (site, self.attempts(site))
            )
        raise TransientIOError(
            "injected transient fault at site %r (attempt %d)"
            % (site, self.attempts(site))
        )

    def open(self, path, mode="r", **kwargs):
        """``open``-compatible wrapper faulting at site ``"io"``.

        Pass as the ``opener=`` argument of the snapshot functions in
        :mod:`repro.storage.serialize` to make snapshot I/O failable.
        """
        self.check("io")
        return open(path, mode, **kwargs)

    def __repr__(self):
        armed = ", ".join(
            "%s:%d/%d" % (site, entry.injected, entry.attempts)
            for site, entry in sorted(self._sites.items())
        )
        return "FaultInjector(%s)" % (armed or "idle")


# ---------------------------------------------------------------------------
# Storage wrappers
# ---------------------------------------------------------------------------


class FaultyTIA(BaseTIA):
    """Delegates to a wrapped TIA, failing reads (and optionally writes).

    Read operations (``get``, ``range_sum``, ``range_max``) consult the
    injector; structural iteration (``items``) never faults, matching
    the convention that maintenance traversals are not charged as I/O.
    Writes fault only with ``fault_writes=True`` — that is the switch
    the crash-recovery tests flip to kill a ``digest_epoch`` midway.
    """

    __slots__ = ("inner", "injector", "site", "fault_writes")

    def __init__(self, inner, injector, site="tia", fault_writes=False):
        self.inner = inner
        self.injector = injector
        self.site = site
        self.fault_writes = fault_writes

    def _check_write(self):
        if self.fault_writes:
            self.injector.check(self.site)

    def get(self, epoch_index):
        self.injector.check(self.site)
        return self.inner.get(epoch_index)

    def set(self, epoch_index, agg):
        self._check_write()
        return self.inner.set(epoch_index, agg)

    def raise_to(self, epoch_index, agg):
        self._check_write()
        return self.inner.raise_to(epoch_index, agg)

    def add(self, epoch_index, delta):
        self._check_write()
        return self.inner.add(epoch_index, delta)

    def range_sum(self, first_epoch, last_epoch):
        self.injector.check(self.site)
        return self.inner.range_sum(first_epoch, last_epoch)

    def range_max(self, first_epoch, last_epoch):
        self.injector.check(self.site)
        return self.inner.range_max(first_epoch, last_epoch)

    def items(self):
        return self.inner.items()

    def replace_all(self, epoch_aggregates):
        self._check_write()
        return self.inner.replace_all(epoch_aggregates)

    def __len__(self):
        return len(self.inner)

    def __repr__(self):
        return "FaultyTIA(%r, site=%r)" % (self.inner, self.site)


def inject_tree_faults(tree, injector, site="tia", fault_writes=False):
    """Wrap every TIA of ``tree`` (and its factory) in :class:`FaultyTIA`.

    Each underlying TIA is wrapped exactly once and the leaf-registry
    identity (``entry.tia is tree.poi_tia(id)``) is preserved, so the
    tree's invariants keep holding.  Returns ``tree``.
    """
    wrapped = {}

    def wrap(tia):
        if isinstance(tia, FaultyTIA):
            return tia
        existing = wrapped.get(id(tia))
        if existing is None:
            existing = FaultyTIA(tia, injector, site, fault_writes)
            wrapped[id(tia)] = existing
        return existing

    tree.wrap_tias(wrap)
    return tree


# ---------------------------------------------------------------------------
# Corruption helpers (for chaos tests and drills)
# ---------------------------------------------------------------------------


def flip_bit(path, bit_index=None, rng=None):
    """Flip one bit of the file at ``path``; returns the bit flipped.

    ``bit_index`` picks the bit explicitly; otherwise ``rng`` (or a
    fresh seeded generator) picks one uniformly."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        raise ValueError("cannot flip a bit of the empty file %s" % path)
    if bit_index is None:
        bit_index = (rng or random.Random(0)).randrange(len(data) * 8)
    byte_index, offset = divmod(bit_index, 8)
    if byte_index >= len(data):
        raise ValueError(
            "bit %d is beyond the %d-byte file %s" % (bit_index, len(data), path)
        )
    data[byte_index] ^= 1 << offset
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    return bit_index


def truncate_file(path, keep_fraction=0.5):
    """Truncate ``path`` to a prefix; returns the new size in bytes."""
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return keep


def torn_write(path, data, fraction=0.5):
    """Write only a prefix of ``data`` to ``path`` (a simulated torn write)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    keep = int(len(data) * fraction)
    with open(path, "wb") as handle:
        handle.write(data[:keep])
    return keep
