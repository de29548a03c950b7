"""Shard fault domains: guards, circuit breakers, bounded degradation.

Every per-shard operation the coordinator performs — query dispatch,
batch run, routed mutation, scrub tick, recovery open — crosses a
*fault domain* boundary, and this module is that boundary.  A
:class:`ShardGuard` wraps each crossing in a guarded call with a
per-shard timeout (enforced preemptively on a private executor), a
seeded retry/backoff loop for transient errors, and a per-shard
:class:`CircuitBreaker` that quarantines a shard after repeated or
fatal failures.  Errors are classified three ways:

* **transient** — :class:`~repro.reliability.faults.TransientIOError`
  and :class:`ShardCallTimeout`: retried (timeouts excepted — they
  already spent the call budget) and counted against the breaker;
* **caller** — ``ValueError`` / ``KeyError`` / ``IndexError`` /
  ``TypeError``: the shard answered, the *request* was wrong; these
  propagate unchanged and never penalise the shard;
* **fatal** — everything else: the breaker opens immediately and the
  shard is flagged ``needs_recovery`` (no amount of retrying brings
  back a crashed or corrupted shard — it must be reopened from its
  checkpoint + WAL tail).

The correctness story for answers that *miss* a shard lives in
:class:`ShardDescriptor` and :class:`DegradedAnswer`.  The descriptor
caches, per shard, exactly the state the coordinator's pruning bound
needs — root MBR and per-epoch aggregate maxima — refreshed
synchronously inside every successful guarded mutation, so the bound
of an *unreachable* shard is still computable.  A missed shard whose
best-possible score cannot beat the running k-th score is provably
irrelevant (the same Property-1 argument that powers pruning), leaving
the answer exact; otherwise the coordinator either raises
:class:`ClusterDegradedError` (strict default) or returns a
:class:`DegradedAnswer` carrying ``coverage``, the missed shard ids
and the tight lower bound on any missed candidate's score.

Everything here is deterministic under fixed seeds: the breaker's
probe scheduling is count-based (no wall clock), retry jitter comes
from a seeded generator, and faults are injected through the shared
:class:`~repro.reliability.faults.FaultInjector` at the per-shard
sites ``shard.<i>.query`` / ``shard.<i>.mutate`` / ``shard.<i>.scrub``
/ ``shard.<i>.open``.
"""

from __future__ import annotations

import itertools
import random
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, TypeVar, overload

from repro.core.frames import EpochRow
from repro.core.query import KNNTAQuery, Normalizer, QueryResult
from repro.devtools.lockmodel import BREAKER
from repro.devtools.watchdog import monitored_lock
from repro.reliability.faults import FaultInjector, TransientIOError
from repro.spatial.geometry import Rect
from repro.temporal.epochs import TimeInterval
from repro.temporal.tia import AggregateKind, IntervalSemantics

if TYPE_CHECKING:
    from repro.core.tar_tree import TARTree
    from repro.temporal.epochs import EpochClock, VariedEpochClock

    Clock = EpochClock | VariedEpochClock

__all__ = [
    "CALLER",
    "CLOSED",
    "FATAL",
    "HALF_OPEN",
    "OPEN",
    "TRANSIENT",
    "CallToken",
    "CircuitBreaker",
    "ClusterDegradedError",
    "DegradedAnswer",
    "ResilienceConfig",
    "ShardCallTimeout",
    "ShardDescriptor",
    "ShardDownError",
    "ShardFaultError",
    "ShardGuard",
    "ShardHealthEvent",
    "classify_error",
]

T = TypeVar("T")

#: Error classes (:func:`classify_error` return values).
TRANSIENT = "transient"
CALLER = "caller"
FATAL = "fatal"

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Exception types that indicate a malformed *request*, not a shard
#: fault: they propagate unchanged and never penalise the breaker.
CALLER_ERRORS = (ValueError, KeyError, IndexError, TypeError)


# ---------------------------------------------------------------------------
# Exceptions and classification
# ---------------------------------------------------------------------------


class ShardFaultError(RuntimeError):
    """A guarded per-shard operation failed; carries the fault domain."""

    def __init__(self, shard: int, site: str, message: str) -> None:
        super().__init__("shard %d (%s): %s" % (shard, site, message))
        self.shard = shard
        self.site = site


class ShardCallTimeout(ShardFaultError):
    """The guarded call did not return within the per-shard timeout.

    Classified transient (a stalled shard may come back) but never
    retried inline — the call already consumed its full time budget,
    and retrying would multiply the caller-visible latency.
    """


class ShardDownError(ShardFaultError):
    """The shard's circuit breaker rejected the call without dispatching."""


class _AbandonedCall(Exception):
    """Internal: a timed-out call's thunk noticed it was abandoned.

    Raised by :meth:`CallToken.check` on the orphaned executor thread;
    nobody waits on that future, so the exception never escapes — its
    job is purely to stop an abandoned mutation from applying late.
    """


class ClusterDegradedError(RuntimeError):
    """Strict policy: the answer would be degraded, and that is an error.

    Raised when one or more shards are down *and* their best-possible
    score bounds cannot certify the partial answer exact.  Carries the
    same evidence a :class:`DegradedAnswer` would: the missed shard
    ids, the shard ``coverage`` fraction, and ``score_bound`` — the
    proven lower bound on the score of any candidate the missed shards
    might hold.
    """

    def __init__(
        self,
        missed_shards: tuple[int, ...],
        coverage: float,
        score_bound: float | None,
    ) -> None:
        super().__init__(
            "answer is degraded: shard(s) %s unavailable and not certified "
            "irrelevant (coverage %.3f, missed-candidate score bound %s); "
            "pass allow_degraded=True to accept bounded answers"
            % (
                ",".join(str(index) for index in missed_shards),
                coverage,
                "%.6f" % score_bound if score_bound is not None else "unknown",
            )
        )
        self.missed_shards = missed_shards
        self.coverage = coverage
        self.score_bound = score_bound


def classify_error(exc: BaseException) -> str:
    """Classify one guarded-call failure: transient, caller or fatal.

    :class:`ShardCallTimeout` and
    :class:`~repro.reliability.faults.TransientIOError` are transient;
    :data:`CALLER_ERRORS` mean the request itself was malformed (the
    shard is healthy); everything else — including
    :class:`ShardDownError` and injected
    :class:`~repro.reliability.faults.FatalFaultError` — is fatal.
    """
    if isinstance(exc, ShardCallTimeout):
        return TRANSIENT
    if isinstance(exc, ShardDownError):
        return FATAL
    if isinstance(exc, TransientIOError):
        return TRANSIENT
    if isinstance(exc, CALLER_ERRORS):
        return CALLER
    return FATAL


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class ResilienceConfig:
    """Tunables for the fault-domain layer (one instance per cluster).

    ``call_timeout`` is the per-shard-call deadline in seconds;
    ``None`` (the default) runs guarded calls inline on the caller's
    thread — full breaker/retry semantics with zero executor overhead,
    the right mode when shards are in-heap and cannot stall.  With a
    timeout set, calls run on a small per-shard executor
    (``shard_concurrency`` threads) so a stalled call is *abandoned*
    at the deadline rather than waited out; an abandoned mutation
    checks its :class:`CallToken` after acquiring the shard lock and
    aborts instead of applying late.

    Retries apply to transient errors only — never to timeouts (the
    call already spent its budget) and never to ``"mutate"`` calls
    (a mutation that failed after its WAL append is not idempotent;
    the WAL, not a blind re-run, is its source of truth):
    ``max_retries`` attempts beyond the first, sleeping
    ``backoff * backoff_factor**n`` (capped at ``max_backoff``) with
    multiplicative jitter from a generator seeded by ``seed`` — fully
    deterministic, replayable chaos.  ``sleep`` is injectable so tests
    pass ``lambda _: None`` and run instantly.

    Breaker schedule (count-based, no wall clock): ``failure_threshold``
    consecutive transient failures — or one fatal — open the breaker;
    an open breaker rejects ``probe_after`` calls and then lets the
    next one through as a half-open probe; ``probe_successes``
    successful probes close it again.  A breaker opened by a *fatal*
    failure never self-probes — it stays open until the shard is
    recovered and readmitted.
    """

    __slots__ = (
        "call_timeout",
        "max_retries",
        "backoff",
        "backoff_factor",
        "max_backoff",
        "failure_threshold",
        "probe_after",
        "probe_successes",
        "shard_concurrency",
        "seed",
        "sleep",
    )

    def __init__(
        self,
        call_timeout: float | None = None,
        max_retries: int = 2,
        backoff: float = 0.005,
        backoff_factor: float = 2.0,
        max_backoff: float = 0.25,
        failure_threshold: int = 3,
        probe_after: int = 8,
        probe_successes: int = 2,
        shard_concurrency: int = 4,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(
                "call_timeout must be positive or None, got %r" % (call_timeout,)
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r" % (max_retries,))
        if failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1, got %r" % (failure_threshold,)
            )
        if probe_after < 1:
            raise ValueError("probe_after must be >= 1, got %r" % (probe_after,))
        if probe_successes < 1:
            raise ValueError(
                "probe_successes must be >= 1, got %r" % (probe_successes,)
            )
        if shard_concurrency < 1:
            raise ValueError(
                "shard_concurrency must be >= 1, got %r" % (shard_concurrency,)
            )
        self.call_timeout = call_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.max_backoff = max_backoff
        self.failure_threshold = failure_threshold
        self.probe_after = probe_after
        self.probe_successes = probe_successes
        self.shard_concurrency = shard_concurrency
        self.seed = seed
        self.sleep = sleep

    def __repr__(self) -> str:
        return (
            "ResilienceConfig(call_timeout=%r, max_retries=%d, "
            "failure_threshold=%d, probe_after=%d)"
            % (
                self.call_timeout,
                self.max_retries,
                self.failure_threshold,
                self.probe_after,
            )
        )


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class ShardHealthEvent(NamedTuple):
    """One fault-domain transition, for the health stream and ops stats."""

    kind: str
    shard: int
    detail: str

    def as_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "shard": self.shard, "detail": self.detail}


class CircuitBreaker:
    """Per-shard closed / open / half-open breaker, deterministically probed.

    All scheduling is count-based so seeded chaos tests replay exactly:
    an open breaker rejects ``probe_after`` calls, then admits the next
    as a half-open probe (one probe in flight at a time);
    ``probe_successes`` successes close it, any probe failure reopens
    it.  ``needs_recovery`` (set by a fatal failure) disables
    self-probing — only an explicit :meth:`readmit` after online
    recovery moves the breaker to half-open.  ``on_transition`` (when
    set) is invoked with the new state name on every state change.
    """

    __slots__ = (
        "_lock",
        "state",
        "needs_recovery",
        "failure_threshold",
        "probe_after",
        "probe_successes",
        "consecutive_failures",
        "failures",
        "successes",
        "opens",
        "rejected",
        "_rejected_since_open",
        "_probe_inflight",
        "_probe_wins",
        "on_transition",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        probe_after: int = 8,
        probe_successes: int = 2,
    ) -> None:
        self._lock = monitored_lock(BREAKER)
        self.state = CLOSED
        self.needs_recovery = False
        self.failure_threshold = failure_threshold
        self.probe_after = probe_after
        self.probe_successes = probe_successes
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.opens = 0
        self.rejected = 0
        self._rejected_since_open = 0
        self._probe_inflight = 0
        self._probe_wins = 0
        self.on_transition: Callable[[str], None] | None = None

    def allow(self) -> bool:
        """Admit or reject one call; may transition open → half-open."""
        fired: list[str] = []
        with self._lock:
            admitted = self._allow_locked(fired)
        self._fire(fired)
        return admitted

    def _allow_locked(self, fired: list[str]) -> bool:
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (
                not self.needs_recovery
                and self._rejected_since_open >= self.probe_after
            ):
                self._transition(HALF_OPEN, fired)
                self._probe_inflight = 1
                return True
            self._rejected_since_open += 1
            self.rejected += 1
            return False
        # HALF_OPEN: one probe in flight at a time.
        if self._probe_inflight < 1:
            self._probe_inflight += 1
            return True
        self.rejected += 1
        return False

    def record_success(self) -> None:
        fired: list[str] = []
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            if self.state == HALF_OPEN:
                self._probe_inflight = max(0, self._probe_inflight - 1)
                self._probe_wins += 1
                if self._probe_wins >= self.probe_successes:
                    self.needs_recovery = False
                    self._transition(CLOSED, fired)
        self._fire(fired)

    def record_failure(self, fatal: bool = False) -> None:
        fired: list[str] = []
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            if fatal:
                self.needs_recovery = True
            if self.state == HALF_OPEN:
                self._probe_inflight = max(0, self._probe_inflight - 1)
                self._reopen(fired)
            elif self.state == CLOSED and (
                fatal or self.consecutive_failures >= self.failure_threshold
            ):
                self._reopen(fired)
        self._fire(fired)

    def readmit(self) -> None:
        """Move to half-open after recovery; probes decide readmission."""
        fired: list[str] = []
        with self._lock:
            self.needs_recovery = False
            self.consecutive_failures = 0
            self._probe_inflight = 0
            self._probe_wins = 0
            if self.state != HALF_OPEN:
                self._transition(HALF_OPEN, fired)
        self._fire(fired)

    def _reopen(self, fired: list[str]) -> None:
        self.opens += 1
        self._rejected_since_open = 0
        self._probe_wins = 0
        self._transition(OPEN, fired)

    def _transition(self, state: str, fired: list[str]) -> None:
        """Apply the state change; the *callback* fires after release.

        ``on_transition`` runs arbitrary foreign code (the guard's
        health fan-out); invoking it under the breaker lock would put
        a foreign callback inside an engine lock (RT010) and invert
        the hierarchy the moment that code re-enters the breaker.  The
        state change is applied here, the notification is queued, and
        :meth:`_fire` delivers it once the lock is released.
        """
        self.state = state
        fired.append(state)

    def _fire(self, fired: list[str]) -> None:
        callback = self.on_transition
        if callback is None:
            return
        for state in fired:
            callback(state)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self.state,
                "needs_recovery": self.needs_recovery,
                "failures": self.failures,
                "successes": self.successes,
                "opens": self.opens,
                "rejected": self.rejected,
                "consecutive_failures": self.consecutive_failures,
            }

    def __repr__(self) -> str:
        return "CircuitBreaker(%s, failures=%d, opens=%d)" % (
            self.state,
            self.failures,
            self.opens,
        )


# ---------------------------------------------------------------------------
# Shard descriptor: last-known bound state for unreachable shards
# ---------------------------------------------------------------------------

_descriptor_versions = itertools.count(1)


class ShardDescriptor:
    """Cached pruning-bound state for one shard: root MBR + epoch maxima.

    Refreshed under the shard lock at construction, after every
    successful guarded mutation, and after recovery — so the
    coordinator computes bounds and the cluster normaliser without
    touching shard trees on the query path at all, and the bound of a
    *down* shard (the degradation certificate) is its last consistent
    value.  ``fresh`` is cleared while a mutation is in flight and
    restored by the post-apply refresh; a descriptor left stale by a
    failed mutation keeps serving last-known-good values.

    Every :meth:`assign` draws a new ``version``, unique across
    descriptors, by which the coordinator tells whether its merged
    maxima are current, and drops the maxima's
    :class:`~repro.core.frames.EpochRow`, which folds a query window
    with two bisects and is rebuilt by the first bound that reads it (a
    shard worker's own descriptor is only described, never folded).
    """

    __slots__ = ("mbr", "epoch_max", "pois", "fresh", "_row", "version")

    mbr: Rect | None
    epoch_max: dict[int, int]
    pois: int
    fresh: bool
    _row: EpochRow | None
    version: int

    def __init__(self) -> None:
        self.assign(None, {}, 0)
        self.fresh = False

    def assign(self, mbr: Rect | None, epoch_max: dict[int, int], pois: int) -> None:
        """Install a shard's bound state and rebuild what derives from it."""
        self.mbr = mbr
        self.epoch_max = epoch_max
        self.pois = pois
        self._row = None
        self.version = next(_descriptor_versions)
        self.fresh = True

    def refresh(self, tree: TARTree) -> None:
        """Recompute from ``tree``; the caller holds the shard lock."""
        entries = tree.root.entries
        self.assign(
            Rect.union_all(entry.mbr for entry in entries) if entries else None,
            dict(tree.global_epoch_max()),
            len(tree),
        )

    def max_aggregate_bound(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics,
        clock: Clock,
        aggregate_kind: AggregateKind,
    ) -> int:
        """Upper bound on any shard POI's aggregate over ``interval``."""
        row = self._row
        if row is None:
            row = self._row = EpochRow(self.epoch_max)
        span = clock.epoch_range(interval, semantics)
        return row.fold(span.start, span.stop, aggregate_kind)

    def bound(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer,
        clock: Clock,
        aggregate_kind: AggregateKind,
    ) -> float | None:
        """Best possible score of any POI in the shard; ``None`` if empty.

        MINDIST to the cached root MBR under-estimates every POI
        distance; the cached per-epoch maxima over-estimate every
        aggregate (Property 1) — so the weighted sum is a true lower
        bound on every shard POI's score, computable even when the
        shard itself is unreachable.
        """
        if self.mbr is None:
            return None
        raw = self.max_aggregate_bound(
            query.interval, query.semantics, clock, aggregate_kind
        )
        distance, aggregate = normalizer.components(
            self.mbr.min_dist(query.point), raw
        )
        return query.alpha0 * distance + query.alpha1 * (1.0 - aggregate)

    def __repr__(self) -> str:
        return "ShardDescriptor(%d POIs, fresh=%r)" % (self.pois, self.fresh)


# ---------------------------------------------------------------------------
# Degraded answers
# ---------------------------------------------------------------------------


class DegradedAnswer:
    """A bounded partial answer, explicitly marked and certified.

    Behaves as the ranked result sequence (``iter``/``len``/indexing),
    so existing callers destructure it like plain rows, plus the
    degradation evidence: ``missed_shards`` (the shards that could not
    be certified irrelevant), ``coverage`` (fraction of shards whose
    data is reflected in — or provably irrelevant to — the answer) and
    ``score_bound``: every POI the missed shards might contribute is
    *proven* to score at least this value, so any row already scoring
    below it is definitively ranked.

    Satisfies the :class:`~repro.core.query.Answer` protocol with
    ``exact = False`` — the one answer shape in the system whose rows
    may be incomplete, and it says so.
    """

    __slots__ = ("results", "missed_shards", "coverage", "score_bound")

    #: Marker for duck-typed callers (service layer, wire protocol).
    degraded = True
    exact = False

    @property
    def rows(self) -> list[QueryResult]:
        return self.results

    def __init__(
        self,
        results: list[QueryResult],
        missed_shards: tuple[int, ...],
        coverage: float,
        score_bound: float | None,
    ) -> None:
        self.results = results
        self.missed_shards = missed_shards
        self.coverage = coverage
        self.score_bound = score_bound

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @overload
    def __getitem__(self, index: int) -> QueryResult: ...

    @overload
    def __getitem__(self, index: slice) -> list[QueryResult]: ...

    def __getitem__(self, index: int | slice) -> QueryResult | list[QueryResult]:
        return self.results[index]

    def __repr__(self) -> str:
        return (
            "DegradedAnswer(%d results, missed_shards=%r, coverage=%.3f, "
            "score_bound=%r)"
            % (len(self.results), self.missed_shards, self.coverage, self.score_bound)
        )


# ---------------------------------------------------------------------------
# The guard
# ---------------------------------------------------------------------------


class CallToken:
    """Abandonment flag handed to every guarded thunk.

    A thunk that mutates shard state calls :meth:`check` immediately
    after acquiring the shard's write lock: if the guarded call was
    already timed out and abandoned by its caller, the mutation aborts
    (on the orphaned executor thread) instead of applying late —
    possibly after the shard has been recovered from its WAL.
    """

    __slots__ = ("abandoned",)

    def __init__(self) -> None:
        self.abandoned = False

    def check(self) -> None:
        if self.abandoned:
            raise _AbandonedCall("call abandoned after timeout")


class ShardGuard:
    """The fault-domain boundary for one shard; see the module docs.

    :meth:`call` is the single entry point: it consults the breaker,
    injects the configured faults at ``shard.<index>.<kind>``, runs the
    thunk (inline, or on the per-shard executor when a call timeout is
    configured), retries transient errors with seeded backoff, and
    records the final outcome on the breaker.  ``kind`` is one of
    ``"query"``, ``"mutate"``, ``"scrub"`` or ``"open"``; the
    ``"open"`` kind (recovery I/O) bypasses the breaker entirely — it
    is how a quarantined shard gets back in.
    """

    __slots__ = (
        "index",
        "config",
        "injector",
        "breaker",
        "calls",
        "retries",
        "timeouts",
        "_on_event",
        "_lock",
        "_executor",
        "_rng",
    )

    def __init__(
        self,
        index: int,
        config: ResilienceConfig,
        injector: FaultInjector | None = None,
        on_event: Callable[[ShardHealthEvent], None] | None = None,
    ) -> None:
        self.index = index
        self.config = config
        self.injector = injector
        self.breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold,
            probe_after=config.probe_after,
            probe_successes=config.probe_successes,
        )
        self.breaker.on_transition = self._note_transition
        self.calls = 0
        self.retries = 0
        self.timeouts = 0
        self._on_event = on_event
        self._lock = monitored_lock(BREAKER)
        self._executor: ThreadPoolExecutor | None = None
        self._rng = random.Random((config.seed << 8) ^ index)

    # -- the guarded call ----------------------------------------------------

    def call(self, kind: str, thunk: Callable[[CallToken], T]) -> T:
        """Run ``thunk`` through the full guard; raises on final failure."""
        site = "shard.%d.%s" % (self.index, kind)
        guarded = kind != "open"
        if guarded and not self.breaker.allow():
            raise ShardDownError(self.index, site, "circuit breaker is open")
        with self._lock:
            self.calls += 1
        attempt = 0
        while True:
            try:
                result = self._invoke(site, thunk)
            except Exception as exc:
                kind_of = classify_error(exc)
                if kind_of == CALLER:
                    # The shard answered; the request was wrong.  In
                    # half-open that still counts as a live probe.
                    if guarded:
                        self.breaker.record_success()
                    raise
                timed_out = isinstance(exc, ShardCallTimeout)
                if timed_out:
                    with self._lock:
                        self.timeouts += 1
                    self._emit("shard-timeout", str(exc))
                if (
                    kind_of == TRANSIENT
                    and not timed_out
                    and kind != "mutate"
                    and attempt < self.config.max_retries
                ):
                    self.config.sleep(self._backoff(attempt))
                    attempt += 1
                    with self._lock:
                        self.retries += 1
                    continue
                if guarded:
                    self.breaker.record_failure(fatal=(kind_of == FATAL))
                    if kind_of == FATAL:
                        self._emit(
                            "shard-error", "%s: %s" % (type(exc).__name__, exc)
                        )
                raise
            else:
                if guarded:
                    self.breaker.record_success()
                return result

    def _invoke(self, site: str, thunk: Callable[[CallToken], T]) -> T:
        token = CallToken()

        def run() -> T:
            if self.injector is not None:
                self.injector.check(site)
            return thunk(token)

        timeout = self.config.call_timeout
        if timeout is None:
            return run()
        executor = self._ensure_executor()
        future = executor.submit(run)
        try:
            return future.result(timeout)
        except _FutureTimeout:
            # Abandon the call: flag the token so a pending mutation
            # aborts before applying, and retire the executor so queued
            # work does not pile up behind the stalled thread.
            token.abandoned = True
            future.cancel()
            self._retire_executor(executor)
            raise ShardCallTimeout(
                self.index, site, "no reply within %.3fs" % timeout
            ) from None

    def _backoff(self, attempt: int) -> float:
        base = self.config.backoff * (self.config.backoff_factor**attempt)
        jitter = 0.5 + self._rng.random() / 2.0
        return min(base * jitter, self.config.max_backoff)

    # -- executor management -------------------------------------------------

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.shard_concurrency,
                    thread_name_prefix="repro-shard-%d" % self.index,
                )
            return self._executor

    def _retire_executor(self, executor: ThreadPoolExecutor) -> None:
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False)

    def close(self) -> None:
        """Shut the per-shard executor down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    # -- health events -------------------------------------------------------

    def _note_transition(self, state: str) -> None:
        self._emit("breaker-%s" % state, "circuit breaker is now %s" % state)

    def _emit(self, kind: str, detail: str) -> None:
        callback = self._on_event
        if callback is not None:
            callback(ShardHealthEvent(kind, self.index, detail))

    def readmit(self) -> None:
        """Readmit after recovery: half-open, probes decide the rest."""
        self.breaker.readmit()
        self._emit("shard-readmitted", "recovered; probing via half-open")

    def snapshot(self) -> dict[str, object]:
        """JSON-ready guard + breaker state for the ``health`` surface."""
        state = self.breaker.snapshot()
        with self._lock:
            state["calls"] = self.calls
            state["retries"] = self.retries
            state["timeouts"] = self.timeouts
        return state

    def __repr__(self) -> str:
        return "ShardGuard(%d, %s, calls=%d)" % (
            self.index,
            self.breaker.state,
            self.calls,
        )
