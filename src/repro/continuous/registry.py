"""Standing-subscription registry: re-run on advance, push deltas.

:class:`SubscriptionRegistry` owns the continuous-query lifecycle for
one tree (a single :class:`~repro.core.tar_tree.TARTree` or a
:class:`~repro.cluster.coordinator.ClusterTree` on either shard
transport):

* :meth:`subscribe` answers the standing query once and returns that
  answer as the seq-0 update;
* :meth:`advance` — called after mutations were applied (the service
  calls it from ``digest`` under its read lock) — re-evaluates every
  subscription, pushes a :class:`~repro.continuous.deltas.WindowUpdate`
  to each sink whose window moved or whose top-k changed, and returns
  the pushed updates.

Every evaluation is one bound-pruned ``tree.query()`` at the
subscription's current :func:`~repro.continuous.windows.window_state`
(:meth:`SubscriptionRegistry._evaluate`, the only call site), so a
pushed state is the one-shot answer by construction.  No mutation
feed is observed: the re-run reads whatever the tree holds.

Locking: two locks from the canonical hierarchy
(:mod:`repro.devtools.lockmodel`).  The *advance gate* (rank 0, the
outermost lock in the whole engine) serialises fan-out rounds
end-to-end — evaluate, record, deliver — so each sink still sees its
subscription's updates in strict ``seq`` order.  The registry *mutex*
(rank 50) guards subscription state and is held only for the
snapshot and record phases, **never across evaluation or sink
delivery**: evaluation on a cluster tree dispatches through shard
guards whose shard (rank 30) and breaker (rank 40) locks rank above
the mutex, and sinks run on a snapshot under the gate alone, so a
sink may freely re-enter the registry or the owning service
(``unsubscribe`` from inside a sink acquires rank 50 or rank 10 under
rank 0 — a legal descent, where the old held-mutex delivery
deadlocked).  On a worker cluster the evaluation phase makes socket
round trips, so the gate is held across them, as it is across the
futures of an in-process parallel scatter.

Callers must not mutate the tree concurrently with :meth:`advance`;
the service passes its readers-writer lock (``advance(lock=...)``)
and the registry takes the *read* side under the gate — gate (0) →
service lock (10), descending — which excludes writers for exactly
the evaluation phase while letting concurrent queries proceed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.continuous.deltas import WindowUpdate, diff_topk
from repro.continuous.windows import WindowState, window_state
from repro.core.query import Answer, KNNTAQuery, QueryResult
from repro.devtools.lockmodel import ADVANCE_GATE, REGISTRY
from repro.devtools.watchdog import monitored_lock, monitored_rlock
from repro.temporal.tia import IntervalSemantics

UpdateSink = Callable[[WindowUpdate], None]

#: One evaluation: the answer and the window that produced it.
Outcome = Tuple[Answer, WindowState]


@dataclass
class SubscriptionSpec:
    """The immutable parameters of one standing query."""

    point: Tuple[float, float]
    window_epochs: int
    k: int = 10
    alpha0: float = 0.3
    semantics: IntervalSemantics = IntervalSemantics.INTERSECTS


class Subscription:
    """One registered standing query (a handle; state lives with it)."""

    __slots__ = (
        "id",
        "spec",
        "sink",
        "seq",
        "last_rows",
        "last_window",
        "last_exact",
        "last_update",
    )

    def __init__(
        self, sub_id: int, spec: SubscriptionSpec, sink: Optional[UpdateSink]
    ) -> None:
        self.id = sub_id
        self.spec = spec
        self.sink = sink
        self.seq = 0
        self.last_rows: Tuple[QueryResult, ...] = ()
        self.last_window: Optional[WindowState] = None
        self.last_exact = True
        self.last_update: Optional[WindowUpdate] = None

    def __repr__(self) -> str:
        return "Subscription(id=%d, k=%d, window=%d, seq=%d)" % (
            self.id,
            self.spec.k,
            self.spec.window_epochs,
            self.seq,
        )


class SubscriptionRegistry:
    """Standing sliding-window kNNTA subscriptions over one tree."""

    def __init__(self, tree: Any) -> None:
        self.tree = tree
        self._is_cluster = bool(getattr(tree, "is_cluster", False))
        self._advance_gate = monitored_lock(ADVANCE_GATE)
        self._mutex = monitored_rlock(REGISTRY)
        self._subscriptions: Dict[int, Subscription] = {}
        self._next_id = 1
        self._closed = False
        # Counters (all monotonic except the derived active count).
        self._subscribed_total = 0
        self._updates_delivered = 0
        self._fresh_evals = 0
        self._eval_errors = 0
        self._delivery_errors = 0

    def _evaluate(self, spec: SubscriptionSpec) -> Outcome:
        """The one-shot answer to ``spec`` at the tree's current window.

        A cluster answers with ``allow_degraded``: a shard down pushes
        an explicit degraded update instead of failing the round.
        """
        tree = self.tree
        window = window_state(
            tree.clock, tree.current_time, spec.window_epochs, spec.semantics
        )
        query = KNNTAQuery(
            spec.point, window.interval, spec.k, spec.alpha0, spec.semantics
        )
        if self._is_cluster:
            return tree.query(query, allow_degraded=True), window
        return tree.query(query), window

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------

    def subscribe(
        self,
        point: Tuple[float, float],
        window_epochs: int,
        k: int = 10,
        alpha0: float = 0.3,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        sink: Optional[UpdateSink] = None,
    ) -> Tuple[Subscription, WindowUpdate]:
        """Register a standing query; returns it with its initial state.

        The initial :class:`WindowUpdate` (``seq`` 0, every row an
        ``ENTER`` delta) is *returned*, not pushed — ``sink`` receives
        only the subsequent updates.

        The evaluation runs *outside* the registry mutex: on a cluster
        tree it dispatches through shard guards, whose shard (rank 30)
        and breaker (rank 40) locks rank above the mutex (rank 50) —
        evaluating under the mutex would ascend the hierarchy.  The
        mutex covers only the two state checks around it.
        """
        spec = SubscriptionSpec(
            point=(float(point[0]), float(point[1])),
            window_epochs=window_epochs,
            k=k,
            alpha0=alpha0,
            semantics=semantics,
        )
        with self._mutex:
            if self._closed:
                raise RuntimeError("subscription registry is closed")
        answer, window = self._evaluate(spec)
        with self._mutex:
            if self._closed:
                raise RuntimeError("subscription registry is closed")
            subscription = Subscription(self._next_id, spec, sink)
            self._next_id += 1
            self._fresh_evals += 1
            update = self._record_update(subscription, window, answer)
            self._subscriptions[subscription.id] = subscription
            self._subscribed_total += 1
            return subscription, update

    def unsubscribe(self, subscription: "Subscription | int") -> bool:
        """Drop a subscription (by handle or id); True when it existed."""
        sub_id = (
            subscription.id
            if isinstance(subscription, Subscription)
            else int(subscription)
        )
        with self._mutex:
            return self._subscriptions.pop(sub_id, None) is not None

    def __len__(self) -> int:
        with self._mutex:
            return len(self._subscriptions)

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------

    def advance(self, lock: Any = None) -> List[WindowUpdate]:
        """Re-evaluate every subscription after applied mutations.

        Pushes an update to a subscription's sink when its window moved,
        its ranked rows changed, or its exactness flipped (a shard went
        down or came back); returns every update produced this round.

        The whole round runs under the advance *gate* (rank 0), which
        serialises rounds and keeps per-sink ``seq`` order without
        holding any state lock during delivery.  ``lock`` — when the
        caller owns a readers-writer lock guarding the tree (the
        service passes its own) — is taken on the *read* side for the
        evaluation phase only, so writers are excluded exactly while
        the queries walk the tree and sinks never run under it.
        """
        with self._advance_gate:
            if lock is not None:
                with lock.read_locked():
                    delivered = self._evaluate_round()
            else:
                delivered = self._evaluate_round()
            self._deliver(delivered)
            return [update for _sink, update in delivered]

    def _evaluate_round(self) -> List[Tuple[Optional[UpdateSink], WindowUpdate]]:
        """One fan-out round: snapshot, evaluate, record.

        Three phases so the mutex (rank 50) is never held while the
        queries walk the tree — on a cluster that dispatch takes shard
        (rank 30) and breaker (rank 40) locks, which rank above the
        mutex.  Phase 1 snapshots the subscriptions under the mutex;
        the evaluation phase runs under the gate (and the caller's read
        lock) alone; phase 2 re-checks membership and records under the
        mutex.  Delivery happens later, under the gate only.
        """
        with self._mutex:
            if self._closed or not self._subscriptions:
                return []
            subscriptions = list(self._subscriptions.values())
        outcomes = [
            (subscription, self._evaluate_one(subscription.spec))
            for subscription in subscriptions
        ]
        with self._mutex:
            if self._closed:
                return []
            delivered: List[Tuple[Optional[UpdateSink], WindowUpdate]] = []
            for subscription, outcome in outcomes:
                if subscription.id not in self._subscriptions:
                    continue  # unsubscribed between the phases
                update = self._record_one(subscription, outcome)
                if update is not None:
                    delivered.append((subscription.sink, update))
            return delivered

    def _evaluate_one(self, spec: SubscriptionSpec) -> Optional[Outcome]:
        """Evaluate one subscription without registry locks held."""
        try:
            return self._evaluate(spec)
        except Exception:
            return None

    def _record_one(
        self, subscription: Subscription, outcome: Optional[Outcome]
    ) -> Optional[WindowUpdate]:
        """Record one outcome under the mutex; None when nothing moved."""
        if outcome is None:
            self._eval_errors += 1
            return None
        self._fresh_evals += 1
        answer, window = outcome
        moved = window != subscription.last_window
        changed = tuple(answer.rows) != subscription.last_rows
        flipped = bool(answer.exact) != subscription.last_exact
        if not (moved or changed or flipped):
            return None
        update = self._record_update(subscription, window, answer)
        self._updates_delivered += 1
        return update

    def _deliver(
        self, delivered: List[Tuple[Optional[UpdateSink], WindowUpdate]]
    ) -> None:
        """Fire sinks on the recorded snapshot, under the gate alone.

        No state lock is held here: a sink may re-enter the registry
        (``unsubscribe``) or the owning service — every lock it can
        reach ranks below the gate.
        """
        for sink, update in delivered:
            if sink is None:
                continue
            try:
                sink(update)
            except Exception:
                with self._mutex:
                    self._delivery_errors += 1

    def _record_update(
        self,
        subscription: Subscription,
        window: WindowState,
        answer: Answer,
    ) -> WindowUpdate:
        rows = tuple(answer.rows)
        update = WindowUpdate(
            subscription_id=subscription.id,
            seq=subscription.seq,
            window=window,
            answer=answer,
            deltas=diff_topk(subscription.last_rows, rows),
        )
        subscription.seq += 1
        subscription.last_rows = rows
        subscription.last_window = window
        subscription.last_exact = bool(answer.exact)
        subscription.last_update = update
        return update

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """JSON-ready running totals (dotted keys, like the cluster's)."""
        with self._mutex:
            return {
                "subscriptions.active": len(self._subscriptions),
                "subscriptions.total": self._subscribed_total,
                "updates.delivered": self._updates_delivered,
                "evals.fresh": self._fresh_evals,
                "evals.errors": self._eval_errors,
                "deliveries.failed": self._delivery_errors,
            }

    def close(self) -> None:
        """Drop every subscription; later subscribes raise."""
        with self._mutex:
            self._closed = True
            self._subscriptions.clear()
