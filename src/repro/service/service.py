"""The embeddable, thread-safe kNNTA query service.

:class:`QueryService` wraps a live :class:`~repro.core.tar_tree.TARTree`
(optionally paired with a
:class:`~repro.reliability.recovery.CheckpointedIngest` for WAL-backed
durability) behind three coordinated mechanisms:

* **Micro-batching** — callers enqueue queries into a bounded request
  queue; a worker thread (several on a worker cluster, see below)
  drains it and coalesces requests sharing a time interval (any
  interval on a worker cluster) into one batch, bounded by
  ``batch_size`` and a ``linger`` deadline.  A batch
  runs as one ``tree.query_batch`` call under one read-lock hold (a
  batch of one as one ``tree.query``): each rider runs its own
  best-first search, and the batch amortizes the lock and the
  normaliser.  Its access cost is the sum of its riders', recorded once
  and attributed to every rider.
* **Read/write coordination** — queries run under the shared side of a
  write-preferring :class:`~repro.service.locks.ReadWriteLock`;
  ``insert``/``delete``/``digest`` take the exclusive side and are
  routed through the ingest's WAL when one is attached, so crash
  recovery semantics survive concurrency.
* **Background scrubbing** — a maintenance thread (or manual
  :meth:`scrub_tick` calls) runs the
  :class:`~repro.service.scrubber.Scrubber` between queries.
* **Standing subscriptions** — :meth:`subscribe` registers a sliding-
  window kNNTA query with the
  :class:`~repro.continuous.registry.SubscriptionRegistry`; every
  :meth:`digest` re-runs the live subscriptions' one-shot queries
  (under the read lock, after the batch applied) and pushes ordered
  top-k deltas to their sinks.  See ``docs/CONTINUOUS.md``.

Admission control: a full queue rejects with
:class:`ServiceOverloadedError` carrying a ``retry_after`` hint; every
request gets a deadline (``default_timeout`` unless overridden) and
expires with :class:`RequestTimeoutError` rather than occupying a
worker.  :meth:`stats` snapshots the ops surface
(:class:`~repro.service.stats.ServiceStats`).

The service also wraps a :class:`~repro.cluster.coordinator.ClusterTree`
unchanged (detected by its ``is_cluster`` marker — the cluster package
imports this one, so the dependency must not point back): queries make
the same two calls, which run the coordinator's scatter-gather (a batch
visits every non-empty shard, one ``query_batch`` per shard),
mutations route through the owning shard's WAL inside the coordinator,
and scrubbing round-robins over the shards.  No service-level ingest
may be attached in that mode.
Where a tree's searches run decides how it is scheduled; its
``searches_out_of_process`` marker says so.  A tree that searches in
this interpreter — a single tree or an in-process cluster — gets one
worker thread, which forms and runs every batch: its searches are pure
Python, so a second thread would only trade the GIL with the first.
Its batches keep one interval each, since there no frame is paid.  A
tree whose marker is true — a worker cluster,
:class:`~repro.cluster.remote.RemoteClusterTree` — gets
``config.workers`` threads, which mostly wait on sockets, and batches
of the oldest queued requests whatever their interval: there a query
costs a socket frame per visited worker, and a batch at most two
frames per worker for all its riders.  Either way a worker lingers for
stragglers only while the queue holds nothing else
(``docs/SERVICE.md``, "Micro-batching semantics", has the
measurements behind these rules and behind the per-rider batch).
"""

import threading
import time
from collections import deque

from repro.continuous import SubscriptionRegistry

# Unused here since queries go through tree.query/query_batch; kept
# because the benchmark tracer (perfbench/spans.py) wraps this name.
from repro.core.knnta import knnta_search  # noqa: F401
from repro.devtools.lockmodel import SERVICE_RW
from repro.service.locks import ReadWriteLock
from repro.service.scrubber import HealthEvent, Scrubber
from repro.service.stats import ServiceStats
from repro.storage.stats import AccessStats

DEFAULT_WORKERS = 2
DEFAULT_BATCH_SIZE = 16
DEFAULT_LINGER = 0.002
DEFAULT_QUEUE_LIMIT = 256
DEFAULT_TIMEOUT = 30.0


class ServiceError(RuntimeError):
    """Base class for service-level request failures."""


class ServiceClosedError(ServiceError):
    """The service is shut down (or shutting down) and takes no requests."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected the request: the queue is full.

    ``retry_after`` is a backpressure hint in seconds — roughly how
    long until the current backlog drains at the configured batch size.
    """

    def __init__(self, queue_depth, retry_after):
        super().__init__(
            "request queue full (%d pending); retry after %.3fs"
            % (queue_depth, retry_after)
        )
        self.queue_depth = queue_depth
        self.retry_after = retry_after


class RequestTimeoutError(ServiceError):
    """The request's deadline passed before a result was produced."""


class WorkerCrashError(ServiceError):
    """Every worker thread died; pending requests cannot complete.

    Raised to waiters (instead of letting an untimed ``query()`` hang
    forever on a queue nobody drains) and by ``submit()`` once the
    pool is gone.  The message names the original worker failure.
    """


class ServiceConfig:
    """Tunables for one :class:`QueryService` (all have serving defaults).

    ``workers`` is the number of batches run at once over a tree whose
    searches run in worker processes (a
    :class:`~repro.cluster.remote.RemoteClusterTree`); a tree that
    searches in this interpreter always gets one worker thread
    (:attr:`QueryService.worker_threads`).  ``linger`` is the
    micro-batching window in seconds: a worker that finds fewer than
    ``batch_size`` coalescable requests, and nothing else queued, waits
    at most this long for stragglers before executing; any other queued
    request ends the wait at once.  ``scrub_interval`` (in seconds)
    enables the background maintenance thread; ``None`` leaves
    scrubbing to manual :meth:`QueryService.scrub_tick` calls.
    """

    __slots__ = (
        "workers",
        "batch_size",
        "linger",
        "queue_limit",
        "default_timeout",
        "scrub_interval",
        "scrub_budget",
        "latency_window",
    )

    def __init__(
        self,
        workers=DEFAULT_WORKERS,
        batch_size=DEFAULT_BATCH_SIZE,
        linger=DEFAULT_LINGER,
        queue_limit=DEFAULT_QUEUE_LIMIT,
        default_timeout=DEFAULT_TIMEOUT,
        scrub_interval=None,
        scrub_budget=None,
        latency_window=2048,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1, got %r" % (batch_size,))
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1, got %r" % (queue_limit,))
        if linger < 0:
            raise ValueError("linger must be >= 0, got %r" % (linger,))
        self.workers = workers
        self.batch_size = batch_size
        self.linger = linger
        self.queue_limit = queue_limit
        self.default_timeout = default_timeout
        self.scrub_interval = scrub_interval
        self.scrub_budget = scrub_budget
        self.latency_window = latency_window

    def __repr__(self):
        return (
            "ServiceConfig(workers=%d, batch_size=%d, linger=%g, queue_limit=%d)"
            % (self.workers, self.batch_size, self.linger, self.queue_limit)
        )


class PendingResult:
    """A submitted query's future: wait on :meth:`result`.

    After completion, ``batch_size`` tells how many requests shared the
    executing batch and ``cost`` is that batch's
    :class:`~repro.storage.stats.AccessStats` delta: the sum of its
    riders' node accesses, each rider having run its own search.
    """

    __slots__ = (
        "query",
        "deadline",
        "enqueued_at",
        "batch_size",
        "cost",
        "latency",
        "_event",
        "_results",
        "_error",
    )

    def __init__(self, query, deadline, enqueued_at):
        self.query = query
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        self.batch_size = None
        self.cost = None
        self.latency = None
        self._event = threading.Event()
        self._results = None
        self._error = None

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        """Block for the ranked results; raises the request's failure."""
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                "no result within %.3fs (request may still complete)" % (timeout,)
            )
        if self._error is not None:
            raise self._error
        return self._results

    # -- completion (worker side) --------------------------------------------

    def _complete(self, results, cost, batch_size, now):
        self._results = results
        self.cost = cost
        self.batch_size = batch_size
        self.latency = now - self.enqueued_at
        self._event.set()

    def _fail(self, error):
        self._error = error
        self.latency = time.monotonic() - self.enqueued_at
        self._event.set()


class QueryService:
    """Concurrent kNNTA serving over one TAR-tree; see the module docs.

    Parameters
    ----------
    tree:
        The :class:`~repro.core.tar_tree.TARTree` to serve.
    ingest:
        Optional :class:`~repro.reliability.recovery.CheckpointedIngest`
        already wrapping ``tree``; mutations route through it (and its
        WAL).  Without one, mutations apply directly to the tree.
    config:
        A :class:`ServiceConfig`; defaults serve a small deployment.
    manifest_path:
        Where the scrubber persists its leaf-CRC manifest (defaults to
        the ingest's ``scrub_manifest_path`` when an ingest is attached,
        else in-memory).
    autostart:
        Start worker threads immediately.  ``False`` lets tests and
        benchmarks enqueue a deterministic backlog first, then call
        :meth:`start`.
    """

    def __init__(self, tree, ingest=None, config=None, manifest_path=None,
                 autostart=True):
        if ingest is not None and ingest.tree is not tree:
            raise ValueError("ingest wraps a different tree")
        self._cluster = bool(getattr(tree, "is_cluster", False))
        # Searches in worker processes leave this interpreter's threads
        # waiting on sockets, and pay a frame per call: only there do
        # several threads, and batches of any intervals, pay.
        self._out_of_process = bool(getattr(tree, "searches_out_of_process", False))
        if self._cluster and ingest is not None:
            raise ValueError(
                "a cluster routes mutations through its own per-shard "
                "WALs; pass ingest=None"
            )
        self.tree = tree
        self.ingest = ingest
        self.config = config if config is not None else ServiceConfig()
        #: How many worker threads :meth:`start` runs.
        self.worker_threads = self.config.workers if self._out_of_process else 1
        self.lock = ReadWriteLock(SERVICE_RW)
        self.service_stats = ServiceStats(latency_window=self.config.latency_window)
        if self._cluster:
            # Each shard carries its own scrubber (round-robin via the
            # coordinator's scrub_tick); none is needed at this level.
            self.scrubber = None
        else:
            if manifest_path is None and ingest is not None:
                manifest_path = ingest.scrub_manifest_path
            scrub_budget = self.config.scrub_budget
            self.scrubber = Scrubber(
                tree,
                self.lock,
                manifest_path=manifest_path,
                **({} if scrub_budget is None else {"budget": scrub_budget})
            )
            tree.add_mutation_observer(self.scrubber.observe_mutation)
        self._queue = deque()
        self._queue_cond = threading.Condition()
        self._closed = False
        self._started = False
        self._workers = []
        self._dead_workers = 0
        self._worker_crash = None
        self._scrub_thread = None
        self._scrub_stop = threading.Event()
        # Standing sliding-window subscriptions (repro.continuous);
        # digest() drives their fan-out.
        self._registry = SubscriptionRegistry(tree)
        if self._cluster and hasattr(tree, "add_health_observer"):
            # Shard health events (breaker transitions, timeouts,
            # readmissions) flow onto the service's ops stream.
            tree.add_health_observer(self.service_stats.note_shard_event)
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Start the worker pool (and scrubber thread, when configured)."""
        if self._started:
            return self
        if self._closed:
            raise ServiceClosedError("service already closed")
        self._started = True
        for index in range(self.worker_threads):
            worker = threading.Thread(
                target=self._worker_loop,
                name="repro-service-worker-%d" % index,
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        if self.config.scrub_interval is not None:
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop, name="repro-service-scrubber", daemon=True
            )
            self._scrub_thread.start()
        return self

    def close(self, drain=True):
        """Stop accepting requests, drain (or fail) the queue, join workers."""
        with self._queue_cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._queue:
                    request = self._queue.popleft()
                    request._fail(ServiceClosedError("service closed"))
            self._queue_cond.notify_all()
        self._scrub_stop.set()
        if self._scrub_thread is not None:
            self._scrub_thread.join(timeout=5.0)
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._cluster and hasattr(self.tree, "remove_health_observer"):
            try:
                self.tree.remove_health_observer(
                    self.service_stats.note_shard_event
                )
            except ValueError:
                pass
        if self.scrubber is not None:
            self.tree.remove_mutation_observer(self.scrubber.observe_mutation)
            self.scrubber.persist_manifest()
        self._registry.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------

    def submit(self, query, timeout=None):
        """Enqueue ``query``; returns a :class:`PendingResult` immediately.

        Raises :class:`ServiceOverloadedError` when the queue is full
        and :class:`ServiceClosedError` after :meth:`close`.
        """
        query.validate()
        now = time.monotonic()
        if timeout is None:
            timeout = self.config.default_timeout
        deadline = None if timeout is None else now + timeout
        request = PendingResult(query, deadline, now)
        with self._queue_cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._worker_crash is not None:
                raise WorkerCrashError(
                    "all worker threads have died (%s); the service cannot "
                    "complete requests" % (self._worker_crash,)
                )
            depth = len(self._queue)
            if depth >= self.config.queue_limit:
                self.service_stats.note_rejected()
                raise ServiceOverloadedError(depth, self._retry_after(depth))
            self._queue.append(request)
            depth += 1
            self._queue_cond.notify_all()
        self.service_stats.note_queue_depth(depth)
        return request

    def query(self, query, timeout=None):
        """Submit and wait; returns the ranked result list.

        The synchronous form of :meth:`submit` — the call blocks until
        the micro-batch containing this query executes (at most the
        request timeout) and returns exactly what
        :meth:`TARTree.query` would.
        """
        request = self.submit(query, timeout=timeout)
        wait = None
        if request.deadline is not None:
            # Grace beyond the deadline: the worker expires the request
            # itself, which keeps the timeout accounting in one place.
            wait = max(request.deadline - time.monotonic(), 0.0) + 1.0
        return request.result(wait)

    def _retry_after(self, depth):
        """Backpressure hint: time for the backlog to drain, roughly."""
        batches_pending = depth / float(self.config.batch_size) + 1.0
        per_batch = max(self.config.linger, 0.001)
        return batches_pending * per_batch / self.worker_threads

    # ------------------------------------------------------------------
    # Mutation path (exclusive, WAL-routed)
    # ------------------------------------------------------------------

    def insert(self, poi, epoch_aggregates=None):
        """Insert a POI under the write lock; WAL-logged via the ingest."""
        with self.lock.write_locked():
            if self.ingest is None:
                # Standalone mode: no service-level WAL, the tree applies
                # directly (a cluster routes through its shard WALs and
                # returns the routed LSN; a bare tree returns None).
                return self.tree.insert_poi(poi, epoch_aggregates)
            return self.ingest.insert(poi, epoch_aggregates)

    def delete(self, poi_id):
        """Delete a POI under the write lock; WAL-logged via the ingest."""
        with self.lock.write_locked():
            if self.ingest is None:
                return self.tree.delete_poi(poi_id)
            return self.ingest.delete(poi_id)

    def digest(self, epoch_index, counts):
        """Digest one epoch batch under the write lock (WAL-logged).

        Digestion is what advances the clock, so it also drives the
        standing-subscription fan-out: after the batch applies (and the
        write lock is released), every live subscription re-evaluates
        and pushes its delta update.  The registry runs the round under
        its advance gate, taking this service's lock on the read side
        for the evaluation phase only (``advance(lock=self.lock)``) —
        sinks fire on the recorded snapshot outside every service and
        registry lock.  The fan-out runs even when the digest itself
        fails mid-way (a cluster shard down, say) — whatever state
        *did* change is what subscribers must now see, degraded or not.
        """
        try:
            with self.lock.write_locked():
                if self.ingest is None:
                    self.tree.digest_epoch(epoch_index, counts)
                    return None
                return self.ingest.digest(epoch_index, counts)
        finally:
            if len(self._registry):
                self._registry.advance(lock=self.lock)

    # ------------------------------------------------------------------
    # Standing subscriptions (repro.continuous)
    # ------------------------------------------------------------------

    def subscribe(self, point, window_epochs, k=10, alpha0=0.3,
                  semantics=None, sink=None):
        """Register a standing sliding-window kNNTA query.

        Returns ``(subscription, initial_update)``: the handle (pass it
        to :meth:`unsubscribe`) and the seq-0
        :class:`~repro.continuous.deltas.WindowUpdate` holding the
        current ranked answer (every row an ``ENTER`` delta).  ``sink``
        — a callable taking a ``WindowUpdate`` — receives each
        *subsequent* update as :meth:`digest` advances the window;
        sinks run on the digesting thread under the registry's advance
        gate, outside every service and registry lock, so a sink may
        call back into the service (``unsubscribe`` from inside a sink
        is safe) — it should still be quick, since delivery serialises
        the fan-out rounds.
        """
        kwargs = {} if semantics is None else {"semantics": semantics}
        with self.lock.write_locked():
            if self._closed:
                raise ServiceClosedError("service closed")
            return self._registry.subscribe(
                point, window_epochs, k=k, alpha0=alpha0, sink=sink, **kwargs
            )

    def unsubscribe(self, subscription):
        """Drop a standing subscription (handle or id); True if it existed."""
        with self.lock.write_locked():
            return self._registry.unsubscribe(subscription)

    def checkpoint(self):
        """Checkpoint the durable state under the write lock.

        Requires a :class:`CheckpointedIngest` — or a cluster, whose
        :meth:`~repro.cluster.coordinator.ClusterTree.checkpoint` takes
        each shard's snapshot and rewrites the cluster manifest.
        Returns the snapshot (or manifest) path.
        """
        if self._cluster:
            with self.lock.write_locked():
                return self.tree.checkpoint()
        if self.ingest is None:
            raise ServiceError("no CheckpointedIngest attached")
        with self.lock.write_locked():
            path = self.ingest.checkpoint()
        self.scrubber.persist_manifest()
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def scrub_tick(self, budget=None):
        """Run one bounded scrubber tick; returns nodes examined.

        In cluster mode the tick round-robins over the shards'
        scrubbers (the coordinator owns them).
        """
        if self.scrubber is None:
            return self.tree.scrub_tick(budget)
        return self.scrubber.tick(budget)

    def stats(self):
        """The :class:`~repro.service.stats.ServiceStats` snapshot dict."""
        snapshot = self.service_stats.snapshot(scrubber=self.scrubber)
        snapshot["queue_depth"] = len(self._queue)
        snapshot["pois"] = len(self.tree)
        snapshot["closed"] = self._closed
        snapshot["subscriptions"] = self._registry.counters()
        if self._cluster:
            snapshot["cluster"] = self.tree.counters()
        return snapshot

    def health(self):
        """Per-shard fault-domain health (cluster mode), else a stub.

        In cluster mode this is the coordinator's
        :meth:`~repro.cluster.coordinator.ClusterTree.health` — breaker
        states, guard counters, descriptor freshness and the recent
        shard event stream.  For a single tree there are no fault
        domains; the stub reports the service alive with no shards.
        """
        if self._cluster and hasattr(self.tree, "health"):
            report = self.tree.health()
        else:
            report = {"shards": [], "events": []}
        report["closed"] = self._closed
        report["worker_deaths"] = self.service_stats.worker_deaths
        report["subscriptions"] = len(self._registry)
        return report

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _worker_loop(self):
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                if batch:
                    self._execute(batch)
        except BaseException as exc:
            # _execute already fences per-batch failures; reaching here
            # means the loop itself is broken.  A silently dead worker
            # would leave untimed waiters hanging forever — propagate.
            self._note_worker_death(exc)
            raise

    def _note_worker_death(self, exc):
        """Record a dead worker; fail all pending work once none are left.

        An untimed :meth:`query` waits on an event only a worker sets —
        if every worker is gone, those waiters would hang forever.  The
        last death marks the service crashed: every queued request
        fails immediately with :class:`WorkerCrashError` (naming the
        original failure) and :meth:`submit` rejects from then on.
        """
        self.service_stats.note_worker_death()
        with self._queue_cond:
            self._dead_workers += 1
            if self._dead_workers < len(self._workers) or self._closed:
                return
            self._worker_crash = "%s: %s" % (type(exc).__name__, exc)
            crash = WorkerCrashError(
                "all worker threads have died (%s); pending requests "
                "cannot complete" % (self._worker_crash,)
            )
            while self._queue:
                self._queue.popleft()._fail(crash)
            self._queue_cond.notify_all()

    def _next_batch(self):
        """Block for a request, then linger to coalesce peers.

        Returns ``None`` on shutdown (queue drained), else a list of
        requests sharing one ``(interval, semantics)`` key — or, on a
        tree that coalesces any interval, the oldest queued requests.
        The linger lasts only while the queue holds nothing else: a
        request of another key waiting behind the batch runs it at once.
        Requests whose deadline already passed are expired here, not
        executed.
        """
        config = self.config
        with self._queue_cond:
            while True:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if not self._queue:
                    return None  # closed and drained
                first = self._queue.popleft()
                if self._expired(first):
                    continue
                batch = [first]
                key = (
                    None
                    if self._out_of_process
                    else (first.query.interval, first.query.semantics)
                )
                linger_until = time.monotonic() + config.linger
                while len(batch) < config.batch_size:
                    matched = self._take_matching(key, config.batch_size - len(batch))
                    for request in matched:
                        if not self._expired(request):
                            batch.append(request)
                    if (
                        len(batch) >= config.batch_size
                        or self._closed
                        or self._queue
                    ):
                        break
                    remaining = linger_until - time.monotonic()
                    if remaining <= 0:
                        break
                    self._queue_cond.wait(remaining)
                return batch

    def _take_matching(self, key, limit):
        """Remove up to ``limit`` queued requests with ``key`` (cond held);
        a ``None`` key takes the oldest, whatever their key."""
        if key is None:
            return [self._queue.popleft() for _ in range(min(limit, len(self._queue)))]
        taken = []
        if not self._queue:
            return taken
        kept = deque()
        while self._queue:
            request = self._queue.popleft()
            if (
                len(taken) < limit
                and (request.query.interval, request.query.semantics) == key
            ):
                taken.append(request)
            else:
                kept.append(request)
        self._queue = kept
        return taken

    def _expired(self, request):
        if request.deadline is not None and time.monotonic() > request.deadline:
            request._fail(
                RequestTimeoutError("request expired after %.3fs in queue"
                                    % (time.monotonic() - request.enqueued_at))
            )
            self.service_stats.note_timed_out()
            return True
        return False

    def _execute(self, batch):
        stats = AccessStats()
        queries = [request.query for request in batch]
        try:
            # A cluster holds its shard read locks itself; there this
            # hold only orders against service-level writers.  A single
            # query stays a query: a one-rider batch would search the
            # same nodes (and, on a cluster, prune and cut the same
            # shards) through the batch's per-rider bookkeeping.
            with self.lock.read_locked():
                if len(batch) == 1:
                    results = [self.tree.query(queries[0], stats=stats)]
                else:
                    results = self.tree.query_batch(queries, stats=stats)
        except Exception as exc:  # surface the failure to every rider
            for request in batch:
                request._fail(exc)
            self.service_stats.note_failed(len(batch))
            return
        now = time.monotonic()
        # Every producer returns an Answer-shaped object; a non-exact
        # answer is by definition a (permitted) degradation.
        degraded = sum(1 for rows in results if not rows.exact)
        if degraded:
            self.service_stats.note_degraded(degraded)
        for request, rows in zip(batch, results):
            request._complete(rows, stats, len(batch), now)
        self.service_stats.note_batch(
            len(batch), stats, [request.latency for request in batch]
        )
        self.service_stats.note_queue_depth(len(self._queue))

    def _scrub_loop(self):
        interval = self.config.scrub_interval
        while not self._scrub_stop.wait(interval):
            try:
                self.scrub_tick()
            except Exception as exc:
                # Maintenance must never take the service down, but the
                # failure must not vanish either: surface it on the
                # scrubber's health stream and let the next tick retry.
                # (A cluster owns per-shard scrubbers; the coordinator's
                # tick reports on the shard's own event stream.)
                if self.scrubber is not None:
                    self.scrubber.events.append(
                        HealthEvent(
                            "scrub-error",
                            "scrubber tick",
                            "%s: %s" % (type(exc).__name__, exc),
                            self.scrubber.sweeps_completed,
                        )
                    )

    def __repr__(self):
        return "QueryService(%r, %r, closed=%r)" % (
            self.tree,
            self.config,
            self._closed,
        )
