"""Operational statistics for the query service.

:class:`ServiceStats` is the ops surface the ISSUE's admission-control
story needs: request outcome counters, a bounded latency reservoir
(p50/p99), the batch-size histogram that shows whether micro-batching
actually coalesces load, queue depth, the merged per-batch
:class:`~repro.storage.stats.AccessStats`, and the scrubber's progress.
Everything is guarded by one internal mutex and snapshots to a plain,
JSON-serialisable ``dict`` (the shape the wire protocol's ``stats`` op
returns).
"""

from collections import deque

from repro.devtools.lockmodel import STATS
from repro.devtools.watchdog import monitored_lock
from repro.storage.stats import AccessStats

DEFAULT_LATENCY_WINDOW = 2048


def percentile(samples, fraction):
    """The ``fraction``-quantile of ``samples`` (nearest-rank method)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class ServiceStats:
    """Thread-safe counters and reservoirs for one :class:`QueryService`.

    ``access_totals`` accumulates the per-batch access deltas (via
    :meth:`AccessStats.merge`), so dividing by ``completed`` gives the
    mean per-request cost.  Every batch runs rider by rider, so a batch
    costs exactly the sum of its riders' accesses, never less.
    """

    def __init__(self, latency_window=DEFAULT_LATENCY_WINDOW):
        self._mutex = monitored_lock(STATS)
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.timed_out = 0
        self.degraded = 0
        self.worker_deaths = 0
        self.batches = 0
        self.batch_size_histogram = {}
        self.access_totals = AccessStats()
        self.queue_depth = 0
        self.max_queue_depth = 0
        self._latencies = deque(maxlen=latency_window)
        #: Recent cluster shard health events (kind/shard/detail dicts),
        #: fed by the coordinator's health stream in cluster mode.
        self.shard_events = deque(maxlen=128)

    # -- recording hooks (called by the service) -----------------------------

    def note_queue_depth(self, depth):
        with self._mutex:
            self.queue_depth = depth
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth

    def note_rejected(self):
        with self._mutex:
            self.rejected += 1

    def note_timed_out(self, count=1):
        with self._mutex:
            self.timed_out += count

    def note_failed(self, count=1):
        with self._mutex:
            self.failed += count

    def note_degraded(self, count=1):
        """Requests answered degraded (explicitly partial, bounded)."""
        with self._mutex:
            self.degraded += count

    def note_worker_death(self):
        """A worker thread died on an unexpected error."""
        with self._mutex:
            self.worker_deaths += 1

    def note_shard_event(self, event):
        """Record one cluster shard health event (breaker transitions,
        timeouts, readmissions) on the bounded ops stream."""
        with self._mutex:
            self.shard_events.append(
                event.as_dict() if hasattr(event, "as_dict") else dict(event)
            )

    def note_batch(self, size, cost, latencies):
        """Record one executed batch.

        ``cost`` is the batch's private :class:`AccessStats` delta,
        ``latencies`` the per-request enqueue-to-completion seconds.
        """
        with self._mutex:
            self.batches += 1
            self.completed += size
            self.batch_size_histogram[size] = (
                self.batch_size_histogram.get(size, 0) + 1
            )
            self.access_totals.merge(cost)
            self._latencies.extend(latencies)

    # -- reading -------------------------------------------------------------

    def snapshot(self, scrubber=None):
        """A JSON-serialisable snapshot of every counter.

        ``scrubber`` (a :class:`~repro.service.scrubber.Scrubber`)
        contributes its progress under the ``"scrubber"`` key.
        """
        with self._mutex:
            latencies = list(self._latencies)
            completed = self.completed
            mean_access = None
            if completed:
                totals = self.access_totals.as_dict()
                mean_access = {
                    key: value / float(completed) for key, value in totals.items()
                }
            result = {
                "completed": completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "timed_out": self.timed_out,
                "degraded": self.degraded,
                "worker_deaths": self.worker_deaths,
                "shard_events": list(self.shard_events),
                "batches": self.batches,
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_size_histogram.items())
                },
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "access_totals": self.access_totals.as_dict(),
                "access_per_request": mean_access,
                "latency": {
                    "samples": len(latencies),
                    "p50": percentile(latencies, 0.50),
                    "p99": percentile(latencies, 0.99),
                    "max": max(latencies) if latencies else None,
                },
            }
        if scrubber is not None:
            result["scrubber"] = scrubber.progress()
        return result

    def __repr__(self):
        return (
            "ServiceStats(completed=%d, batches=%d, rejected=%d, timed_out=%d)"
            % (self.completed, self.batches, self.rejected, self.timed_out)
        )
