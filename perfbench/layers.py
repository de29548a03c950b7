"""Per-layer metrics from a traced run's spans and the public counters."""

import bisect
import math
from collections import defaultdict

from spans import TREE_CALLS

#: name -> unit, in the order a traced run prints them.
UNITS = {
    "service.queue_wait_ms.p50": "ms",
    "service.batch_size.mean": "queries",
    "service.lock_wait_ms.p99": "ms",
    "service.scrub_tick_ms.p50": "ms",
    "core.search_ms.p50": "ms",
    "core.collective_ms_per_query": "ms",
    "core.nodes_per_query": "nodes",
    "core.frame_hit_rate": "fraction",
    "storage.load_tree_s": "s",
    "reliability.wal_replay_s": "s",
    "reliability.wal_append_ms.p50": "ms",
    "reliability.wal_bytes_per_write": "B",
    "continuous.advance_ms.p50": "ms",
    "continuous.fresh_eval_frac": "fraction",
    "cluster.query_self_ms.p50": "ms",
    "cluster.shards_visited_per_query": "shards",
    "cluster.shards_pruned_per_query": "shards",
    "cluster.guard_retries": "count",
    "cluster.guard_timeouts": "count",
    "cluster.breaker_opens": "count",
    "cluster.open_s": "s",
    "cluster.remote.request_ms.p50": "ms",
    "cluster.remote.conn_queued_ms.p50": "ms",
    "cluster.remote.requests_per_query": "requests",
    "cluster.remote.query_self_ms.p50": "ms",
    "cluster.workers.spawn_s": "s",
    "bench.send_late_ms.p99": "ms",
    "bench.query_capacity_qps": "queries/s",
    "bench.query_p50_ms": "ms",
    "bench.query_p99_ms": "ms",
    "bench.write_p50_ms": "ms",
    "bench.write_p99_ms": "ms",
    "bench.digest_p50_ms": "ms",
    "bench.push_lag_p50_ms": "ms",
    "bench.push_lag_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_frac": "fraction",
}
SERVICE_LOCK = "service-rw"


def percentile(samples, fraction):
    """Nearest-rank percentile; 0.0 for no samples (nothing recorded)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def covered(intervals, low, high):
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanIndex:
    """Spans by name and by parent, with self times."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for span in spans:
            self.children[span[4]].append(span)
            self.by_name[span[1]].append(span)

    def self_time(self, span):
        inner = [(child[2], child[3]) for child in self.children.get(span[0], ())]
        return (span[3] - span[2]) - covered(inner, span[2], span[3])

    def named(self, name, keep):
        return [span for span in self.by_name.get(name, ()) if keep(span[2])]


def _ms(values):
    return [value * 1000.0 for value in values]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def request_time(index, requests, keep):
    """Queue waits and span coverage of completed requests.

    ``requests`` yields ``(query, completion time)``.  A request's
    window runs from the start of its ``service.submit`` span to its
    completion.  The spans it is attributed to are that submit span,
    the first top-level tree call carrying the query (with everything
    nested in it) and the service read-lock acquisition that preceded
    the call on the same thread.  Returns ``(waits, window total,
    uncovered total)``: a wait runs from the end of the submit span to
    the start of the tree call, and the uncovered time is the part of
    a window none of the request's spans covers, queue wait included.
    """
    submits = {id(span[5]): span for span in index.named("service.submit", keep)}
    calls = {}
    for name in TREE_CALLS:
        for span in index.named(name, keep):
            if span[4] is not None:
                continue  # a shard search inside the coordinator
            for query in span[5] if isinstance(span[5], list) else (span[5],):
                key = id(query)
                if key not in calls or span[2] < calls[key][2]:
                    calls[key] = span
    acquisitions = defaultdict(list)
    for span in index.named("lock.read", keep):
        if span[5] == SERVICE_LOCK:
            acquisitions[span[6]].append(span)
    ends = {}
    for thread, spans in acquisitions.items():
        spans.sort(key=lambda span: span[3])
        ends[thread] = [span[3] for span in spans]
    waits, windows, uncovered = [], 0.0, 0.0
    for query, done in requests:
        submit, call = submits.get(id(query)), calls.get(id(query))
        if submit is None or call is None:
            continue
        waits.append(call[2] - submit[3])
        low = submit[2]
        parts = [(submit[2], submit[3]), (call[2], call[3])]
        before = bisect.bisect_right(ends.get(call[6], ()), call[2])
        if before:
            lock = acquisitions[call[6]][before - 1]
            if lock[2] >= submit[3]:
                parts.append((lock[2], lock[3]))
        windows += done - low
        uncovered += (done - low) - covered(parts, low, done)
    return waits, windows, uncovered


def compute(index, inputs, observed, setup_base, untraced_p50_ms, traced_p50_ms,
            send_late_p99_ms, wal_bytes):
    """Every per-layer metric for one traced run, as ``{name: value}``.

    Spans starting before ``observed.base`` belong to set-up; the rest,
    less a re-open between the phases, to the measured phases.
    """
    base = observed.base
    gap = observed.reopened or (0.0, 0.0)

    def setup(start):
        return setup_base <= start < base

    def phase(start):
        return start >= base and not gap[0] <= start < gap[1]

    def durations(name, keep=phase):
        return [span[3] - span[2] for span in index.named(name, keep)]

    def self_times(name):
        return [index.self_time(span) for span in index.named(name, phase)]

    counts = observed.counts
    metrics = {}

    # The closed loop queues by design: only open-loop requests count.
    completed = [
        (query, observed.open_done[slot])
        for slot, (_due, query) in enumerate(inputs.open_schedule)
        if observed.open_done[slot]
    ]
    waits, windows, uncovered = request_time(index, completed, phase)
    metrics["service.queue_wait_ms.p50"] = percentile(_ms(waits), 0.5)
    metrics["service.batch_size.mean"] = _ratio(counts["completed"], counts["batches"])
    metrics["service.lock_wait_ms.p99"] = percentile(
        _ms(span[3] - span[2]
            for name in ("lock.read", "lock.write")
            for span in index.named(name, phase)
            if span[5] == SERVICE_LOCK),
        0.99,
    )
    metrics["service.scrub_tick_ms.p50"] = percentile(_ms(durations("service.scrub_tick")), 0.5)

    metrics["core.search_ms.p50"] = percentile(_ms(self_times("core.knnta_search")), 0.5)
    runs = index.named("core.collective.run", phase)
    metrics["core.collective_ms_per_query"] = _ratio(
        sum(span[3] - span[2] for span in runs) * 1000.0,
        sum(len(span[5]) for span in runs),
    )
    metrics["core.nodes_per_query"] = _ratio(
        counts["access_totals.rtree_nodes"], counts["completed"]
    )
    frames = len(index.named("core.frames.frame", phase))
    builds = len(index.named("core.frames.build_frame", phase))
    metrics["core.frame_hit_rate"] = 1.0 - builds / frames if frames else 0.0

    metrics["storage.load_tree_s"] = sum(durations("storage.load_tree", setup))
    replay = 0.0
    for span in index.named("reliability.recover", setup):
        loads = [
            child[3] - child[2]
            for child in index.children.get(span[0], ())
            if child[1] == "storage.load_tree"
        ]
        replay += (span[3] - span[2]) - sum(loads)
    metrics["reliability.wal_replay_s"] = replay
    appends = durations("reliability.wal.append")
    metrics["reliability.wal_append_ms.p50"] = percentile(_ms(appends), 0.5)
    metrics["reliability.wal_bytes_per_write"] = _ratio(wal_bytes, len(appends))

    metrics["continuous.advance_ms.p50"] = percentile(_ms(durations("continuous.advance")), 0.5)
    fresh = counts["subscriptions.evals.fresh"]
    metrics["continuous.fresh_eval_frac"] = _ratio(
        fresh, fresh + counts["subscriptions.evals.incremental"]
    )

    metrics["cluster.query_self_ms.p50"] = percentile(_ms(self_times("cluster.query")), 0.5)
    queries = counts["cluster.queries"]
    metrics["cluster.shards_visited_per_query"] = _ratio(counts["cluster.shards.visited"], queries)
    metrics["cluster.shards_pruned_per_query"] = _ratio(counts["cluster.shards.pruned"], queries)
    metrics["cluster.guard_retries"] = counts["cluster.shards.retries"]
    metrics["cluster.guard_timeouts"] = counts["cluster.shards.timeouts"]
    metrics["cluster.breaker_opens"] = counts["cluster.breaker_opens"]
    metrics["cluster.open_s"] = sum(durations("cluster.open", setup))

    requests = index.named("cluster.remote.request", phase)
    metrics["cluster.remote.request_ms.p50"] = percentile(
        _ms(span[3] - span[2] for span in requests), 0.5
    )
    per_client = defaultdict(list)
    for span in requests:
        per_client[id(span[5])].append((span[2], span[3]))
    queued = []
    for intervals in per_client.values():
        reach = float("-inf")
        for start, end in sorted(intervals):
            queued.append(max(0.0, min(end, reach) - start))
            reach = max(reach, end)
    metrics["cluster.remote.conn_queued_ms.p50"] = percentile(_ms(queued), 0.5)
    remote_queries = index.named("cluster.remote.query", phase)
    remote_ids = {span[0] for span in remote_queries}
    metrics["cluster.remote.requests_per_query"] = _ratio(
        sum(1 for span in requests if span[4] in remote_ids), len(remote_queries)
    )
    metrics["cluster.remote.query_self_ms.p50"] = percentile(
        _ms(self_times("cluster.remote.query")), 0.5
    )
    metrics["cluster.workers.spawn_s"] = sum(durations("cluster.workers.spawn", setup))

    metrics["bench.send_late_ms.p99"] = send_late_p99_ms
    metrics["trace.overhead_pct"] = (
        (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0 if untraced_p50_ms else 0.0
    )
    metrics["trace.unattributed_frac"] = _ratio(uncovered, windows)
    return metrics


def check_well_formed(spans):
    """Problems with a span list: unresolved parents, negative self time."""
    index = SpanIndex(spans)
    problems = []
    for span in spans:
        if span[4] is not None and span[4] not in index.by_id:
            problems.append("span %d (%s) has unknown parent %r" % (span[0], span[1], span[4]))
        if span[3] < span[2] or index.self_time(span) < 0.0:
            problems.append("span %d (%s) has negative time" % (span[0], span[1]))
    return problems
