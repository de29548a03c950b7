"""Load generation: open the served state, then the open and closed loops.

All load comes from this process.  The calling thread submits queries
(``QueryService.submit`` never blocks); one writer thread issues the
``tree-rw`` writes on their own schedule.  Every operation is timed from
its due time on ``time.monotonic``, the clock the service stamps
``PendingResult.enqueued_at`` with.  The writes run beside the open
loop only: the closed loop saturates the interpreter, and a starved
writer would time the generator rather than the service.
"""

import os
import threading
import time
from array import array
from collections import deque

import repro.cluster.remote as remote
import repro.cluster.state as cluster_state
import repro.reliability.recovery as recovery
from repro.service import QueryService, ServiceConfig, ServiceOverloadedError

from inputs import CLOSED_IN_FLIGHT

clock = time.monotonic

#: The ``repro serve`` defaults.
SERVE_CONFIG = dict(
    workers=2,
    batch_size=16,
    linger=0.002,
    queue_limit=256,
    scrub_interval=1.0,
    scrub_budget=32,
)
#: How long to wait for a straggling request before calling it failed.
RESULT_WAIT_S = 40.0
#: The closed loop counts completions per window of this length.
CAPACITY_WINDOW_S = 0.5


def rss_mb(pid="self"):
    """Resident set size of a process, MiB (Linux ``/proc``)."""
    return _status_kb(pid, "VmRSS:") / 1024.0


def peak_rss_mb(pid):
    """Peak resident set size of a process, MiB."""
    return _status_kb(pid, "VmHWM:") / 1024.0


def serving_cpu_s(workers):
    """CPU time the serving side has used, seconds.

    That is every thread of this process but the calling one (the load
    generator), plus each worker process in ``workers``.  CPU time does
    not count the waits for a timer or a woken thread, which on a shared
    host vary from run to run far more than the work itself.
    """
    own = time.process_time() - time.thread_time()
    return own + sum(_process_cpu_s(pid) for pid in workers)


def _process_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime


def _status_kb(pid, field):
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith(field):
                return float(line.split()[1])
    raise RuntimeError("no %s in /proc/%s/status" % (field, pid))


class Served:
    """One opened state behind a ``QueryService``."""

    def __init__(self, service, tree, ingest):
        self.service = service
        self.tree = tree
        self.ingest = ingest

    def worker_pids(self):
        shards = getattr(self.tree, "shards", ())
        return [
            shard.handle.pid
            for shard in shards
            if getattr(shard, "handle", None) is not None
        ]

    def close(self):
        try:
            if self.service is not None:
                self.service.close()
        finally:
            if self.ingest is not None:
                self.ingest.close()
            elif hasattr(self.tree, "close"):
                self.tree.close()  # a cluster; workers exit and are joined


def open_served(inputs, state_dir):
    """Open ``state_dir`` the way ``repro serve`` does; answer the probe.

    Returns ``(served, seconds)``: the time runs from the on-disk state
    to the first answered query (snapshot load, WAL replay, worker
    spawn, first frame build).  Module attributes are looked up at call
    time so a traced run sees its wrappers.
    """
    name = inputs.workload.name
    start = clock()
    served = Served(None, None, None)
    try:
        if name == "tree-rw":
            served.tree = recovery.recover(state_dir).tree
            served.ingest = recovery.CheckpointedIngest(served.tree, state_dir)
        elif name == "cluster-inproc":
            served.tree = cluster_state.open_cluster(state_dir)
        else:
            served.tree = remote.RemoteClusterTree.start(state_dir)
        served.service = QueryService(
            served.tree, ingest=served.ingest, config=ServiceConfig(**SERVE_CONFIG)
        )
        served.service.query(inputs.probe)
    except BaseException:
        served.close()
        raise
    return served, clock() - start


#: Service counters the per-layer metrics difference over each phase.
COUNTERS = (
    ("completed",),
    ("batches",),
    ("access_totals", "rtree_nodes"),
    ("subscriptions", "evals.fresh"),
    ("subscriptions", "evals.incremental"),
    ("cluster", "queries"),
    ("cluster", "shards.visited"),
    ("cluster", "shards.pruned"),
    ("cluster", "shards.retries"),
    ("cluster", "shards.timeouts"),
    ("cluster", "breaker_opens"),
)


def counters(service):
    """The ``COUNTERS`` from ``QueryService.stats()``, flat."""
    stats = service.stats()
    flat = {}
    for path in COUNTERS:
        value = stats
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        flat[".".join(path)] = value or 0
    return flat


def answer_digest(rows):
    """A fixed-size stand-in for an answer's rows: ids, scores, order.

    The oracle compares digests, so a run keeps one integer per answer
    instead of the answer itself.
    """
    return hash(tuple(rows))


def _zeros(typecode, count):
    return array(typecode, bytes(array(typecode).itemsize * count))


class PushLog:
    """One subscription's pushed updates, in slots allocated up front.

    The service calls it as the subscription's sink; slot ``seq - 1``
    keeps the receive time, the window and the answer digest.
    """

    __slots__ = ("received", "lows", "highs", "digests", "state", "unexpected")

    def __init__(self, count):
        self.received = _zeros("d", count)
        self.lows = _zeros("d", count)
        self.highs = _zeros("d", count)
        self.digests = _zeros("q", count)
        self.state = bytearray(count)  # 0 none, 1 exact, 2 degraded
        self.unexpected = 0

    def __call__(self, update):
        received = clock()
        slot = update.seq - 1
        if not 0 <= slot < len(self.state) or self.state[slot]:
            self.unexpected += 1
            return
        self.received[slot] = received
        interval = update.window.interval
        self.lows[slot], self.highs[slot] = interval.start, interval.end
        self.digests[slot] = answer_digest(update.answer.rows)
        self.state[slot] = 1 if update.answer.exact else 2


class Observed:
    """Everything a run records, for the metrics and the oracle.

    Every slot is allocated before set-up, one per scheduled query,
    pool query, write and pushed update, so the run itself grows the
    process only by what the served side allocates: that keeps the
    benchmark's own bookkeeping out of ``rss_mb``.  A query slot holds
    its send and completion times and its answer's digest; completion
    0.0 means it did not return an exact answer.
    """

    def __init__(self, inputs):
        opened = len(inputs.open_schedule)
        self.base = None                        # the open loop's time zero
        self.open_sent = _zeros("d", opened)
        self.open_done = _zeros("d", opened)
        self.open_digests = _zeros("q", opened)
        pool = len(inputs.closed_pool)
        self.closed_digests = _zeros("q", pool)  # the latest answer per pool slot
        self.closed_answered = bytearray(pool)
        self.closed_attempted = 0
        self.closed_failed = 0
        self.closed_cpu_s = 0.0     # serving CPU time over the closed loop
        # Exact answers completed in each whole CAPACITY_WINDOW_S.
        windows = max(1, int(inputs.closed_seconds / CAPACITY_WINDOW_S))
        self.closed_windows = _zeros("l", windows)
        writes = len(inputs.writes)
        self.write_start = _zeros("d", writes)
        self.write_end = _zeros("d", writes)
        self.write_state = bytearray(writes)    # 0 not run, 1 ok, 2 raised
        self.write_errors = []
        digests = sum(1 for op in inputs.writes if op.kind == "digest")
        self.subscriptions = [                  # (spec, initial, PushLog)
            (spec, None, PushLog(digests)) for spec in inputs.subscriptions
        ]
        self.counts = dict.fromkeys((".".join(path) for path in COUNTERS), 0)
        self.reopened = None        # (start, end) of a re-open between phases
        self.threads = 0

    def add_counts(self, before, after):
        for key in self.counts:
            self.counts[key] += after[key] - before[key]

    def executed_writes(self):
        """Indexes of the writes that ran, in the order they ran."""
        return [index for index, state in enumerate(self.write_state) if state]


def _settle(pending):
    """Wait for a query; ``(answer, completion time)`` or ``(None, 0.0)``.

    A query that was refused, timed out, failed or came back degraded
    has no answer.
    """
    try:
        answer = pending.result(RESULT_WAIT_S)
    except Exception:
        return None, 0.0
    if not answer.exact:
        return None, 0.0
    return answer, pending.enqueued_at + pending.latency


def run_open(inputs, served, observed):
    """Subscribe, then the open loop at the workload's fixed rate.

    Arrivals follow the precomputed Poisson schedule whatever the
    service does; the writer thread issues the ``tree-rw`` writes on
    their own schedule beside it.  Between arrivals the submitter
    settles the queries that have completed, so it holds only the ones
    in flight.
    """
    service = served.service
    for index, (spec, _initial, log) in enumerate(observed.subscriptions):
        point, window, k, alpha0 = spec
        _sub, initial = service.subscribe(point, window, k=k, alpha0=alpha0, sink=log)
        interval = initial.window.interval
        observed.subscriptions[index] = (
            spec,
            (interval.start, interval.end, answer_digest(initial.answer.rows)),
            log,
        )
    before = counters(service)
    stop = threading.Event()
    base = observed.base = clock() + 0.05
    writer = None
    if inputs.writes:
        writer = threading.Thread(
            target=_write_loop,
            args=(inputs, service, base, stop, observed),
            name="perfbench-writer",
        )
        writer.start()
    finished = False
    inflight = deque()

    def settle_open(slot, pending):
        answer, done = _settle(pending)
        if answer is not None:
            observed.open_done[slot] = done
            observed.open_digests[slot] = answer_digest(answer.rows)

    try:
        for slot, (due, query) in enumerate(inputs.open_schedule):
            while inflight and inflight[0][1].done():
                settle_open(*inflight.popleft())
            target = base + due
            delay = target - clock()
            if delay > 0:
                time.sleep(delay)
            observed.open_sent[slot] = clock()
            try:
                inflight.append((slot, service.submit(query)))
            except ServiceOverloadedError:
                pass  # refused: never answered
        observed.threads = threading.active_count()
        while inflight:
            settle_open(*inflight.popleft())
        finished = True
    finally:
        if writer is not None:
            if not finished:
                stop.set()
            writer.join()
    observed.add_counts(before, counters(service))


def run_closed(inputs, served, observed):
    """The closed loop: keep ``CLOSED_IN_FLIGHT`` queries outstanding.

    One thread refills as the oldest outstanding query completes,
    cycling through the query pool.  Exact answers are counted per
    ``CAPACITY_WINDOW_S`` window; capacity is the median window's rate,
    so a host stall of a second or two does not set it.  The serving
    side's CPU time over the loop is recorded too.
    """
    service = served.service
    workers = served.worker_pids()
    before = counters(service)
    cpu = serving_cpu_s(workers)
    start = clock()
    end = start + inputs.closed_seconds
    windows = observed.closed_windows
    pool = inputs.closed_pool
    inflight = deque()
    submitted = 0
    while True:
        while len(inflight) < CLOSED_IN_FLIGHT and clock() < end:
            slot = submitted % len(pool)
            submitted += 1
            try:
                inflight.append((slot, service.submit(pool[slot])))
            except ServiceOverloadedError:
                observed.closed_failed += 1
        if not inflight:
            break
        slot, pending = inflight.popleft()
        answer, done = _settle(pending)
        if answer is None:
            observed.closed_failed += 1
            continue
        observed.closed_digests[slot] = answer_digest(answer.rows)
        observed.closed_answered[slot] = 1
        window = int((done - start) / CAPACITY_WINDOW_S)
        if window < len(windows):
            windows[window] += 1
    observed.closed_cpu_s += serving_cpu_s(workers) - cpu
    observed.closed_attempted += submitted
    observed.add_counts(before, counters(service))


def _write_loop(inputs, service, base, stop, observed):
    for index, op in enumerate(inputs.writes):
        target = base + op.due
        delay = target - clock()
        if delay > 0 and stop.wait(delay):
            break
        observed.write_start[index] = clock()
        ok = True
        try:
            if op.kind == "digest":
                service.digest(op.epoch, op.counts)
            elif op.kind == "insert":
                service.insert(op.poi, op.history)
            else:
                service.delete(op.poi_id)
        except Exception as exc:
            ok = False
            observed.write_errors.append("%s %r: %r" % (op.kind, op.due, exc))
        observed.write_end[index] = clock()
        observed.write_state[index] = 1 if ok else 2
