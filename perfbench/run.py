"""The repository benchmark: one serving workload per run.

    python3 perfbench/run.py --workload tree-rw --seed 7 --seconds 18 --trace 0

Generates every input before timing (the schedules from ``--seed``,
over a fixed data set), opens the on-disk state through the paths
``repro serve`` uses, drives the workload through ``QueryService`` for
``--seconds`` (an open loop, then a closed loop),
checks the answers against the oracle and prints one JSON line: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  The
line before it is the host fingerprint.  Exit status 0 means every
answer matched the oracle.  See ``perfbench/README.md``.
"""

import argparse
import gc
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import platform
import shutil
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tree-rw", "cluster-inproc", "cluster-workers")
#: Set-ups per untraced run; ``setup_s`` is their median.  A worker
#: cluster takes about 5 s to start and its set-up times spread least,
#: so it samples fewer.
SETUP_REPS = {"tree-rw": 5, "cluster-inproc": 5, "cluster-workers": 3}
#: A query generator later than this at p99 fell behind, and the run's
#: latencies are flagged invalid.  The bounded metrics do not depend on
#: when queries were sent, so the run still counts.
QUERY_LATE_LIMIT_MS = 50.0
#: The writer queues behind slow digests by design; past this it fell behind.
WRITER_LATE_LIMIT_MS = 2000.0

E2E_UNITS = {
    "setup_s": "s",
    "query_cpu_ms": "ms",
    "rss_mb": "MiB",
}
#: Wall-clock serving figures have no bound.  On a shared host the time
#: it takes to wake a waiting thread drifts from minute to minute, and
#: latency and closed-loop throughput move several times as far as the
#: work itself; ``query_cpu_ms`` follows the work.  They are printed on
#: stderr, and a traced run reports them as ``bench.*`` metrics.  Write,
#: digest and push latencies exist on ``tree-rw`` only.
UNBOUNDED = (
    "query_capacity_qps",
    "query_p50_ms",
    "query_p99_ms",
    "write_p50_ms",
    "write_p99_ms",
    "digest_p50_ms",
    "push_lag_p50_ms",
    "push_lag_p99_ms",
)


def metric_names(trace):
    """The metrics a run prints, the same on every workload."""
    if trace:
        import layers

        return list(layers.UNITS)
    return list(E2E_UNITS)


def child_pids():
    """The processes whose parent is this one, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children():
    """Stop every process this one started and wait until each has ended.

    Multiprocessing starts the input generator and the shard workers,
    and with the first of them a resource-tracker process that would
    otherwise outlive this one: it exits only when its pipe closes,
    after this process is gone, and is then never reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = multiprocessing.resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes the pipe and waits for the tracker to exit
    for pid in child_pids():
        # Not a multiprocessing child, or a tracker ``_stop`` missed: it
        # ignores SIGTERM, so kill.
        print("perfbench: killing leftover process %d" % pid, file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def git_revision():
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One workload run: inputs, the served state, the raw observations."""

    def __init__(self, name, seed, seconds, scale, workdir):
        import inputs

        child = multiprocessing.get_context("spawn").Process(
            target=inputs.generate, args=(name, seed, seconds, workdir, scale)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError("input generation failed (exit code %r)" % child.exitcode)
        self.inputs = inputs.load(workdir)
        # The schedules are the benchmark's, not the server's: keep them
        # out of the cyclic collector's passes so its pauses are the
        # served state's own.
        gc.collect()
        gc.freeze()
        self.failures = []

    def serve(self, label, tracer=None, setups=1):
        """Set up, drive the open and closed loops, then time more set-ups.

        The first set-up starts from a clean heap and serves the run.
        The coordinator's memory is its RSS growth from before that
        set-up to the larger of its RSS at the ends of the two loops;
        each worker adds its peak RSS over the run.  When the open loop
        wrote to the state, the closed loop runs on a freshly opened
        copy, so capacity does not depend on which writes a seed drew;
        that re-open is a set-up sample too.  Further set-ups, each
        opened and closed on its own copy, follow the run until there
        are ``setups`` samples.  ``tracer`` (already installed) is
        removed before anything closes.
        """
        import drive

        inputs = self.inputs
        observed = drive.Observed(inputs)
        samples = []
        served = None
        try:
            state = inputs.fresh_state(label)
            gc.collect()
            baseline = drive.rss_mb()
            served, seconds = drive.open_served(inputs, state)
            samples.append(seconds)
            wal = os.path.join(state, "tree.wal")
            wal_before = os.path.getsize(wal) if os.path.exists(wal) else 0
            drive.run_open(inputs, served, observed)
            wal_bytes = (os.path.getsize(wal) if os.path.exists(wal) else 0) - wal_before
            peak = drive.rss_mb()
            if inputs.writes:
                start = drive.clock()
                served.close()
                served = None
                gc.collect()
                served, seconds = drive.open_served(
                    inputs, inputs.fresh_state("%s-closed" % label)
                )
                samples.append(seconds)
                observed.reopened = (start, drive.clock())
            drive.run_closed(inputs, served, observed)
            peak = max(peak, drive.rss_mb())
            workers = served.worker_pids()
            rss = peak - baseline + sum(drive.peak_rss_mb(pid) for pid in workers)
        finally:
            if tracer is not None:
                tracer.uninstall()
            if served is not None:
                served.close()
        while len(samples) < setups:
            served = None
            gc.collect()
            try:
                served, seconds = drive.open_served(
                    inputs, inputs.fresh_state("%s-setup%d" % (label, len(samples)))
                )
                samples.append(seconds)
            finally:
                if served is not None:
                    served.close()
        return dict(observed=observed, setups=samples, rss=rss,
                    workers=len(workers), wal_bytes=wal_bytes)

    def check(self, observed):
        import drive
        import oracle

        start = drive.clock()
        verdict = oracle.check(self.inputs, observed)
        print(
            "perfbench: oracle checked %d answers and %d pushed updates in %.1f s, %d mismatches"
            % (verdict.checked_queries, verdict.checked_pushes, drive.clock() - start,
               len(verdict.mismatches)),
            file=sys.stderr,
        )
        for line in verdict.mismatches[:5]:
            print("perfbench: mismatch: " + line, file=sys.stderr)
        if verdict.mismatches:
            self.failures.append("%d oracle mismatches" % len(verdict.mismatches))
        if verdict.checked_queries == 0:
            self.failures.append("the oracle checked no query")

    def end_to_end(self, outcome):
        """The end-to-end metrics of one untraced pass, plus counts."""
        import drive
        from layers import percentile

        inputs, observed = self.inputs, outcome["observed"]
        base = observed.base
        latencies, late = [], []
        for slot, (due, _query) in enumerate(inputs.open_schedule):
            late.append((observed.open_sent[slot] - base - due) * 1000.0)
            if observed.open_done[slot]:
                latencies.append((observed.open_done[slot] - base - due) * 1000.0)
        attempted = len(late) + observed.closed_attempted
        failed = len(late) - len(latencies) + observed.closed_failed
        completed = observed.closed_attempted - observed.closed_failed
        metrics = {
            "setup_s": statistics.median(outcome["setups"]),
            "query_p50_ms": percentile(latencies, 0.50),
            "query_cpu_ms": observed.closed_cpu_s * 1000.0 / max(completed, 1),
            "query_capacity_qps": (
                statistics.median(observed.closed_windows) / drive.CAPACITY_WINDOW_S
            ),
            "rss_mb": outcome["rss"],
        }
        samples = {"open-loop queries": len(latencies), "set-ups": len(outcome["setups"])}
        behind = []
        if inputs.writes:
            writes, digests, writer_late, digest_dues = [], [], [], []
            for index in observed.executed_writes():
                op = inputs.writes[index]
                due = base + op.due
                attempted += 1
                writer_late.append((observed.write_start[index] - due) * 1000.0)
                if op.kind == "digest":
                    digest_dues.append(due)
                if observed.write_state[index] != 1:
                    failed += 1
                elif op.kind == "digest":
                    digests.append((observed.write_end[index] - due) * 1000.0)
                else:
                    writes.append((observed.write_end[index] - due) * 1000.0)
            lags = []
            for _spec, _initial, log in observed.subscriptions:
                for slot, due in enumerate(digest_dues):
                    if log.state[slot]:
                        lags.append((log.received[slot] - due) * 1000.0)
            metrics.update({
                "write_p50_ms": percentile(writes, 0.50),
                "write_p99_ms": percentile(writes, 0.99),
                "digest_p50_ms": percentile(digests, 0.50),
                "push_lag_p50_ms": percentile(lags, 0.50),
                "push_lag_p99_ms": percentile(lags, 0.99),
            })
            samples.update(writes=len(writes), digests=len(digests), pushes=len(lags))
            writer_p99 = percentile(writer_late, 0.99)
            if writer_p99 > WRITER_LATE_LIMIT_MS:
                behind.append("the writer fell behind (p99 %.1f ms late)" % writer_p99)
            for line in observed.write_errors[:5]:
                print("perfbench: write failed: " + line, file=sys.stderr)
        late_p99 = percentile(late, 0.99)
        if late_p99 > QUERY_LATE_LIMIT_MS:
            behind.append("the query generator fell behind (p99 %.1f ms late)" % late_p99)
        metrics["query_p99_ms"] = percentile(latencies, 0.99)
        print("perfbench: samples %s, generator late p99 %.3f ms"
              % (json.dumps(samples, sort_keys=True), late_p99), file=sys.stderr)
        print("perfbench: unbounded %s%s" % (
            ", ".join("%s %.3f" % (name, metrics[name]) for name in UNBOUNDED if name in metrics),
            " (latencies invalid: %s)" % "; ".join(behind) if behind else "",
        ), file=sys.stderr)
        return metrics, attempted, failed, late_p99


def run_workload(name, seed, seconds, trace, scale=1.0, trace_dir=None):
    """Run one workload; returns ``(result dict, host fingerprint)``.

    ``scale`` shrinks the data set; only the self-test passes it.
    """
    import drive
    import layers

    workdir = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (name, seed, os.getpid()))
    try:
        run = Run(name, seed, seconds, scale, workdir)
        if not trace:
            outcome = run.serve("serve", setups=SETUP_REPS[name])
            run.check(outcome["observed"])
            metrics, attempted, failed, _late = run.end_to_end(outcome)
        else:
            import spans

            plain = run.serve("plain")
            run.check(plain["observed"])
            plain_metrics, attempted, failed, _late = run.end_to_end(plain)
            setup_base = drive.clock()
            tracer = spans.install()
            outcome = run.serve("traced", tracer=tracer)
            run.check(outcome["observed"])
            traced_metrics, more, more_failed, late_p99 = run.end_to_end(outcome)
            attempted += more
            failed += more_failed
            metrics = layers.compute(
                layers.SpanIndex(tracer.spans),
                run.inputs,
                outcome["observed"],
                setup_base,
                plain_metrics["query_p50_ms"],
                traced_metrics["query_p50_ms"],
                late_p99,
                outcome["wal_bytes"],
            )
            for figure in UNBOUNDED:
                metrics["bench." + figure] = plain_metrics.get(figure, 0.0)
            problems = layers.check_well_formed(tracer.spans)
            if problems:
                run.failures.append("malformed spans: " + problems[0])
            write_trace(
                tracer.spans,
                trace_dir or os.path.join(ROOT, ".perfbench", "traces"),
                "%s-seed%d.json" % (name, seed),
            )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures:
        print("perfbench: " + failure, file=sys.stderr)
    correct = not run.failures
    units = layers.UNITS if trace else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A wrong run reports no figures.
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]}
            for metric in metric_names(trace)
        } if correct else {},
    }
    return result, host_fingerprint(run.inputs, outcome)


def host_fingerprint(inputs, outcome):
    """What a result must be read with: host, revision, seed, parallelism."""
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "seed": inputs.seed,
        "workload": inputs.workload.name,
        "processes": 1 + outcome["workers"],
        "threads": outcome["observed"].threads,
        # Worker processes on one core cannot show a parallel speedup.
        "parallel_result": outcome["workers"] > 0 and cpus >= 2,
    }


def write_trace(spans, directory, filename):
    """Write the spans out, one JSON array per span, ident made printable."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        for sid, name, start, end, parent, ident, thread in spans:
            if isinstance(ident, list):
                ident = [id(item) for item in ident]
            elif ident is not None and not isinstance(ident, str):
                ident = id(ident)
            handle.write(json.dumps([sid, name, start, end, parent, ident, thread]) + "\n")
    print("perfbench: %d spans written to %s" % (len(spans), path), file=sys.stderr)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Terminated, still stop the children on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, fingerprint = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"host": fingerprint}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
