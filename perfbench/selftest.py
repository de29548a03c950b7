"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload on a 5% data set for two seconds, untraced and
traced, and checks four things:

* every metric prints with the unit ``BENCHMARK.json`` gives it, for
  each workload it applies to, and the oracle passed;
* the spans a traced run writes out are well formed: every parent
  resolves and every self time is >= 0;
* ``trace.unattributed_frac`` rises with request time no span covers
  (on hand-made spans);
* shard worker processes are reaped when a run fails part-way, and no
  run, failed or not, leaves a child process behind (the input
  generator, a worker, multiprocessing's resource tracker).

Exits 0 when every check passes.  Shard workers start with
multiprocessing ``spawn``, which re-imports this module: everything
runs under the ``__main__`` guard.
"""

import json
import math
import multiprocessing
import os
import shutil
import sys

SCALE = 0.05
SECONDS = 2.0


def check_metrics(run, name, trace, result, spec, problems):
    section = "per_layer" if trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    printed = result["metrics"]
    if not result["correct"]:
        problems.append("%s trace=%d: run not correct" % (name, trace))
        return
    for metric in run.metric_names(trace):
        entry = printed.get(metric)
        if entry is None:
            problems.append("%s trace=%d: %s missing" % (name, trace, metric))
        elif entry["unit"] != units.get(metric):
            problems.append("%s trace=%d: %s unit %r, BENCHMARK.json %r"
                            % (name, trace, metric, entry["unit"], units.get(metric)))
        elif not math.isfinite(entry["value"]):
            problems.append("%s trace=%d: %s is %r" % (name, trace, metric, entry["value"]))
    for metric in printed:
        if metric not in units:
            problems.append("%s trace=%d: %s is not in BENCHMARK.json" % (name, trace, metric))


def check_trace_file(path, problems):
    import layers

    if not os.path.exists(path):
        problems.append("%s: not written" % path)
        return
    with open(path) as handle:
        spans = [tuple(json.loads(line)) for line in handle]
    if not spans:
        problems.append("%s: no spans" % path)
    for problem in layers.check_well_formed(spans)[:5]:
        problems.append("%s: %s" % (path, problem))


def check_unattributed(problems):
    """``trace.unattributed_frac`` follows request time no span covers.

    One request on hand-made spans: submitted over [0, 1], its read
    lock acquired over [3, 4] and its search over [4, 8], with a frame
    lookup nested in the search.  Time after the search and a lock
    taken on another thread must both count as uncovered.
    """
    import layers

    query = object()

    def fraction(lock_thread, done):
        spans = [
            (1, "service.submit", 0.0, 1.0, None, query, 1),
            (2, "lock.read", 3.0, 4.0, None, layers.SERVICE_LOCK, lock_thread),
            (3, "core.knnta_search", 4.0, 8.0, None, query, 2),
            (4, "core.frames.frame", 5.0, 6.0, 3, None, 2),
        ]
        waits, windows, uncovered = layers.request_time(
            layers.SpanIndex(spans), [(query, done)], lambda start: True
        )
        if waits != [3.0]:
            problems.append("queue wait %r, expected [3.0]" % (waits,))
        return uncovered / windows

    for lock_thread, done, expected in ((2, 8.0, 2 / 8), (2, 12.0, 6 / 12), (9, 8.0, 3 / 8)):
        got = fraction(lock_thread, done)
        if abs(got - expected) > 1e-12:
            problems.append(
                "unattributed share %r for lock thread %d, completion %r; expected %r"
                % (got, lock_thread, done, expected)
            )


def check_no_children(run, label, problems):
    """A run leaves no child process behind, not even a zombie."""
    left = run.child_pids()
    if left:
        problems.append("%s: child processes %r outlived the run" % (label, left))


def check_reaped(run, problems):
    """A run that fails with workers up must leave no worker behind."""
    import drive

    spawned = []
    open_served = drive.open_served
    run_open = drive.run_open

    def recording_open(inputs, state_dir):
        served, seconds = open_served(inputs, state_dir)
        spawned.extend(served.worker_pids())
        return served, seconds

    def failing_run_open(*args, **kwargs):
        raise RuntimeError("injected failure")

    drive.open_served, drive.run_open = recording_open, failing_run_open
    try:
        run.run_workload("cluster-workers", 1, SECONDS, False, scale=SCALE)
        problems.append("the injected failure did not fail the run")
    except RuntimeError:
        pass
    finally:
        drive.open_served, drive.run_open = open_served, run_open
    if not spawned:
        problems.append("no worker was spawned before the failure")
    alive = [child.pid for child in multiprocessing.active_children()]
    for pid in spawned:
        if pid in alive or os.path.exists("/proc/%d" % pid) and _running(pid):
            problems.append("worker %d survived a failed run" % pid)
    check_no_children(run, "failed cluster-workers run", problems)


def _running(pid):
    with open("/proc/%d/stat" % pid) as handle:
        return handle.read().split(") ", 1)[1][0] != "Z"


def main():
    import run

    if not os.path.isdir(os.path.join(run.SRC, "repro")):
        print("selftest: no program source under %s" % run.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    trace_dir = os.path.join(run.ROOT, ".perfbench", "selftest-traces")
    shutil.rmtree(trace_dir, ignore_errors=True)  # check only this run's files
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            result, fingerprint = run.run_workload(
                name, 1, SECONDS, bool(trace), scale=SCALE, trace_dir=trace_dir
            )
            check_metrics(run, name, trace, result, spec, problems)
            check_no_children(run, "%s trace=%d" % (name, trace), problems)
            if fingerprint["cpu_count"] != os.cpu_count():
                problems.append("%s: fingerprint cpu_count is wrong" % name)
            if trace:
                check_trace_file(os.path.join(trace_dir, "%s-seed1.json" % name), problems)
            print("selftest: %s trace=%d done" % (name, trace), file=sys.stderr)
    check_unattributed(problems)
    check_reaped(run, problems)
    for problem in problems:
        print("selftest: FAIL " + problem, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
