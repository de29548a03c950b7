"""Command-line interface: ``python -m repro <command>``.

Commands cover the library's end-to-end flow without writing code:

* ``generate`` — synthesise a data set (one of the paper's presets,
  scaled) and save it as ``.npz``.
* ``fit`` — fit the Table 2 power law to a saved data set.
* ``build`` — build a TAR-tree over a saved data set and persist it.
* ``query`` — answer a kNNTA query against a saved tree, reporting the
  ranked POIs and the simulated I/O cost.
* ``mwa`` — suggest the minimum weight adjustment for a query.
* ``verify`` — load a saved tree and run the deep invariant validators
  (:mod:`repro.reliability.validate`); optionally reconcile the leaf
  TIAs against the source data set.
* ``recover`` — rebuild a crash-recoverable ingest state
  (:mod:`repro.reliability.recovery`): load the checkpoint snapshot in
  a directory, replay its mutation WAL, and report per-record-type
  replay counts; optionally reconcile against the source data set and
  re-checkpoint the recovered tree.
* ``serve`` — serve a tree over TCP (JSON lines) through the
  concurrent :mod:`repro.service` query service: micro-batching,
  WAL-logged single-writer ingest (with ``--state-dir``) and the
  background scrubber.  With ``--cluster``
  the positional argument is a cluster directory written by ``shard``
  and the service fronts the scatter-gather coordinator.
* ``shard`` — partition a saved data set into N spatial shards
  (:mod:`repro.cluster`), each with its own TAR-tree, WAL and
  snapshot, tied together by a routing manifest.  ``serve --cluster
  --shard-workers`` serves the same directory with one worker
  *process* per shard behind the scatter-gather coordinator.
* ``shard-worker`` — run a single shard's worker process over its
  state directory (normally spawned by ``serve --shard-workers``).
* ``lint`` — run the project's static-analysis rules
  (:mod:`repro.devtools`): lock discipline, WAL-before-apply, bare
  asserts, float equality, exception hygiene, guarded shard dispatch
  and the whole-program lock-order rules.

Exit codes (all commands): ``0`` success, ``1`` a check failed (a scan
cross-check mismatch, ``verify`` found invariant violations, ``lint``
found rule violations, or ``recover --verify`` found violations after
replay), ``2`` a data set, snapshot or WAL was missing, corrupt or
unreadable (``CorruptSnapshotError``), has a format this build does not
read or is not a tree snapshot (``UnsupportedSnapshotError``), or, for
``lint``, bad usage (unknown rule id or missing path).  ``argparse``
itself exits with ``2`` on bad usage.

Example session::

    python -m repro generate --preset GS --scale 0.05 --out gs.npz
    python -m repro fit gs.npz
    python -m repro build gs.npz --strategy integral3d --out gs-tree.json
    python -m repro query gs-tree.json --x 50 --y 50 --last-days 28 --k 5
    python -m repro mwa gs-tree.json --x 50 --y 50 --last-days 28 --k 5
    python -m repro verify gs-tree.json --dataset gs.npz
    python -m repro recover state-dir --dataset gs.npz --checkpoint
    python -m repro serve gs-tree.json --port 7777 --state-dir state-dir
    python -m repro shard gs.npz --shards 4 --out gs-cluster
    python -m repro serve gs-cluster --cluster --port 7778
    python -m repro query gs-cluster --x 50 --y 50 --last-days 28 --explain
"""

import argparse
import sys

from repro.temporal.epochs import TimeInterval


def _add_query_arguments(parser):
    parser.add_argument(
        "tree",
        help="tree file written by 'build' (for 'query', a cluster "
        "directory written by 'shard' also works)",
    )
    parser.add_argument("--x", type=float, required=True, help="query point x")
    parser.add_argument("--y", type=float, required=True, help="query point y")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--last-days",
        type=float,
        help="query the trailing interval of this many days",
    )
    group.add_argument(
        "--interval",
        nargs=2,
        type=float,
        metavar=("START", "END"),
        help="explicit query interval",
    )
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--alpha0", type=float, default=0.3)


def _resolve_interval(tree, args):
    if args.interval is not None:
        return TimeInterval(args.interval[0], args.interval[1])
    return TimeInterval(tree.current_time - args.last_days, tree.current_time)


def build_parser():
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAR-tree / kNNTA queries (EDBT 2015 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise a data set and save it as .npz"
    )
    generate.add_argument(
        "--preset", default="NYC", help="NYC, LA, GW or GS (Table 4)"
    )
    generate.add_argument("--scale", type=float, default=0.05)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)

    fit = commands.add_parser(
        "fit", help="fit the Table 2 power law to a saved data set"
    )
    fit.add_argument("dataset", help="data set file written by 'generate'")
    fit.add_argument("--bootstrap", type=int, default=20, help="p-value resamples")
    fit.add_argument("--seed", type=int, default=0)

    build = commands.add_parser(
        "build", help="build a TAR-tree over a saved data set"
    )
    build.add_argument("dataset", help="data set file written by 'generate'")
    build.add_argument(
        "--strategy",
        default="integral3d",
        help="integral3d (TAR-tree), spatial (IND-spa) or aggregate (IND-agg)",
    )
    build.add_argument("--epoch-days", type=float, default=7.0)
    build.add_argument("--node-size", type=int, default=1024)
    build.add_argument("--tia-backend", default="paged",
                       help="paged, memory or mvbt")
    build.add_argument("--out", required=True)

    shard = commands.add_parser(
        "shard",
        help="partition a data set into spatial shards (a cluster directory)",
        description=(
            "Plan N spatial shards over a saved data set (k-d median "
            "splits by default, or a uniform grid), build one TAR-tree "
            "per shard, and write a cluster directory: per-shard "
            "checkpoints + WALs plus a cluster.json routing manifest. "
            "Serve it with 'serve --cluster' or query it directly with "
            "'query'. See docs/CLUSTER.md."
        ),
    )
    shard.add_argument("dataset", help="data set file written by 'generate'")
    shard.add_argument(
        "--shards", type=int, default=4, help="number of shards (default 4)"
    )
    shard.add_argument(
        "--method",
        default="kd",
        choices=("kd", "grid"),
        help="partitioning method: kd (balanced median splits) or grid",
    )
    shard.add_argument(
        "--strategy",
        default="integral3d",
        help="integral3d (TAR-tree), spatial (IND-spa) or aggregate (IND-agg)",
    )
    shard.add_argument("--epoch-days", type=float, default=7.0)
    shard.add_argument("--node-size", type=int, default=1024)
    shard.add_argument("--tia-backend", default="paged",
                       help="paged, memory or mvbt")
    shard.add_argument("--out", required=True, help="cluster directory to create")

    query = commands.add_parser("query", help="answer one kNNTA query")
    _add_query_arguments(query)
    query.add_argument(
        "--scan",
        action="store_true",
        help="also run the sequential-scan baseline and cross-check",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the full flat cost mapping (per-shard keys for a cluster)",
    )

    mwa = commands.add_parser(
        "mwa", help="suggest the minimum weight adjustment for a query"
    )
    _add_query_arguments(mwa)
    mwa.add_argument(
        "--method", default="pruning", help="pruning or enumerating"
    )

    verify = commands.add_parser(
        "verify",
        help="validate a saved tree's structural and aggregate invariants",
        description=(
            "Load a tree snapshot (verifying its checksums) and run the "
            "deep invariant validators: R*-tree structure, the internal-"
            "TIA max-invariant, and — with --dataset — leaf-TIA histories "
            "against the source data set. Exit code 0: all invariants "
            "hold; 1: violations found (summarised on stdout); 2: the "
            "snapshot is corrupt or unreadable."
        ),
    )
    verify.add_argument("tree", help="tree file written by 'build'")
    verify.add_argument(
        "--dataset",
        help="also reconcile leaf TIAs against this data set (.npz)",
    )
    verify.add_argument(
        "--max-report",
        type=int,
        default=10,
        help="maximum violations to print (default 10)",
    )

    recover = commands.add_parser(
        "recover",
        help="replay a checkpoint directory's mutation WAL after a crash",
        description=(
            "Load the checkpoint snapshot in DIRECTORY (verifying its "
            "checksums), replay the mutation WAL past the snapshot's "
            "applied-LSN high-water mark (dropping a torn tail), and "
            "print the per-record-type replay counts. Exit code 0: "
            "recovery succeeded; 1: --verify found invariant violations "
            "in the recovered tree; 2: the snapshot or WAL is corrupt "
            "or unreadable."
        ),
    )
    recover.add_argument(
        "directory", help="state directory written by CheckpointedIngest"
    )
    recover.add_argument(
        "--name",
        default="tree",
        help="state name inside the directory (default 'tree')",
    )
    recover.add_argument(
        "--dataset",
        help="reconcile the recovered tree against this data set (.npz)",
    )
    recover.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a fresh checkpoint (snapshot + reset WAL) on success",
    )
    recover.add_argument(
        "--verify",
        action="store_true",
        help="run the deep invariant validators on the recovered tree",
    )

    serve = commands.add_parser(
        "serve",
        help="serve kNNTA queries over TCP (JSON lines)",
        description=(
            "Run the concurrent query service over a saved tree: a worker "
            "thread micro-batches concurrent same-interval queries and "
            "runs each batch rider by rider, mutations take the exclusive side "
            "of a readers-writer lock, and a background scrubber sweeps "
            "the index for TIA corruption. With --state-dir, mutations "
            "are WAL-logged there (crash-recoverable via 'recover'); if "
            "the directory already holds a checkpoint, the service "
            "resumes from it (replaying the WAL) instead of TREE. The "
            "wire protocol is one JSON object per line; see "
            "docs/SERVICE.md. Serves until a client sends "
            '{"op": "shutdown"}. With --cluster, TREE is a cluster '
            "directory written by 'shard': every shard recovers from "
            "its own WAL and queries run the scatter-gather coordinator "
            "(see docs/CLUSTER.md); with --shard-workers as well, any "
            "queued queries share a batch, at most two frames per "
            "worker."
        ),
    )
    serve.add_argument(
        "tree",
        help="tree file written by 'build' (with --cluster: a cluster "
        "directory written by 'shard')",
    )
    serve.add_argument(
        "--cluster",
        action="store_true",
        help="serve a sharded cluster directory instead of a single tree",
    )
    serve.add_argument(
        "--shard-workers",
        action="store_true",
        help="cluster mode: serve each shard from its own worker "
        "*process* (one per manifest shard) behind the scatter-gather "
        "coordinator, instead of in-process shard threads; implies "
        "--cluster",
    )
    serve.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="cluster mode: concurrent shard searches per query "
        "(default: the value recorded in the manifest)",
    )
    serve.add_argument(
        "--allow-degraded",
        action="store_true",
        help="cluster mode: when a shard is down and the bound "
        "certificate cannot prove the answer exact, return an "
        "explicitly degraded result (coverage + score bound) instead "
        "of failing the query",
    )
    serve.add_argument(
        "--shard-timeout-ms",
        type=float,
        default=0.0,
        help="cluster mode: per-shard dispatch deadline before the "
        "circuit breaker counts a timeout; 0 disables the deadline "
        "(shard calls run inline)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="with --shard-workers: micro-batches run at once (query "
        "worker threads); a tree or in-process cluster, whose searches "
        "run in this interpreter, always gets one thread",
    )
    serve.add_argument(
        "--batch-size", type=int, default=16, help="max queries per micro-batch"
    )
    serve.add_argument(
        "--linger-ms",
        type=float,
        default=2.0,
        help="micro-batching window: how long a worker waits for peers "
        "while no other request is queued",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="admission control: max queued requests before rejecting",
    )
    serve.add_argument(
        "--state-dir",
        help="WAL-log mutations into this checkpoint directory "
        "(resumes from it when it already holds a snapshot)",
    )
    serve.add_argument(
        "--name",
        default="tree",
        help="state name inside --state-dir (default 'tree')",
    )
    serve.add_argument(
        "--scrub-interval-ms",
        type=float,
        default=1000.0,
        help="background scrubber tick period; 0 disables the thread",
    )
    serve.add_argument(
        "--scrub-budget", type=int, default=32, help="nodes scrubbed per tick"
    )

    watch = commands.add_parser(
        "watch",
        help="stand a sliding-window kNNTA subscription over a saved tree",
        description=(
            "Register a standing top-k subscription at a query point: "
            "print the initial ranked answer for the trailing window of "
            "--window epochs, then — with --dataset — replay the data "
            "set's check-ins past the tree's current time, digesting one "
            "epoch at a time and printing each pushed update's ordered "
            "enter/leave/move deltas (see docs/CONTINUOUS.md). Works over "
            "a tree file or a cluster directory written by 'shard'. "
            "Without --dataset the initial answer is printed and the "
            "command exits."
        ),
    )
    watch.add_argument(
        "tree",
        help="tree file written by 'build' or a cluster directory "
        "written by 'shard'",
    )
    watch.add_argument("--x", type=float, required=True, help="query point x")
    watch.add_argument("--y", type=float, required=True, help="query point y")
    watch.add_argument(
        "--window",
        type=int,
        required=True,
        help="sliding window width in epochs",
    )
    watch.add_argument("--k", type=int, default=10)
    watch.add_argument("--alpha0", type=float, default=0.3)
    watch.add_argument(
        "--semantics",
        default="intersects",
        choices=("intersects", "contained"),
        help="epoch membership semantics for the window interval",
    )
    watch.add_argument(
        "--dataset",
        help="replay this data set's check-ins beyond the tree's current "
        "time, one digested epoch per window advance",
    )
    watch.add_argument(
        "--max-updates",
        type=int,
        default=None,
        help="stop after this many pushed updates (default: replay all)",
    )

    shard_worker = commands.add_parser(
        "shard-worker",
        help="run one shard's worker process (spawned by 'serve "
        "--shard-workers'; runnable standalone for debugging)",
        description=(
            "Recover one shard state directory (snapshot + WAL replay) "
            "and serve its TAR-tree over the JSON-lines wire protocol "
            "until a client sends {\"op\": \"shutdown\"}. The bound "
            "endpoint is announced by atomically writing worker.json "
            "into the shard directory (or --announce). Normally "
            "spawned per shard by 'serve --shard-workers'; see "
            "docs/CLUSTER.md."
        ),
    )
    shard_worker.add_argument(
        "--dir",
        required=True,
        dest="directory",
        help="shard state directory (snapshot + WAL) to serve",
    )
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    shard_worker.add_argument(
        "--name",
        default="tree",
        help="state name inside the shard directory (default 'tree')",
    )
    shard_worker.add_argument(
        "--announce",
        default=None,
        help="endpoint announce file (default: <dir>/worker.json)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the project's static-analysis rules over source trees",
        description=(
            "Run the repro.devtools lint rules: RT001 lock-discipline, "
            "RT002 wal-before-apply, RT003 no-bare-assert, RT004 "
            "float-equality, RT005 exception-hygiene, RT007 "
            "guarded-shard-dispatch, RT008 lock-order, RT009 "
            "no-blocking-under-lock, RT010 "
            "no-foreign-callback-under-lock (plus RT000 "
            "unused-suppression and RT900 parse-error meta findings). "
            "RT008-RT010 run one shared whole-program pass over the "
            "cross-module call graph against the canonical lock "
            "hierarchy in repro.devtools.lockmodel. Suppress one "
            "finding with a same-line '# repro: allow[RT001]' comment "
            "('# repro: allow[RT008,RT009]' covers several rules); see "
            "docs/DEVTOOLS.md. Exit code 0: clean; 1: findings; 2: "
            "unknown rule id or missing path."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/ when present, else .)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is stable for CI annotations)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--lock-graph",
        action="store_true",
        help=(
            "emit the derived lock-order graph instead of the findings "
            "report: declared hierarchy nodes plus every (held -> "
            "acquired) edge RT008 derived, Graphviz DOT under --format "
            "text, machine-readable JSON under --format json; exits 1 "
            "when the graph has a violating edge or cycle (or other "
            "findings remain)"
        ),
    )

    return parser


def _split_rule_ids(value):
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _command_lint(args, out):
    import os

    from repro.devtools import lint_paths, render_json, render_text

    paths = args.paths
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print("no such path: %s" % ", ".join(missing), file=out)
        return 2
    select = _split_rule_ids(args.select)
    ignore = _split_rule_ids(args.ignore)
    lock_graph = getattr(args, "lock_graph", False)
    if lock_graph and (
        (select is not None and "RT008" not in select)
        or (ignore is not None and "RT008" in ignore)
    ):
        print("--lock-graph needs the RT008 pass selected", file=out)
        return 2
    artifacts = {} if lock_graph else None
    try:
        findings, files_checked = lint_paths(
            paths, select=select, ignore=ignore, artifacts=artifacts
        )
    except ValueError as exc:
        print(str(exc), file=out)
        return 2
    if lock_graph:
        import json

        from repro.devtools import render_graph_dot, render_graph_json

        edges = artifacts.get("lock_edges", [])
        graph = render_graph_json(edges)
        if args.format == "json":
            json.dump(graph, out, indent=2)
            out.write("\n")
        else:
            out.write(render_graph_dot(edges))
        return 1 if findings or not graph["acyclic"] else 0
    renderer = render_json if args.format == "json" else render_text
    renderer(findings, files_checked, out)
    return 1 if findings else 0


def _command_generate(args, out):
    from repro import datasets
    from repro.storage.serialize import save_dataset

    data = datasets.make(args.preset, scale=args.scale, seed=args.seed)
    save_dataset(data, args.out)
    print(
        "wrote %s: %d POIs, %d check-ins over %.0f days (%d effective)"
        % (
            args.out,
            data.num_pois,
            data.total_checkins(),
            data.span_days,
            len(data.effective_poi_ids()),
        ),
        file=out,
    )
    return 0


def _command_fit(args, out):
    from repro.analysis.powerlaw import fit_discrete_powerlaw, goodness_of_fit

    data = _load_dataset(args.dataset, out)
    if data is None:
        return 2
    totals = [v for v in data.totals().values() if v > 0]
    fit = fit_discrete_powerlaw(totals)
    gof = goodness_of_fit(totals, fit, n_bootstrap=args.bootstrap, seed=args.seed)
    print(
        "%s: n=%d beta=%.2f xmin=%d KS=%.4f p-value=%.2f (%s)"
        % (
            data.name,
            fit.n_total,
            fit.beta,
            fit.xmin,
            fit.ks_distance,
            gof.p_value,
            "plausible power law" if gof.plausible else "power law rejected",
        ),
        file=out,
    )
    return 0


def _command_build(args, out):
    from repro.core.tar_tree import TARTree
    from repro.storage.serialize import save_tree

    data = _load_dataset(args.dataset, out)
    if data is None:
        return 2
    tree = TARTree.build(
        data,
        epoch_length=args.epoch_days,
        strategy=args.strategy,
        node_size=args.node_size,
        tia_backend=args.tia_backend,
    )
    save_tree(tree, args.out)
    print(
        "wrote %s: %s (%d nodes, height %d)"
        % (args.out, tree, tree.node_count(), tree.height),
        file=out,
    )
    return 0


def _load_dataset(path, out):
    """Load a data set archive, or print why not and return None (exit 2)."""
    from repro.storage.serialize import (
        CorruptSnapshotError,
        UnsupportedSnapshotError,
        load_dataset,
    )

    try:
        return load_dataset(path)
    except CorruptSnapshotError as exc:
        print(
            "corrupt dataset snapshot (section %r): %s" % (exc.section, exc),
            file=out,
        )
    except UnsupportedSnapshotError as exc:
        print("cannot load dataset snapshot %s: %s" % (path, exc), file=out)
    except OSError as exc:
        print("cannot read dataset snapshot %s: %s" % (path, exc), file=out)
    return None


def _load_tree(path, out):
    """Load a tree snapshot, or print why not and return None (exit 2)."""
    from repro.storage.serialize import (
        CorruptSnapshotError,
        UnsupportedSnapshotError,
        load_tree,
    )

    try:
        return load_tree(path)
    except CorruptSnapshotError as exc:
        print("corrupt tree snapshot (section %r): %s" % (exc.section, exc), file=out)
    except UnsupportedSnapshotError as exc:
        print("cannot load tree snapshot %s: %s" % (path, exc), file=out)
    except OSError as exc:
        print("cannot read tree snapshot %s: %s" % (path, exc), file=out)
    return None


def _open_tree_or_cluster(path, out):
    """Open a tree file or a cluster directory.

    Returns ``(tree, cluster)`` — ``cluster`` is None for a single tree
    and must be closed by the caller otherwise — or ``(None, None)``
    after printing the error (exit code 2).
    """
    import os

    from repro.storage.serialize import CorruptSnapshotError, UnsupportedSnapshotError

    if not os.path.isdir(path):
        return _load_tree(path, out), None
    from repro.cluster import (
        ClusterStateError,
        is_cluster_directory,
        open_cluster,
    )

    if not is_cluster_directory(path):
        print(
            "%s is a directory but holds no cluster manifest "
            "(expected a tree file or a 'shard' output directory)" % path,
            file=out,
        )
        return None, None
    try:
        cluster = open_cluster(path)
    except (
        ClusterStateError,
        CorruptSnapshotError,
        UnsupportedSnapshotError,
        OSError,
    ) as exc:
        print("cannot open cluster %s: %s" % (path, exc), file=out)
        return None, None
    return cluster, cluster


def _command_query(args, out):
    from repro.core.query import KNNTAQuery
    from repro.core.scan import sequential_scan

    tree, cluster = _open_tree_or_cluster(args.tree, out)
    if tree is None:
        return 2
    try:
        interval = _resolve_interval(tree, args)
        query = KNNTAQuery(
            (args.x, args.y), interval, k=args.k, alpha0=args.alpha0
        )
        if cluster is not None:
            results, costs = cluster.explain(query)
        else:
            snapshot = tree.stats.snapshot()
            results = tree.query(query)
            costs = tree.stats.diff(snapshot).as_dict()
        print(
            "top-%d at (%g, %g) over [%g, %g], alpha0=%g:"
            % (args.k, args.x, args.y, interval.start, interval.end, args.alpha0),
            file=out,
        )
        for rank, result in enumerate(results, start=1):
            poi = tree.poi(result.poi_id)
            print(
                "  #%-3d %-12s (%8.2f, %8.2f)  score=%.4f  d=%.3f  g=%.3f"
                % (rank, result.poi_id, poi.x, poi.y, result.score,
                   result.distance, result.aggregate),
                file=out,
            )
        print(
            "cost: %(rtree_nodes)d node accesses "
            "(%(rtree_internal)d internal + %(rtree_leaf)d leaf), "
            "%(tia_pages)d TIA page reads, %(tia_buffer_hits)d buffer hits"
            % costs,
            file=out,
        )
        if cluster is not None:
            print(
                "cluster: %(shards.visited)d of %(shards)d shard(s) visited, "
                "%(shards.pruned)d pruned by the k-th score bound" % costs,
                file=out,
            )
        if not results.exact:
            # Any Answer may declare itself non-exact; today that is the
            # cluster's DegradedAnswer under --allow-degraded policies.
            print(
                "DEGRADED: %.0f%% coverage, shard(s) %s missed; every "
                "missing row would score >= %.4f"
                % (
                    results.coverage * 100.0,
                    ", ".join(str(i) for i in results.missed_shards),
                    results.score_bound,
                ),
                file=out,
            )
        if args.explain:
            # The flat, diffable cost mapping: one "key = value" line per
            # counter, per-shard counters under shards.<i>.* for a cluster.
            for key in sorted(costs):
                print("  %s = %d" % (key, costs[key]), file=out)
        if args.scan:
            expected = sequential_scan(tree, query)
            matches = [r.poi_id for r in results] == [r.poi_id for r in expected]
            print(
                "scan cross-check: %s" % ("OK" if matches else "MISMATCH"),
                file=out,
            )
            return 0 if matches else 1
        return 0
    finally:
        if cluster is not None:
            cluster.close()


def _command_watch(args, out):
    from repro.continuous import SubscriptionRegistry
    from repro.temporal.tia import IntervalSemantics

    data = None
    if args.dataset is not None:
        data = _load_dataset(args.dataset, out)
        if data is None:
            return 2
    tree, cluster = _open_tree_or_cluster(args.tree, out)
    if tree is None:
        return 2
    registry = SubscriptionRegistry(tree)

    def show(update):
        window = update.window
        print(
            "seq %d: window [%g, %g] (epochs %d..%d)%s"
            % (
                update.seq,
                window.interval.start,
                window.interval.end,
                window.first_epoch,
                window.latest_epoch,
                ", DEGRADED" if update.degraded else "",
            ),
            file=out,
        )
        for delta in update.deltas:
            row = delta.row
            if delta.kind.value == "leave":
                print("  leave #%-3d %s" % (delta.old_rank + 1, delta.poi_id),
                      file=out)
            elif delta.kind.value == "enter":
                print(
                    "  enter #%-3d %-12s score=%.4f"
                    % (delta.rank + 1, delta.poi_id, row.score),
                    file=out,
                )
            else:
                print(
                    "  move  #%-3d -> #%-3d %-12s score=%.4f"
                    % (delta.old_rank + 1, delta.rank + 1, delta.poi_id,
                       row.score),
                    file=out,
                )
        if not update.deltas:
            print("  (scores refreshed, ranks unchanged)", file=out)

    try:
        subscription, initial = registry.subscribe(
            (args.x, args.y),
            args.window,
            k=args.k,
            alpha0=args.alpha0,
            semantics=IntervalSemantics(args.semantics),
            sink=show,
        )
        print(
            "watching top-%d at (%g, %g), window %d epoch(s), alpha0=%g:"
            % (args.k, args.x, args.y, args.window, args.alpha0),
            file=out,
        )
        for rank, row in enumerate(initial.answer.rows, start=1):
            print(
                "  #%-3d %-12s score=%.4f  d=%.3f  g=%.3f"
                % (rank, row.poi_id, row.score, row.distance, row.aggregate),
                file=out,
            )
        if data is None:
            return 0

        from repro.datasets.streaming import epoch_stream

        pushed = 0
        stream = epoch_stream(
            data,
            tree.clock,
            start_time=tree.current_time,
            poi_ids=list(tree.poi_ids()),
        )
        for epoch, counts in stream:
            if args.max_updates is not None and pushed >= args.max_updates:
                break
            tree.digest_epoch(epoch, counts)
            pushed += len(registry.advance())
        print(
            "replayed to t=%g: %d update(s) pushed (%s)"
            % (
                tree.current_time,
                pushed,
                ", ".join(
                    "%s=%d" % (key, value)
                    for key, value in sorted(registry.counters().items())
                    if key.startswith("evals.")
                ),
            ),
            file=out,
        )
        return 0
    finally:
        registry.close()
        if cluster is not None:
            cluster.close()


def _command_mwa(args, out):
    from repro.core.mwa import minimum_weight_adjustment
    from repro.core.query import KNNTAQuery
    tree = _load_tree(args.tree, out)
    if tree is None:
        return 2
    interval = _resolve_interval(tree, args)
    query = KNNTAQuery((args.x, args.y), interval, k=args.k, alpha0=args.alpha0)
    result = minimum_weight_adjustment(tree, query, method=args.method)
    print("current alpha0 = %g" % args.alpha0, file=out)
    if result.gamma_lower is not None:
        print("  decrease past %.4f to change the top-%d" % (
            result.gamma_lower, args.k
        ), file=out)
    if result.gamma_upper is not None:
        print("  increase past %.4f to change the top-%d" % (
            result.gamma_upper, args.k
        ), file=out)
    if result.minimum_adjustment is None:
        print("  the top-%d is immutable under weight changes" % args.k, file=out)
    else:
        print("  minimum adjustment: %.4f" % result.minimum_adjustment, file=out)
    return 0


def _command_verify(args, out):
    from repro.reliability.validate import validate_against_dataset, validate_tree

    tree = _load_tree(args.tree, out)
    if tree is None:
        return 2
    report = validate_tree(tree)
    if args.dataset:
        data = _load_dataset(args.dataset, out)
        if data is None:
            return 2
        report.extend(validate_against_dataset(tree, data))
    print(report.summary(limit=args.max_report), file=out)
    if not report.ok:
        print("violation codes: %s" % ", ".join(report.codes()), file=out)
        return 1
    return 0


def _command_recover(args, out):
    from repro.reliability.recovery import CheckpointedIngest, recover
    from repro.reliability.validate import validate_tree
    from repro.storage.serialize import (
        CorruptSnapshotError,
        UnsupportedSnapshotError,
    )

    dataset = None
    if args.dataset:
        dataset = _load_dataset(args.dataset, out)
        if dataset is None:
            return 2
    try:
        report = recover(args.directory, name=args.name, dataset=dataset)
    except CorruptSnapshotError as exc:
        print(
            "corrupt state (section %r): %s" % (exc.section, exc), file=out
        )
        return 2
    except UnsupportedSnapshotError as exc:
        print("cannot load state in %s: %s" % (args.directory, exc), file=out)
        return 2
    except OSError as exc:
        print(
            "cannot read state in %s: %s" % (args.directory, exc), file=out
        )
        return 2
    print(report.summary(), file=out)
    if args.checkpoint:
        with CheckpointedIngest(report.tree, args.directory, name=args.name) as ingest:
            path = ingest.checkpoint()
        print("checkpointed to %s" % path, file=out)
    if args.verify:
        validation = validate_tree(report.tree)
        print(validation.summary(), file=out)
        if not validation.ok:
            return 1
    return 0


def _command_serve(args, out, err):
    import os

    from repro.reliability.recovery import CheckpointedIngest, recover
    from repro.service import JsonLineServer, QueryService, ServiceConfig
    from repro.storage.serialize import (
        CorruptSnapshotError,
        UnsupportedSnapshotError,
        load_tree,
    )

    ingest = None
    cluster = None
    try:
        if args.cluster or args.shard_workers:
            from repro.cluster import ClusterStateError, open_cluster

            if args.state_dir:
                print(
                    "--state-dir does not apply with --cluster: each shard "
                    "keeps its own WAL inside the cluster directory",
                    file=err,
                )
                return 2
            resilience = None
            if args.shard_timeout_ms > 0:
                from repro.cluster import ResilienceConfig

                resilience = ResilienceConfig(
                    call_timeout=args.shard_timeout_ms / 1000.0
                )
            if args.shard_workers:
                from repro.cluster import RemoteClusterTree

                try:
                    tree = cluster = RemoteClusterTree.start(
                        args.tree,
                        parallelism=args.parallelism,
                        resilience=resilience,
                        allow_degraded=args.allow_degraded,
                    )
                except ClusterStateError as exc:
                    # Distinct refusal: a cluster manifest rolled back
                    # behind committed shard state (or a shard behind
                    # its checkpoint) must never be served, and a
                    # worker that cannot open its shard names it.
                    print(
                        "cannot start shard workers for %s: %s"
                        % (args.tree, exc),
                        file=err,
                    )
                    return 2
                print(
                    "cluster %s: %d shard worker process(es), %d POIs"
                    % (args.tree, len(cluster.shards), len(cluster)),
                    file=out,
                )
                for shard in cluster.shards:
                    handle = shard.handle
                    print(
                        "  shard %d: pid %s on %s:%d (%s)"
                        % (
                            shard.index,
                            handle.pid if handle is not None else "?",
                            shard.client.host,
                            shard.client.port,
                            shard.dirname,
                        ),
                        file=out,
                    )
            else:
                try:
                    tree = cluster = open_cluster(
                        args.tree,
                        parallelism=args.parallelism,
                        resilience=resilience,
                        allow_degraded=args.allow_degraded,
                    )
                except ClusterStateError as exc:
                    print(
                        "cannot open cluster %s: %s" % (args.tree, exc),
                        file=err,
                    )
                    return 2
                print(
                    "cluster %s: %d shards recovered, %d POIs"
                    % (args.tree, len(cluster.shards), len(cluster)),
                    file=out,
                )
            print(
                "shard fault policy: %s, per-shard timeout %s"
                % (
                    "degraded answers allowed"
                    if args.allow_degraded
                    else "strict (degradation raises)",
                    "%gms" % args.shard_timeout_ms
                    if args.shard_timeout_ms > 0
                    else "disabled",
                ),
                file=out,
            )
        elif args.state_dir and os.path.exists(
            os.path.join(args.state_dir, args.name + ".json")
        ):
            # An existing checkpoint + WAL outranks the tree file: it is
            # the durable continuation of a previous serving session.
            report = recover(args.state_dir, name=args.name)
            tree = report.tree
            print(report.summary(), file=out)
        else:
            if args.state_dir and os.path.exists(
                os.path.join(args.state_dir, args.name + ".wal")
            ):
                # A WAL without its checkpoint snapshot means durable
                # mutations with no base state to replay onto.  Starting
                # fresh here would silently discard them (the new
                # checkpoint would orphan the old records).
                print(
                    "state dir %s holds %s.wal but no %s.json checkpoint; "
                    "refusing to start over durable mutations — run "
                    "'repro recover %s' (or remove the directory) first"
                    % (args.state_dir, args.name, args.name, args.state_dir),
                    file=err,
                )
                return 2
            tree = load_tree(args.tree)
        if args.state_dir:
            ingest = CheckpointedIngest(tree, args.state_dir, name=args.name)
    except CorruptSnapshotError as exc:
        print("corrupt state (section %r): %s" % (exc.section, exc), file=err)
        return 2
    except UnsupportedSnapshotError as exc:
        print("cannot load state: %s" % (exc,), file=err)
        return 2
    except OSError as exc:
        print("cannot read state: %s" % (exc,), file=err)
        return 2
    config = ServiceConfig(
        workers=args.workers,
        batch_size=args.batch_size,
        linger=args.linger_ms / 1000.0,
        queue_limit=args.queue_limit,
        scrub_interval=(
            args.scrub_interval_ms / 1000.0 if args.scrub_interval_ms > 0 else None
        ),
        scrub_budget=args.scrub_budget,
    )
    service = QueryService(tree, ingest=ingest, config=config)
    server = JsonLineServer(service, host=args.host, port=args.port)
    print("serving on %s:%d" % server.address[:2], file=out)
    print(
        "worker threads %d, batch size %d, linger %gms, queue limit %d"
        % (
            service.worker_threads,
            args.batch_size,
            args.linger_ms,
            args.queue_limit,
        ),
        file=out,
    )
    out.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server._server.server_close()
        service.close()
        if cluster is not None:
            try:
                cluster.checkpoint()
            except ClusterStateError as exc:
                # A reshard still in flight holds the exclusive-
                # maintenance claim; skipping the shutdown checkpoint
                # loses nothing durable (every mutation is in a shard
                # WAL) and must not leak the worker processes below.
                print("shutdown checkpoint skipped: %s" % exc, file=err)
            cluster.close()
        if ingest is not None:
            ingest.checkpoint()
            ingest.close()
    print("shut down", file=out)
    return 0


def _command_shard(args, out):
    from repro.cluster import ClusterTree, save_cluster

    data = _load_dataset(args.dataset, out)
    if data is None:
        return 2
    cluster = ClusterTree.build(
        data,
        num_shards=args.shards,
        method=args.method,
        epoch_length=args.epoch_days,
        strategy=args.strategy,
        node_size=args.node_size,
        tia_backend=args.tia_backend,
    )
    path = save_cluster(cluster, args.out)
    print(
        "wrote %s: %d shards (%s plan), %d POIs"
        % (path, len(cluster.shards), args.method, len(cluster)),
        file=out,
    )
    for shard in cluster.shards:
        region = shard.region
        print(
            "  shard %d: %4d POIs over [%g, %g] x [%g, %g]"
            % (
                shard.index,
                len(shard.tree),
                region.lows[0],
                region.highs[0],
                region.lows[1],
                region.highs[1],
            ),
            file=out,
        )
    cluster.close()
    return 0


def _command_shard_worker(args, out, err):
    import os

    from repro.cluster import ClusterStateError, run_worker
    from repro.storage.serialize import CorruptSnapshotError, UnsupportedSnapshotError

    if not os.path.isdir(args.directory):
        print("no shard state directory %s" % args.directory, file=err)
        return 2
    if not os.path.exists(
        os.path.join(args.directory, args.name + ".json")
    ):
        print(
            "%s holds no %s.json checkpoint — not a shard state directory"
            % (args.directory, args.name),
            file=err,
        )
        return 2
    try:
        run_worker(
            args.directory,
            host=args.host,
            port=args.port,
            name=args.name,
            announce=args.announce,
        )
    except (
        CorruptSnapshotError,
        UnsupportedSnapshotError,
        ClusterStateError,
    ) as exc:
        print(
            "cannot serve shard %s: %s" % (args.directory, exc), file=err
        )
        return 2
    except KeyboardInterrupt:
        pass
    print("shard worker shut down", file=out)
    return 0


#: Commands taking (args, out); the serving commands also take err for
#: their refusal paths (distinct stderr messages, exit code 2).
_COMMANDS = {
    "generate": _command_generate,
    "fit": _command_fit,
    "build": _command_build,
    "query": _command_query,
    "watch": _command_watch,
    "mwa": _command_mwa,
    "verify": _command_verify,
    "recover": _command_recover,
    "serve": _command_serve,
    "shard": _command_shard,
    "shard-worker": _command_shard_worker,
    "lint": _command_lint,
}

_ERR_COMMANDS = frozenset({"serve", "shard-worker"})


def main(argv=None, out=None, err=None):
    """Entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    if err is None:
        err = sys.stderr
    args = build_parser().parse_args(argv)
    if args.command in _ERR_COMMANDS:
        return _COMMANDS[args.command](args, out, err)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
