"""Durable cluster state: per-shard WAL directories plus one manifest.

On disk a cluster is a directory of shard state directories — each the
ordinary single-tree layout :class:`~repro.reliability.recovery
.CheckpointedIngest` maintains (``tree.json`` snapshot + ``tree.wal``)
— tied together by a ``cluster.json`` manifest holding the serialized
:class:`~repro.cluster.planner.ShardPlan` and each shard's applied-LSN
high-water mark as of the last cluster checkpoint::

    <dir>/cluster.json          # manifest: version, plan, shard LSNs
    <dir>/shard-0/tree.json     # shard 0 snapshot
    <dir>/shard-0/tree.wal      # shard 0 mutation WAL
    <dir>/shard-1/...

Recovery is per shard — each WAL replays independently onto its own
snapshot (crash-consistent exactly as in the single-tree story) — and
then the manifest is the cross-shard consistency check: a recovered
shard may be *ahead* of its manifest LSN (mutations landed after the
last checkpoint; the WAL preserved them) but never *behind* it, which
would mean durable state vanished.  :func:`recover_cluster` enforces
this and :func:`open_cluster` rebuilds a live
:class:`~repro.cluster.coordinator.ClusterTree` routing exactly as the
original process did.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.cluster.coordinator import ClusterStateError, ClusterTree, Shard
from repro.cluster.planner import ShardPlan
from repro.reliability.recovery import CheckpointedIngest, recover
from repro.reliability.wal import durable_write

__all__ = [
    "MANIFEST_NAME",
    "ClusterRecoveryReport",
    "check_recovered_lsn",
    "check_reshard_consistency",
    "is_cluster_directory",
    "manifest_payload",
    "open_cluster",
    "open_manifest",
    "read_manifest",
    "read_shard_meta",
    "recover_cluster",
    "save_cluster",
    "write_manifest",
    "write_manifest_payload",
    "write_shard_meta",
]

#: File name of the cluster manifest inside a cluster directory.
MANIFEST_NAME = "cluster.json"

#: Per-shard reshard metadata (plan epoch + commit flag) inside a
#: shard state directory; see :func:`check_reshard_consistency`.
SHARD_META_NAME = "meta.json"

_MANIFEST_VERSION = 1


def _manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def is_cluster_directory(path: str) -> bool:
    """Whether ``path`` holds a cluster manifest (vs. a tree snapshot)."""
    return os.path.isfile(_manifest_path(path))


def manifest_payload(
    name: str,
    parallelism: int,
    plan: ShardPlan,
    shards: list[tuple[str, Any]],
    plan_epoch: int = 0,
    next_dir: int | None = None,
) -> dict[str, Any]:
    """Build a manifest payload from raw parts.

    ``shards`` is ``[(dirname, applied_lsn), ...]`` in plan order.
    ``plan_epoch`` counts live resharding generations (0 = the plan as
    originally saved); ``next_dir`` is the next free shard-directory
    ordinal, so successor directories never collide with retired ones.
    """
    entries = [
        {"dir": dirname, "applied_lsn": lsn} for dirname, lsn in shards
    ]
    return {
        "version": _MANIFEST_VERSION,
        "name": name,
        "parallelism": parallelism,
        "plan": plan.as_json(),
        "plan_epoch": plan_epoch,
        "next_dir": len(entries) if next_dir is None else next_dir,
        "shards": entries,
    }


def write_manifest_payload(directory: str, payload: dict[str, Any]) -> str:
    """Atomically write a manifest payload under ``directory``."""
    path = _manifest_path(directory)
    with durable_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_manifest(directory: str, cluster: ClusterTree[Shard]) -> str:
    """Atomically (re)write ``directory``'s manifest from ``cluster``.

    Records each shard tree's current applied LSN; :func:`save_cluster`
    calls it once the base snapshots exist (a cluster checkpoint
    records the LSNs of the snapshots it takes instead).
    """
    payload = manifest_payload(
        cluster.name,
        cluster.parallelism,
        cluster.plan,
        [(shard.dirname, shard.tree.applied_lsn) for shard in cluster.shards],
        plan_epoch=getattr(cluster, "plan_epoch", 0),
        next_dir=getattr(cluster, "next_dir", None),
    )
    return write_manifest_payload(directory, payload)


def write_shard_meta(
    shard_dir: str, plan_epoch: int, committed: bool
) -> str:
    """Atomically write a shard directory's reshard metadata.

    A reshard writes the successors' meta with ``committed=False``
    before any data lands, and flips it to ``True`` only *after* the
    manifest naming them is durable — so a crash anywhere in between
    leaves either ignorable orphans or detectable manifest rollback
    (see :func:`check_reshard_consistency`).
    """
    path = os.path.join(shard_dir, SHARD_META_NAME)
    with durable_write(path) as handle:
        json.dump(
            {"plan_epoch": plan_epoch, "committed": committed},
            handle,
            sort_keys=True,
        )
        handle.write("\n")
    return path


def read_shard_meta(shard_dir: str) -> dict[str, Any] | None:
    """The shard directory's reshard metadata, or None for pre-reshard dirs."""
    path = os.path.join(shard_dir, SHARD_META_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ClusterStateError(
            "unreadable shard metadata %s: %s" % (path, exc)
        ) from exc
    if not isinstance(payload, dict):
        raise ClusterStateError("shard metadata %s is not an object" % path)
    return payload


def check_reshard_consistency(
    directory: str, payload: dict[str, Any]
) -> None:
    """Refuse a manifest that is behind committed reshard state.

    Scans every shard state directory under ``directory`` for committed
    reshard metadata carrying a plan epoch *newer* than the manifest's:
    that means a split committed (successor shards hold the data, the
    source was retired) but the manifest naming them was rolled back —
    opening with the stale routing table would serve from retired
    state.  Uncommitted metadata from a crashed split is ignorable by
    design (the old manifest and source shard are still authoritative).
    """
    manifest_epoch = int(payload.get("plan_epoch", 0))
    named = {entry["dir"] for entry in payload["shards"]}
    try:
        children = sorted(os.listdir(directory))
    except OSError:
        return
    for child in children:
        shard_dir = os.path.join(directory, child)
        if not os.path.isdir(shard_dir):
            continue
        meta = read_shard_meta(shard_dir)
        if meta is None or not meta.get("committed"):
            continue
        meta_epoch = int(meta.get("plan_epoch", 0))
        if meta_epoch > manifest_epoch and child not in named:
            raise ClusterStateError(
                "cluster manifest at plan epoch %d is behind committed "
                "shard state %s at plan epoch %d — the manifest was "
                "rolled back across a reshard; refusing to open"
                % (manifest_epoch, shard_dir, meta_epoch)
            )


def read_manifest(directory: str) -> dict[str, Any]:
    """Load and validate ``directory``'s cluster manifest."""
    path = _manifest_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ClusterStateError(
            "%s is not a cluster directory (no %s)" % (directory, MANIFEST_NAME)
        ) from None
    except (OSError, ValueError) as exc:
        raise ClusterStateError(
            "unreadable cluster manifest %s: %s" % (path, exc)
        ) from exc
    if not isinstance(payload, dict):
        raise ClusterStateError("cluster manifest %s is not an object" % path)
    version = payload.get("version")
    if version != _MANIFEST_VERSION:
        raise ClusterStateError(
            "unsupported cluster manifest version %r in %s" % (version, path)
        )
    shards = payload.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ClusterStateError("cluster manifest %s lists no shards" % path)
    return payload


def open_manifest(directory: str) -> tuple[dict[str, Any], ShardPlan, list[str]]:
    """Read ``directory``'s manifest for opening the cluster.

    Returns the payload, the plan and each shard's state directory in
    plan order; refuses a manifest rolled back across a committed
    reshard, a shard count that disagrees with the plan, and a missing
    shard directory.  In-process recovery and the worker spawn both
    open through here.
    """
    payload = read_manifest(directory)
    check_reshard_consistency(directory, payload)
    plan = ShardPlan.from_json(payload["plan"])
    entries = payload["shards"]
    if len(entries) != len(plan):
        raise ClusterStateError(
            "cluster manifest lists %d shards but the plan has %d regions"
            % (len(entries), len(plan))
        )
    shard_dirs = [os.path.join(directory, entry["dir"]) for entry in entries]
    for shard_dir in shard_dirs:
        if not os.path.isdir(shard_dir):
            raise ClusterStateError(
                "cluster manifest names missing shard directory %s" % shard_dir
            )
    return payload, plan, shard_dirs


def check_recovered_lsn(
    payload: dict[str, Any], index: int, recovered_lsn: int | None
) -> None:
    """Refuse shard ``index`` recovered behind its manifest LSN.

    Being ahead is normal (post-checkpoint mutations replayed from the
    WAL); being behind means durable state was lost.
    """
    manifest_lsn = payload["shards"][index].get("applied_lsn")
    if manifest_lsn is not None and (
        recovered_lsn is None or recovered_lsn < manifest_lsn
    ):
        raise ClusterStateError(
            "shard %d recovered to LSN %r but the cluster manifest "
            "recorded LSN %r — shard state is behind its checkpoint"
            % (index, recovered_lsn, manifest_lsn)
        )


def save_cluster(cluster: ClusterTree[Shard], directory: str) -> str:
    """Attach durable state under ``directory`` to an in-memory cluster.

    Creates one state directory per shard, attaches a
    :class:`~repro.reliability.recovery.CheckpointedIngest` to each
    shard tree (writing its base snapshot), and writes the manifest.
    From here on every routed mutation is write-ahead logged per shard.
    Returns the manifest path.
    """
    if cluster.directory is not None:
        raise ClusterStateError(
            "cluster already has durable state at %s" % cluster.directory
        )
    os.makedirs(directory, exist_ok=True)
    attached: list[Shard] = []
    try:
        for shard in cluster.shards:
            shard_dir = os.path.join(directory, shard.dirname)
            shard.ingest = CheckpointedIngest(shard.tree, shard_dir, name="tree")
            attached.append(shard)
    except Exception:
        for shard in attached:
            if shard.ingest is not None:
                shard.ingest.close()
                shard.ingest = None
        raise
    cluster.directory = directory
    return write_manifest(directory, cluster)


class ClusterRecoveryReport:
    """Per-shard recovery outcomes plus the manifest consistency check."""

    __slots__ = ("directory", "name", "plan", "manifest", "shard_reports")

    def __init__(
        self,
        directory: str,
        name: str,
        plan: ShardPlan,
        manifest: dict[str, Any],
        shard_reports: list[Any],
    ) -> None:
        self.directory = directory
        self.name = name
        self.plan = plan
        self.manifest = manifest
        self.shard_reports = shard_reports

    @property
    def replayed(self) -> int:
        """Total WAL records replayed across all shards (all types)."""
        return sum(
            sum(report.replayed.values()) for report in self.shard_reports
        )

    def summary(self) -> str:
        lines = [
            "cluster %r: %d shards recovered, %d records replayed"
            % (self.name, len(self.shard_reports), self.replayed)
        ]
        for index, report in enumerate(self.shard_reports):
            lines.append("  shard %d: %s" % (index, report.summary()))
        return "\n".join(lines)


def recover_cluster(
    directory: str, stats: Any = None, **overrides: Any
) -> ClusterRecoveryReport:
    """Recover every shard of the cluster under ``directory``.

    Each shard replays its own WAL onto its own snapshot via
    :func:`repro.reliability.recovery.recover`; afterwards each
    recovered tree must have reached *at least* the applied LSN the
    manifest recorded for it at the last cluster checkpoint — being
    ahead is normal (post-checkpoint mutations replayed from the WAL),
    being behind means durable state was lost and raises
    :class:`~repro.cluster.coordinator.ClusterStateError`.
    """
    payload, plan, shard_dirs = open_manifest(directory)
    shard_reports: list[Any] = []
    for index, shard_dir in enumerate(shard_dirs):
        report = recover(shard_dir, name="tree", stats=stats, **overrides)
        check_recovered_lsn(payload, index, report.tree.applied_lsn)
        shard_reports.append(report)
    return ClusterRecoveryReport(
        directory, str(payload.get("name", "cluster")), plan, payload, shard_reports
    )


def open_cluster(
    directory: str,
    parallelism: int | None = None,
    stats: Any = None,
    resilience: Any = None,
    injector: Any = None,
    allow_degraded: bool = False,
    **overrides: Any,
) -> ClusterTree[Shard]:
    """Recover and reopen the cluster under ``directory`` for serving.

    Runs :func:`recover_cluster`, re-attaches a fresh per-shard WAL
    ingest to every recovered tree, and rebuilds the coordinator from
    the manifest's routing plan.  ``parallelism`` defaults to the value
    recorded in the manifest.  ``resilience`` / ``injector`` /
    ``allow_degraded`` configure the coordinator's fault-domain layer
    (see :mod:`repro.cluster.resilience`).
    """
    report = recover_cluster(directory, stats=stats, **overrides)
    if parallelism is None:
        manifest_parallelism = report.manifest.get("parallelism", 1)
        parallelism = int(manifest_parallelism) if manifest_parallelism else 1
    shards: list[Shard] = []
    try:
        for index, shard_report in enumerate(report.shard_reports):
            dirname = str(report.manifest["shards"][index]["dir"])
            shard_dir = os.path.join(directory, dirname)
            ingest = CheckpointedIngest(shard_report.tree, shard_dir, name="tree")
            shards.append(
                Shard(
                    index,
                    report.plan.regions[index],
                    shard_report.tree,
                    ingest,
                    dirname=dirname,
                )
            )
    except Exception:
        for shard in shards:
            if shard.ingest is not None:
                shard.ingest.close()
        raise
    cluster = ClusterTree(
        report.plan,
        shards,
        parallelism=parallelism,
        directory=directory,
        name=report.name,
        resilience=resilience,
        injector=injector,
        allow_degraded=allow_degraded,
    )
    cluster.plan_epoch = int(report.manifest.get("plan_epoch", 0))
    cluster.next_dir = int(report.manifest.get("next_dir", len(shards)))
    return cluster
