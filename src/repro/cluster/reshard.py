"""Live resharding: split an overloaded worker shard online.

The split keeps the cluster serving (and bit-identical) throughout, in
two phases:

**Phase A — build the successors (no cluster locks held).**  The source
worker checkpoints (compacting its WAL to a snapshot at some LSN
``L0``), the coordinator recovers that state *locally* — a read-only
snapshot load plus WAL replay, safe against the live worker's
concurrent appends — reaching some ``L1 >= L0``, computes the
median-split successor regions (:func:`~repro.cluster.planner
.split_region`), bulk-loads two successor trees from the recovered
rows, attaches durable state to fresh ``shard-<n>`` directories
(stamped *uncommitted* reshard metadata, so a crash leaves ignorable
orphans), and spawns + connects a worker over each.  The source keeps
serving queries and absorbing mutations the whole time; anything it
applied past ``L1`` sits in its WAL.  A cluster checkpoint is mutually
exclusive with the whole split (both claim the coordinator's
exclusive-maintenance flag), so nothing compacts that tail before
Phase B drains it — and the drain itself refuses a non-contiguous
tail (a ``wal-tail-gap`` error aborts the split) as defence in depth.

**Phase B — drain and cut over (routing write lock held).**  Taking
the write side of the coordinator's routing lock *is* the quiesce:
queries and mutations hold the read side, so the source's WAL tail
after ``L1`` is final.  The tail is drained (``wal_tail`` op, read
under the source's own write lock), replayed record-by-record in LSN
order into the successors — inserts route by the successor regions
(boundary points to the low cell, exactly as :meth:`ShardPlan.route`
breaks the tie), deletes and digests follow the ownership the replay
itself maintains; digests replay their logged deltas, which reproduce
the logged ``value_after`` exactly because each successor tracks the
source's per-POI state in LSN order — then the routing table is
rewritten (low successor in the source's slot, high successor
appended) and the manifest naming the successors is fsynced.  That
manifest write is the commit point.

After the cutover the successors' metadata flips to *committed*
(manifest first, then meta:  :func:`~repro.cluster.state
.check_reshard_consistency` turns any manifest rollback across this
ordering into a refusal at open), the retired source worker is shut
down, and its directory is left in place — unreferenced by the
manifest, harmless, and still stamped with its pre-split epoch.

Answers are bit-identical before, during and after: before the flip
queries scatter over the old table (the successors exist but are not
routed to); after the flip the successors hold exactly the source's
POIs at its final LSN, and descriptor MBRs are computed from actual
POIs — not plan regions — so even points the source held out-of-region
(``routing_overflows``) keep being found.
"""

from __future__ import annotations

import os
import shutil
from typing import Any

from repro.cluster.coordinator import ClusterStateError
from repro.cluster.planner import ShardPlan, split_region
from repro.cluster.remote import RemoteClusterTree, RemoteShard, WorkerClient
from repro.cluster.resilience import ShardGuard
from repro.cluster.state import (
    manifest_payload,
    write_manifest_payload,
    write_shard_meta,
)
from repro.cluster.workers import WorkerHandle
from repro.core.tar_tree import POI, TARTree
from repro.reliability.recovery import CheckpointedIngest, recover
from repro.reliability.wal import RECORD_DELETE, RECORD_INSERT
from repro.spatial.geometry import Rect

__all__ = ["ReshardPolicy", "maybe_split", "split_shard"]


class ReshardPolicy:
    """When the coordinator should split a shard on its own.

    ``max_pois`` splits the most loaded shard once it reaches that many
    POIs; ``max_overflows`` splits it once the cluster has absorbed
    that many out-of-region routings since the last split (growth has
    drifted past the plan).  A shard below ``min_pois`` is never split
    — two successors need something to hold.
    """

    def __init__(
        self,
        max_pois: int | None = None,
        max_overflows: int | None = None,
        min_pois: int = 4,
    ) -> None:
        if max_pois is None and max_overflows is None:
            raise ValueError(
                "a reshard policy needs max_pois and/or max_overflows"
            )
        self.max_pois = max_pois
        self.max_overflows = max_overflows
        self.min_pois = min_pois
        #: Overflow count at the last split, so the overflow trigger
        #: fires on *new* drift rather than once per tick forever.
        self._overflow_floor = 0

    def pick(self, remote: RemoteClusterTree) -> int | None:
        """The shard to split now, or ``None`` to leave the plan alone."""
        with remote._routing.read_locked():
            loads = [(shard.descriptor.pois, shard.index) for shard in remote.shards]
        with remote._counter_lock:
            overflows = remote.routing_overflows
        biggest, index = max(loads)
        if biggest < self.min_pois:
            return None
        if self.max_pois is not None and biggest >= self.max_pois:
            return index
        if (
            self.max_overflows is not None
            and overflows - self._overflow_floor >= self.max_overflows
        ):
            return index
        return None

    def note_split(self, remote: RemoteClusterTree) -> None:
        with remote._counter_lock:
            self._overflow_floor = remote.routing_overflows


def maybe_split(remote: RemoteClusterTree) -> int | None:
    """Split per the cluster's policy; returns the split index or None.

    A split already in flight (or a shard the policy picked but that
    cannot be split right now) is skipped silently — the next
    maintenance tick re-evaluates.
    """
    policy = remote.reshard_policy
    if policy is None:
        return None
    index = policy.pick(remote)
    if index is None:
        return None
    try:
        split_shard(remote, index)
    except (ClusterStateError, ValueError):
        return None
    policy.note_split(remote)
    return index


def _route_successor(low_region: Rect, high_region: Rect, point: Any) -> int:
    """0 for the low successor, 1 for the high — total, like the plan.

    Containment first (boundary points to the low cell, matching
    :meth:`ShardPlan.route`'s first-containing-region-wins), then
    MINDIST with ties to the low cell (matching :meth:`ShardPlan
    .nearest`) for out-of-region points the source held via overflow
    routing.
    """
    if low_region.contains_point(point):
        return 0
    if high_region.contains_point(point):
        return 1
    return 0 if low_region.min_dist(point) <= high_region.min_dist(point) else 1


def _build_successor_state(
    tree: TARTree,
    rows: list[tuple[POI, dict[int, int]]],
    directory: str,
    plan_epoch: int,
) -> None:
    """Bulk-load one successor tree and attach durable state to it.

    The directory must be fresh (a stale orphan from a crashed split
    must never leak its snapshot into a new one).  The metadata is
    stamped *uncommitted*; the cutover flips it after the manifest
    naming this directory is durable.
    """
    os.makedirs(directory, exist_ok=False)
    successor = TARTree(
        world=tree.world,
        clock=tree.clock,
        current_time=tree.current_time,
        strategy=tree.strategy,
        node_size=tree.node_size,
        tia_backend=tree.tia_backend,
        aggregate_kind=tree.aggregate_kind,
    )
    if rows:
        successor.bulk_load(rows)
    ingest = CheckpointedIngest(successor, directory, name="tree")
    ingest.close()
    write_shard_meta(directory, plan_epoch, committed=False)


def _replay_tail(
    records: list[list[Any]],
    clients: tuple[WorkerClient, WorkerClient],
    owner_of: dict[Any, int],
    low_region: Rect,
    high_region: Rect,
    timeout: float | None,
) -> None:
    """Replay a drained WAL tail into the successors, in LSN order."""
    for _lsn, record_type, payload in sorted(records, key=lambda r: r[0]):
        if record_type == RECORD_INSERT:
            poi_id, x, y, history = payload
            side = _route_successor(low_region, high_region, (x, y))
            clients[side].request(
                {
                    "op": "insert",
                    "poi_id": poi_id,
                    "point": [x, y],
                    "aggregates": history,
                },
                timeout=timeout,
            )
            owner_of[poi_id] = side
        elif record_type == RECORD_DELETE:
            (poi_id,) = payload
            side = owner_of.pop(poi_id, None)
            if side is not None:
                clients[side].request(
                    {"op": "delete", "poi_id": poi_id}, timeout=timeout
                )
        else:  # digest
            epoch_index, pairs = payload
            routed: dict[int, list[list[Any]]] = {}
            for poi_id, delta, _value_after in pairs:
                side = owner_of.get(poi_id)
                if side is not None:
                    routed.setdefault(side, []).append([poi_id, delta])
            for side in sorted(routed):
                clients[side].request(
                    {
                        "op": "digest",
                        "epoch": epoch_index,
                        "counts": routed[side],
                    },
                    timeout=timeout,
                )


def split_shard(remote: RemoteClusterTree, index: int) -> tuple[int, int]:
    """Split worker shard ``index`` online; see the module docs.

    Returns the successor shard indexes ``(low, high)`` — low in the
    source's slot, high appended.  Raises
    :class:`~repro.cluster.coordinator.ClusterStateError` when another
    split is already in flight, and cleans up the successor directories
    and processes on any failure before the commit point (the cluster
    keeps serving from the unchanged source).
    """
    with remote._counter_lock:
        if remote._resharding:
            raise ClusterStateError("a reshard is already in flight")
        remote._resharding = True
    try:
        return _split_claimed(remote, index)
    finally:
        with remote._counter_lock:
            remote._resharding = False


def _split_claimed(remote: RemoteClusterTree, index: int) -> tuple[int, int]:
    timeout = remote.request_timeout
    with remote._routing.read_locked():
        if not 0 <= index < len(remote.shards):
            raise ValueError("no shard %d to split" % index)
        source = remote.shards[index]
        region = remote.plan.regions[index]
        old_plan = remote.plan
        new_epoch = remote.plan_epoch + 1
        ordinal = remote.next_dir

    # ---- Phase A: build the successors; the source keeps serving. ----
    source.client.request({"op": "checkpoint"}, timeout=timeout)
    source_dir = os.path.join(remote.directory, source.dirname)
    report = recover(source_dir, name="tree")
    tree = report.tree
    base_lsn = tree.applied_lsn
    rows = [
        (tree.poi(poi_id), tree.poi_tia(poi_id).as_dict())
        for poi_id in tree.poi_ids()
    ]
    if len(rows) < 2:
        raise ValueError(
            "shard %d holds %d POI(s) — too few to split" % (index, len(rows))
        )
    low_region, high_region = split_region(
        region, [poi.point for poi, _history in rows]
    )
    sides = [
        _route_successor(low_region, high_region, poi.point)
        for poi, _history in rows
    ]
    low_rows = [row for row, side in zip(rows, sides) if side == 0]
    high_rows = [row for row, side in zip(rows, sides) if side == 1]
    owner_of = {row[0].poi_id: side for row, side in zip(rows, sides)}

    dirnames = ("shard-%d" % ordinal, "shard-%d" % (ordinal + 1))
    directories = tuple(
        os.path.join(remote.directory, dirname) for dirname in dirnames
    )
    handles: list[WorkerHandle] = []
    clients: list[WorkerClient] = []
    created: list[str] = []
    committed = False
    try:
        for directory, successor_rows in zip(
            directories, (low_rows, high_rows)
        ):
            _build_successor_state(tree, successor_rows, directory, new_epoch)
            created.append(directory)
        for position, directory in enumerate(directories):
            handle = WorkerHandle.spawn(directory)
            handles.append(handle)
            client = WorkerClient(
                handle.host,
                handle.port,
                index=index if position == 0 else len(old_plan),
            )
            clients.append(client)
            client.connect(timeout=timeout)

        # ---- Phase B: drain, replay, cut over (mutations quiesced). ----
        with remote._routing.write_locked():
            tail = source.client.request(
                {"op": "wal_tail", "after": base_lsn}, timeout=timeout
            )
            _replay_tail(
                tail["records"],
                (clients[0], clients[1]),
                owner_of,
                low_region,
                high_region,
                timeout,
            )
            hellos = [
                client.request({"op": "hello"}, timeout=timeout)
                for client in clients
            ]
            regions = list(old_plan.regions)
            regions[index] = low_region
            regions.append(high_region)
            new_plan = ShardPlan(regions, method=old_plan.method)
            low_shard = RemoteShard(
                index, low_region, dirnames[0], clients[0], handles[0]
            )
            high_shard = RemoteShard(
                len(regions) - 1,
                high_region,
                dirnames[1],
                clients[1],
                handles[1],
            )
            for shard, hello in zip((low_shard, high_shard), hellos):
                shard.manifest_lsn = hello.get("applied_lsn")
                shard.timeout = timeout
            new_shards = list(remote.shards)
            new_shards[index] = low_shard
            new_shards.append(high_shard)
            old_guard = remote._guards[index]
            new_guards = list(remote._guards)
            new_guards[index] = ShardGuard(
                index, remote.resilience, on_event=remote._note_health
            )
            new_guards.append(
                ShardGuard(
                    high_shard.index,
                    remote.resilience,
                    on_event=remote._note_health,
                )
            )
            entries = [
                (shard.dirname, shard.manifest_lsn) for shard in new_shards
            ]
            payload = manifest_payload(
                remote.name,
                remote.parallelism,
                new_plan,
                entries,
                plan_epoch=new_epoch,
                next_dir=ordinal + 2,
            )
            write_manifest_payload(remote.directory, payload)
            committed = True
            # The commit point is durable; flip the routing table.
            remote.plan = new_plan
            remote.shards = new_shards
            remote._guards = new_guards
            remote.plan_epoch = new_epoch
            remote.next_dir = ordinal + 2
            low_shard.absorb(hellos[0])
            high_shard.absorb(hellos[1])
    except Exception:
        # Roll back only *before* the commit point.  Once the manifest
        # naming the successors is durable, terminating them or deleting
        # their directories would leave a cluster that refuses to open —
        # a post-commit failure keeps the committed state and surfaces.
        if committed:
            raise
        for client in clients:
            client.close()
        for handle in handles:
            handle.terminate()
        for directory in created:
            shutil.rmtree(directory, ignore_errors=True)
        raise

    # ---- Post-commit: flip the meta, retire the source worker. ----
    for directory in directories:
        write_shard_meta(directory, new_epoch, committed=True)
    try:
        source.client.request({"op": "shutdown"}, timeout=5.0)
    except Exception:
        pass
    source.client.close()
    if source.handle is not None:
        source.handle.join(timeout=5.0)
        if source.handle.alive:
            source.handle.terminate()
    old_guard.close()
    with remote._counter_lock:
        remote.reshards += 1
    return index, len(remote.plan) - 1
