"""The cluster coordinator: scatter-gather kNNTA over shard endpoints.

:class:`ClusterTree` fronts N shards — each a full TAR-tree over one
region of a :class:`~repro.cluster.planner.ShardPlan` — behind the same
:class:`~repro.core.query.KNNTAQuery` surface a single
:class:`~repro.core.tar_tree.TARTree` exposes.  It reaches every shard
through a :class:`ShardEndpoint`: :class:`Shard` holds the tree, its
lock and WAL in this process; :class:`~repro.cluster.remote.RemoteShard`
talks to a worker process over a socket.  Everything below the
endpoint is transport; everything in :class:`ClusterTree` — bounds,
normaliser, scatter, certificate, routing, counters, health, scrub and
recovery — exists once for both.

Three properties make the distribution *exact* (the sharded answer
equals the single-tree answer, score for score):

1. Every shard tree is built over the **full** dataset world, so the
   spatial normalisation constant ``d_max`` (the world diagonal) is
   identical everywhere.
2. The cluster's aggregate normaliser ``g_max`` merges the per-epoch
   maxima **across** shards before combining over the query interval —
   exactly the bound the single tree's root maintains — and the one
   resulting :class:`~repro.core.query.Normalizer` is pushed down into
   every shard search.
3. Each shard's *best-possible score* is a true lower bound on any of
   its POIs' scores (Property 1 again: MINDIST under-estimates every
   distance, the shard's root aggregate bound over-estimates every
   aggregate), so once the running k-th result's score is at or below
   a shard's bound, that shard cannot contribute and is skipped —
   the threshold-style early termination of the scatter-gather.

Mutations route to the owning shard by the plan.  An in-process shard
with a :class:`~repro.reliability.recovery.CheckpointedIngest` logs the
mutation to its WAL first; a worker always does.  Every endpoint locks
its own shard state — queries shared, mutations exclusive (lint rules
RT001/RT002 cover :class:`Shard`).  The coordinator's ``routing``
read-write lock guards the routing table (plan, shard list, guards):
queries and mutations hold the read side, and a live reshard of a
worker cluster (:mod:`repro.cluster.reshard`) takes the write side for
its cutover.

Every shard is additionally its own *fault domain*: dispatch, routed
mutations, ownership probes and scrub ticks cross a
:class:`~repro.cluster.resilience.ShardGuard` (per-shard timeout,
seeded retry/backoff, circuit breaker — lint rule RT007 enforces the
crossing).  Queries that miss a quarantined shard stay correct by
construction: each endpoint caches a
:class:`~repro.cluster.resilience.ShardDescriptor` (root MBR + epoch
maxima, refreshed with every mutation), so a down shard whose
best-possible score cannot beat the running k-th result is *certified*
irrelevant and the answer is exact; otherwise the answer is an
explicit :class:`~repro.cluster.resilience.DegradedAnswer` (under
``allow_degraded``) or a
:class:`~repro.cluster.resilience.ClusterDegradedError` — never a
hang, crash or silently wrong result.  Quarantined shards recover
*online* via :meth:`ClusterTree.recover_shard`.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from functools import partial
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
    TypeVar,
    cast,
)

from repro.cluster.planner import ShardPlan, plan_shards
from repro.cluster.resilience import (
    CALLER,
    CLOSED,
    CallToken,
    ClusterDegradedError,
    DegradedAnswer,
    ResilienceConfig,
    ShardDescriptor,
    ShardGuard,
    ShardHealthEvent,
    classify_error,
)
# Unused here since shards are searched through tree.query/query_batch;
# kept because the benchmark tracer (perfbench/spans.py) wraps this name.
from repro.core.knnta import knnta_search  # noqa: F401
from repro.core.query import KNNTAQuery, Normalizer, QueryResult, RankedAnswer
from repro.core.tar_tree import DEFAULT_EPOCH_LENGTH_DAYS, POI, TARTree
from repro.devtools.lockmodel import COUNTER, RECOVERY, ROUTING, SHARD_RW
from repro.devtools.watchdog import monitored_lock
from repro.reliability.faults import FaultInjector
from repro.service.locks import ReadWriteLock
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock, TimeInterval
from repro.temporal.tia import AggregateKind, IntervalSemantics

if TYPE_CHECKING:
    from repro.core.grouping import GroupingStrategy
    from repro.datasets.generator import Dataset
    from repro.reliability.recovery import CheckpointedIngest
    from repro.service.scrubber import Scrubber

__all__ = ["ClusterStateError", "ClusterTree", "Shard", "ShardEndpoint"]

_Endpoint = TypeVar("_Endpoint", bound="ShardEndpoint")
_T = TypeVar("_T")
_Cluster = TypeVar("_Cluster", bound="ClusterTree[Any]")

#: One merged result row: ``(score, shard index, within-shard rank,
#: result)``; ordered by the first three, the deterministic tie-break.
_Row = tuple[float, int, int, QueryResult]
_ROW_ORDER = itemgetter(0, 1, 2)

#: ``(interval, semantics)`` -> the cluster normaliser for that key.
Normalizers = Mapping[tuple[TimeInterval, IntervalSemantics], Normalizer]


class ClusterStateError(RuntimeError):
    """A durable-state operation on a cluster that has none attached."""


def check_cutover(index: int, live: int | None, recovered: int | None) -> None:
    """The recovery LSN check: recovered state may run ahead of the live
    shard (the WAL is the source of truth), never behind it."""
    if live is not None and (recovered is None or recovered < live):
        raise ClusterStateError(
            "shard %d recovered to LSN %r, behind its live LSN %r — "
            "refusing the cutover" % (index, recovered, live)
        )


class ShardEndpoint(Protocol):
    """One shard as the coordinator drives it: :class:`Shard` in process,
    :class:`~repro.cluster.remote.RemoteShard` in a worker process.

    Every method but the lifecycle steps ``checkpoint``, ``adopt`` and
    ``close`` runs inside the shard's ShardGuard (lint rule RT007); an
    endpoint checks the guard's ``token`` once it holds the shard lock,
    so a call abandoned at its deadline never applies late.  The
    mutations and ``describe`` keep ``descriptor`` (the pruning-bound
    state) in step with the shard.  ``query``/``batch`` return the
    call's node accesses beside the rows; ``reopen`` recovers a fresh
    endpoint that ``adopt`` cuts over to unless :func:`check_cutover`
    refuses.
    """

    index: int
    dirname: str
    descriptor: ShardDescriptor

    @property
    def applied_lsn(self) -> int | None: ...
    @property
    def current_time(self) -> float | None: ...

    def identity(self) -> tuple[Rect, EpochClock, AggregateKind]: ...

    def query(
        self, token: CallToken, query: KNNTAQuery, normalizer: Normalizer
    ) -> tuple[list[QueryResult], AccessStats]: ...
    def batch(
        self, token: CallToken, queries: Sequence[KNNTAQuery], normalizers: Normalizers
    ) -> tuple[Sequence[Sequence[QueryResult]], AccessStats]: ...
    def insert(
        self, token: CallToken, poi: POI, aggregates: Mapping[int, int] | None
    ) -> int | None: ...
    def delete(self, token: CallToken, poi_id: Any) -> bool: ...
    def digest(
        self, token: CallToken, epoch_index: int, counts: Mapping[Any, int]
    ) -> None: ...
    def contains(self, poi_id: Any) -> bool: ...
    def describe(self) -> ShardDescriptor: ...
    def scrub(self, budget: int | None) -> int: ...
    def checkpoint(self) -> int | None: ...
    def reopen(self: _Endpoint, directory: str) -> _Endpoint: ...
    def adopt(self: _Endpoint, fresh: _Endpoint, directory: str) -> None: ...
    def close(self) -> None: ...


class Shard:
    """The in-process endpoint: a region's TAR-tree, lock and optional WAL."""

    __slots__ = ("index", "region", "tree", "lock", "ingest", "scrubber",
                 "dirname", "descriptor")

    def __init__(
        self,
        index: int,
        region: Rect,
        tree: TARTree,
        ingest: CheckpointedIngest | None = None,
        dirname: str | None = None,
    ) -> None:
        self.index = index
        self.region = region
        self.tree = tree
        self.lock = ReadWriteLock(SHARD_RW)
        self.ingest = ingest
        self.scrubber: Scrubber | None = None
        #: Shard state directory name inside the cluster directory.  A
        #: live reshard retires and mints directories, so post-reshard
        #: names need not be contiguous in the shard index.
        self.dirname = dirname if dirname is not None else "shard-%d" % index
        self.descriptor = ShardDescriptor()
        self.descriptor.refresh(tree)

    @property
    def applied_lsn(self) -> int | None:
        return self.tree.applied_lsn

    @property
    def current_time(self) -> float:
        return self.tree.current_time

    def identity(self) -> tuple[Rect, EpochClock, AggregateKind]:
        return self.tree.world, self.tree.clock, self.tree.aggregate_kind

    # -- reads -------------------------------------------------------------

    def query(
        self, token: CallToken, query: KNNTAQuery, normalizer: Normalizer
    ) -> tuple[list[QueryResult], AccessStats]:
        stats = AccessStats()
        with self.lock.read_locked():
            token.check()
            results = self.tree.query(query, normalizer, stats)
        return results, stats

    def batch(
        self,
        token: CallToken,
        queries: Sequence[KNNTAQuery],
        normalizers: Normalizers,
    ) -> tuple[list[RankedAnswer], AccessStats]:
        stats = AccessStats()
        with self.lock.read_locked():
            token.check()
            lists = self.tree.query_batch(queries, normalizers, stats)
        return lists, stats

    def contains(self, poi_id: Any) -> bool:
        with self.lock.read_locked():
            return poi_id in self.tree

    def describe(self) -> ShardDescriptor:
        with self.lock.read_locked():
            self.descriptor.refresh(self.tree)
        return self.descriptor

    # -- mutations (through the WAL when one is attached) ------------------

    def load(self, rows: list[tuple[POI, dict[int, int]]], bulk: bool) -> None:
        """The initial build-time load (no WAL is attached yet)."""
        with self.lock.write_locked():
            self.descriptor.fresh = False
            if self.ingest is None:
                if bulk:
                    self.tree.bulk_load(rows)
                else:
                    for poi, history in rows:
                        self.tree.insert_poi(poi, history or None)
            self.descriptor.refresh(self.tree)

    def insert(
        self, token: CallToken, poi: POI, aggregates: Mapping[int, int] | None
    ) -> int | None:
        lsn: int | None = None
        with self.lock.write_locked():
            token.check()
            self.descriptor.fresh = False
            if self.ingest is None:
                self.tree.insert_poi(poi, aggregates)
            else:
                lsn = self.ingest.insert(poi, aggregates)
            self.descriptor.refresh(self.tree)
        return lsn

    def delete(self, token: CallToken, poi_id: Any) -> bool:
        with self.lock.write_locked():
            token.check()
            self.descriptor.fresh = False
            if self.ingest is None:
                deleted = self.tree.delete_poi(poi_id)
            else:
                deleted = self.ingest.delete(poi_id) is not None
            self.descriptor.refresh(self.tree)
        return deleted

    def digest(
        self, token: CallToken, epoch_index: int, counts: Mapping[Any, int]
    ) -> None:
        with self.lock.write_locked():
            token.check()
            self.descriptor.fresh = False
            if self.ingest is None:
                self.tree.digest_epoch(epoch_index, counts)
            else:
                self.ingest.digest(epoch_index, counts)
            self.descriptor.refresh(self.tree)

    # -- maintenance and lifecycle ----------------------------------------

    def scrub(self, budget: int | None) -> int:
        if self.scrubber is None:
            from repro.service.scrubber import Scrubber

            manifest_path = None
            if self.ingest is not None:
                manifest_path = (
                    self.ingest.snapshot_path.rsplit(".json", 1)[0] + ".scrub.json"
                )
            self.scrubber = Scrubber(self.tree, self.lock, manifest_path=manifest_path)
            self.tree.add_mutation_observer(self.scrubber.observe_mutation)
        return cast(int, self.scrubber.tick(budget))

    def checkpoint(self) -> int | None:
        if self.ingest is None:
            raise ClusterStateError(
                "shard %d has no CheckpointedIngest attached" % self.index
            )
        with self.lock.write_locked():
            self.ingest.checkpoint()
            lsn = self.tree.applied_lsn
        if self.scrubber is not None:
            self.scrubber.persist_manifest()
        return lsn

    def reopen(self, directory: str) -> Shard:
        from repro.reliability.recovery import recover

        report = recover(directory, name="tree")
        return Shard(self.index, self.region, report.tree, dirname=self.dirname)

    def adopt(self, fresh: Shard, directory: str) -> None:
        """Swap the recovered tree and a fresh WAL ingest in under the
        write lock; queries in flight finish on the old tree."""
        from repro.reliability.recovery import CheckpointedIngest

        with self.lock.write_locked():
            check_cutover(self.index, self.tree.applied_lsn, fresh.tree.applied_lsn)
            self._detach(persist=False)
            self.tree = fresh.tree
            self.ingest = CheckpointedIngest(fresh.tree, directory, name="tree")
            self.descriptor.refresh(self.tree)

    def close(self) -> None:
        """Detach the scrubber (persisting its manifest) and close the
        WAL — closing never loses records."""
        self._detach(persist=True)

    def _detach(self, persist: bool) -> None:
        if self.scrubber is not None:
            self.tree.remove_mutation_observer(self.scrubber.observe_mutation)
            if persist:
                self.scrubber.persist_manifest()
            self.scrubber = None
        if self.ingest is not None:
            self.ingest.close()
            self.ingest = None

    def __repr__(self) -> str:
        return "Shard(%d, %d POIs, wal=%s)" % (
            self.index,
            len(self.tree),
            "attached" if self.ingest is not None else "none",
        )


class _Gathered(NamedTuple):
    """One query's scatter-gather outcome (see ``ClusterTree._scatter``)."""

    top: list[QueryResult]
    per_shard: dict[int, AccessStats]
    visited: int
    pruned: int
    failed: int
    blocking: dict[int, float]
    shards: int


def _certify(
    rows: list[_Row], k: int, missed: Mapping[int, float]
) -> tuple[list[QueryResult], dict[int, float]]:
    """One rider's top-k, plus the missed shards that block exactness.

    The degradation certificate: a missed shard (mapped to its bound, a
    true lower bound on every POI it holds) is harmless when k rows are
    held and the k-th scores at or below that bound.  The rest are
    *blocking*: without them the answer is not provably exact.
    """
    rows.sort(key=_ROW_ORDER)
    kth = rows[k - 1][0] if len(rows) >= k else math.inf
    blocking = {
        index: bound
        for index, bound in missed.items()
        if len(rows) < k or bound < kth
    }
    return [row[3] for row in rows[:k]], blocking


def _down(guards: Sequence[ShardGuard]) -> int:
    return sum(1 for guard in guards if guard.breaker.state != CLOSED)


class ClusterTree(Generic[_Endpoint]):
    """Scatter-gather kNNTA over spatially sharded TAR-trees.

    Exposes the single-tree query/mutation surface (``query``,
    ``insert_poi``, ``delete_poi``, ``digest_epoch``, ``normalizer``,
    ``current_time``, ``len``/``in``), so a
    :class:`~repro.service.QueryService` — or any other TARTree caller —
    can serve a cluster unchanged, over :class:`Shard` s (:meth:`build`,
    :func:`~repro.cluster.state.open_cluster`) or worker processes
    (:class:`~repro.cluster.remote.RemoteClusterTree`).  ``parallelism``
    > 1 keeps that many shard calls in flight on one long-lived thread
    pool, best-bound-first; 1 visits shards inline in bound order, which
    is deterministic and prunes identically.

    Running totals: ``queries``, ``shards_visited``, ``shards_pruned``
    (shards never dispatched because the k-th result already beat their
    bound), ``routing_overflows`` (inserts outside every planned region,
    placed on the nearest shard), ``shards_failed``, ``certified_exact``
    (answers proven exact despite a missed shard), ``degraded_answers``
    and ``recoveries``.
    """

    #: Duck-typing marker the service layer keys on; a ClusterTree is
    #: deliberately never imported there (the cluster imports the
    #: service's lock, so the reverse import would cycle).
    is_cluster = True

    #: Whether the service may coalesce queued queries whatever their
    #: interval into one :meth:`query_batch`.  Not in process: a single
    #: query prunes shards by bound while a batch visits every shard,
    #: so a mixed batch costs more CPU per query than its riders alone
    #: (docs/SERVICE.md, "Micro-batching semantics").
    coalesce_any_interval = False

    def __init__(
        self,
        plan: ShardPlan,
        shards: Sequence[_Endpoint],
        parallelism: int = 1,
        directory: str | None = None,
        name: str = "cluster",
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
        allow_degraded: bool = False,
    ) -> None:
        if len(shards) != len(plan):
            raise ValueError(
                "plan has %d regions but %d shards were given"
                % (len(plan), len(shards))
            )
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1, got %r" % (parallelism,))
        self.plan = plan
        self.shards = list(shards)
        self.parallelism = parallelism
        self.directory = directory
        self.name = name
        #: Live-reshard generation of ``plan`` (0 = as originally
        #: saved) and the next free shard-directory ordinal; both ride
        #: in the manifest so recovery is reshard-consistent.
        self.plan_epoch = 0
        self.next_dir: int | None = None
        self.world, self.clock, self.aggregate_kind = self.shards[0].identity()
        #: Merged access totals across all cluster queries (the cluster
        #: analogue of ``TARTree.stats``; node accesses only — TIA page
        #: accesses accrue on each shard tree's own stats).
        self.stats = AccessStats()
        self.queries = 0
        self.shards_visited = 0
        self.shards_pruned = 0
        self.routing_overflows = 0
        self.shards_failed = 0
        self.certified_exact = 0
        self.degraded_answers = 0
        self.recoveries = 0
        self._counter_lock = monitored_lock(COUNTER)
        self._recovery_lock = monitored_lock(RECOVERY)
        self._routing = ReadWriteLock(ROUTING)
        self._scrub_cursor = 0
        self._executor: ThreadPoolExecutor | None = None
        # -- fault domains -------------------------------------------------
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.allow_degraded = allow_degraded
        self.injector = injector
        #: Recent :class:`ShardHealthEvent` s (bounded; newest last).
        self.health_events: deque[ShardHealthEvent] = deque(maxlen=256)
        self._health_observers: list[Callable[[ShardHealthEvent], None]] = []
        self._guards = [
            ShardGuard(
                shard.index,
                self.resilience,
                injector=injector,
                on_event=self._note_health,
            )
            for shard in self.shards
        ]

    # ------------------------------------------------------------------
    # Construction (in process)
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        num_shards: int = 4,
        method: str = "kd",
        clock: EpochClock | None = None,
        epoch_length: float = DEFAULT_EPOCH_LENGTH_DAYS,
        strategy: str | GroupingStrategy = "integral3d",
        until_time: float | None = None,
        bulk: bool = False,
        parallelism: int = 1,
        resilience: ResilienceConfig | None = None,
        injector: FaultInjector | None = None,
        allow_degraded: bool = False,
        **kwargs: Any,
    ) -> ClusterTree[Shard]:
        """Plan shards over ``dataset`` and build one TAR-tree per shard.

        Mirrors :meth:`TARTree.build`: the effective POIs' check-in
        histories up to ``until_time`` are digested before placement.
        Every shard tree gets the dataset's full world (identical
        ``d_max``) and its own private
        :class:`~repro.storage.stats.AccessStats`; its initial load is a
        guarded ``"mutate"`` call.
        """
        if clock is None:
            clock = EpochClock(dataset.t0, epoch_length)
        current_time = dataset.tc if until_time is None else until_time
        poi_ids = dataset.effective_poi_ids()
        counts = dataset.epoch_counts(clock, poi_ids)
        positions: list[tuple[float, float]] = [
            (float(dataset.positions[poi_id][0]), float(dataset.positions[poi_id][1]))
            for poi_id in poi_ids
        ]
        plan = plan_shards(positions, num_shards, method=method, world=dataset.world)
        assignments: list[list[tuple[POI, dict[int, int]]]] = [
            [] for _ in plan.regions
        ]
        for poi_id, point in zip(poi_ids, positions):
            index = plan.route(point)
            if index is None:
                index = plan.nearest(point)
            assignments[index].append((POI(poi_id, *point), counts[poi_id]))
        shards = [
            Shard(
                index,
                region,
                TARTree(
                    world=dataset.world,
                    clock=clock,
                    current_time=current_time,
                    strategy=strategy,
                    stats=AccessStats(),
                    **kwargs,
                ),
            )
            for index, region in enumerate(plan.regions)
        ]
        cluster = ClusterTree(
            plan,
            shards,
            parallelism=parallelism,
            resilience=resilience,
            injector=injector,
            allow_degraded=allow_degraded,
        )
        for shard, rows in zip(shards, assignments):
            cluster._guards[shard.index].call(
                "mutate", lambda token: shard.load(rows, bulk)
            )
        return cluster

    # ------------------------------------------------------------------
    # Basic surface parity with TARTree
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._routing.read_locked():
            return sum(self._descriptor(shard).pois for shard in self.shards)

    def __contains__(self, poi_id: object) -> bool:
        with self._routing.read_locked():
            return self._owner_of(poi_id) is not None

    @property
    def current_time(self) -> float:
        """The most advanced shard clock (digests advance per shard)."""
        reported = [shard.current_time for shard in self.shards]
        times = [time for time in reported if time is not None]
        if not times:
            raise ClusterStateError("no shard has reported a clock yet")
        return max(times)

    # -- the in-process tree surface ------------------------------------
    #
    # Direct, unguarded reads of the shard trees — the sequential-scan
    # oracle reads a cluster this way.  A worker cluster holds no trees
    # and refuses them.

    def _trees(self, needs: str) -> list[TARTree]:
        trees = [shard.tree for shard in self.shards if isinstance(shard, Shard)]
        if len(trees) != len(self.shards):
            raise ValueError(
                "%s needs in-process shard trees; a worker cluster holds "
                "only shard descriptors" % needs
            )
        return trees

    def _tree_holding(self, poi_id: Any) -> TARTree:
        for tree in self._trees("a POI lookup"):
            if poi_id in tree:
                return tree
        raise KeyError(poi_id)

    def poi(self, poi_id: Any) -> POI:
        """The registered :class:`~repro.core.tar_tree.POI`, any shard."""
        return self._tree_holding(poi_id).poi(poi_id)

    def poi_ids(self) -> list[Any]:
        """Every indexed POI id across all shards (shard order)."""
        ids: list[Any] = []
        for tree in self._trees("poi_ids()"):
            ids.extend(tree.poi_ids())
        return ids

    def poi_tia(self, poi_id: Any) -> Any:
        """The POI's leaf TIA, wherever it is sharded."""
        return self._tree_holding(poi_id).poi_tia(poi_id)

    def tia_aggregate(
        self,
        tia: Any,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Aggregate ``tia`` over ``interval`` (baseline-scan support).

        TIA aggregation is stateless with respect to the owning tree —
        any shard evaluates it identically — so the sequential-scan
        ground truth runs against a cluster unchanged.
        """
        return self._trees("tia_aggregate()")[0].tia_aggregate(
            tia, interval, semantics
        )

    # ------------------------------------------------------------------
    # Counters and health
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The coordinator's running totals as a JSON-ready dict.

        Shard-scoped totals use the canonical dotted keys
        (``shards.visited``, ``shards.retries``, ...; same scheme as
        the per-shard ``shards.<i>.*`` blocks in :meth:`explain`).
        """
        guards = self._guards
        with self._counter_lock:
            counters = {
                "shards": len(guards),
                "queries": self.queries,
                "shards.visited": self.shards_visited,
                "shards.pruned": self.shards_pruned,
                "routing_overflows": self.routing_overflows,
                "shards.failed": self.shards_failed,
                "certified_exact": self.certified_exact,
                "degraded_answers": self.degraded_answers,
                "recoveries": self.recoveries,
            }
        counters["breaker_opens"] = sum(guard.breaker.opens for guard in guards)
        counters["shards.down"] = _down(guards)
        counters["shards.retries"] = sum(guard.retries for guard in guards)
        counters["shards.timeouts"] = sum(guard.timeouts for guard in guards)
        return counters

    def _note_health(self, event: ShardHealthEvent) -> None:
        self.health_events.append(event)
        for observer in list(self._health_observers):
            observer(event)

    def add_health_observer(
        self, observer: Callable[[ShardHealthEvent], None]
    ) -> None:
        """Register a callback invoked on every shard health event."""
        self._health_observers.append(observer)

    def remove_health_observer(
        self, observer: Callable[[ShardHealthEvent], None]
    ) -> None:
        self._health_observers.remove(observer)

    def health(self) -> dict[str, Any]:
        """Per-shard breaker/guard state plus recent health events."""
        with self._routing.read_locked():
            shards = [self._shard_health(shard) for shard in self.shards]
        with self._counter_lock:
            report: dict[str, Any] = {
                "shards": shards,
                "recoveries": self.recoveries,
                "degraded_answers": self.degraded_answers,
                "certified_exact": self.certified_exact,
            }
        report["events"] = [event.as_dict() for event in list(self.health_events)]
        return report

    def _shard_health(self, shard: _Endpoint) -> dict[str, object]:
        snapshot = self._guards[shard.index].snapshot()
        snapshot["shard"] = shard.index
        snapshot["pois"] = shard.descriptor.pois
        snapshot["descriptor_fresh"] = shard.descriptor.fresh
        return snapshot

    # ------------------------------------------------------------------
    # Cluster-level normalisation (identical to the single tree's)
    # ------------------------------------------------------------------

    def _descriptor(self, shard: _Endpoint) -> ShardDescriptor:
        """``shard``'s bound state, re-described (guarded) if a failed
        mutation left it stale; a down shard keeps its last values."""
        if not shard.descriptor.fresh:
            try:
                self._guards[shard.index].call("query", lambda token: shard.describe())
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
        return shard.descriptor

    def global_epoch_max(self) -> dict[int, int]:
        """Per-epoch maxima over *all* shards — the single tree's view.

        Served from the shard descriptors, which every mutation
        refreshes — so the query path never touches a shard for
        normalisation, and a *down* shard contributes its last
        consistent maxima instead of failing the whole cluster.
        """
        with self._routing.read_locked():
            return self._epoch_max()

    def _epoch_max(self) -> dict[int, int]:
        merged: dict[int, int] = {}
        for shard in self.shards:
            for epoch, value in self._descriptor(shard).epoch_max.items():
                if value > merged.get(epoch, 0):
                    merged[epoch] = value
        return merged

    def normalizer(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        exact: bool = False,
    ) -> Normalizer:
        """The per-query normaliser every shard search must share
        (``exact=True`` needs the in-process shard trees)."""
        if exact:
            g_max = 0
            for tree in self._trees("exact=True"):
                for poi_id in tree.poi_ids():
                    value = tree.tia_aggregate(
                        tree.poi_tia(poi_id), interval, semantics
                    )
                    if value > g_max:
                        g_max = value
            return Normalizer.create(self.world.diagonal(), g_max)
        with self._routing.read_locked():
            return self._normalizer(interval, semantics)

    def _normalizer(
        self, interval: TimeInterval, semantics: IntervalSemantics
    ) -> Normalizer:
        maxima = self._epoch_max()
        values = (
            maxima.get(epoch, 0)
            for epoch in self.clock.epoch_range(interval, semantics)
        )
        if self.aggregate_kind is AggregateKind.MAX:
            g_max = max(values, default=0)
        else:
            g_max = sum(values)
        return Normalizer.create(self.world.diagonal(), g_max)

    # ------------------------------------------------------------------
    # Scatter-gather query path
    # ------------------------------------------------------------------

    def query(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> RankedAnswer | DegradedAnswer:
        """Answer ``query`` exactly; see the module docs for the bound.

        ``stats`` (when given) additionally receives the merged node
        accesses of this call, for per-request attribution.

        When a shard is down, the answer is still *exact* whenever the
        degradation certificate holds (the shard's best-possible score
        cannot beat the running k-th result).  Otherwise the call
        raises :class:`ClusterDegradedError` — or, under
        ``allow_degraded`` (argument, else the cluster default),
        returns a :class:`DegradedAnswer` carrying the coverage, the
        missed shard ids and the tight score bound.
        """
        with self._routing.read_locked():
            gathered = self._scatter(query, normalizer)
        self._account(gathered.per_shard.values(), stats)
        return self._resolve(
            gathered.top, gathered.blocking, allow_degraded, gathered.shards
        )

    def explain(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        allow_degraded: bool | None = None,
    ) -> tuple[RankedAnswer | DegradedAnswer, dict[str, int]]:
        """Answer ``query`` and report a flat, diffable cost mapping.

        The coordinator-level keys are the same on every transport:
        ``shards``, the pruning outcome (``shards.visited`` /
        ``shards.pruned``) and the fault-domain outcome
        (``shards.failed`` — shards that errored out of the dispatch,
        ``shards.certified`` — failed shards proven irrelevant by the
        bound certificate, ``shards.down`` — breakers currently open).
        Every visited shard adds its node accesses under
        ``shards.<i>.*``, and the merged totals follow under the plain
        :meth:`AccessStats.as_dict` keys.
        """
        with self._routing.read_locked():
            gathered = self._scatter(query, normalizer)
            down = _down(self._guards)
        cost: dict[str, int] = {
            "shards": gathered.shards,
            "shards.visited": gathered.visited,
            "shards.pruned": gathered.pruned,
            "shards.failed": gathered.failed,
            "shards.certified": gathered.failed - len(gathered.blocking),
            "shards.down": down,
        }
        for index, shard_stats in sorted(gathered.per_shard.items()):
            cost.update(shard_stats.as_dict(label="shards.%d" % index))
        cost.update(self._account(gathered.per_shard.values()).as_dict())
        answer = self._resolve(
            gathered.top, gathered.blocking, allow_degraded, gathered.shards
        )
        return answer, cost

    def query_batch(
        self,
        queries: Sequence[KNNTAQuery],
        stats: AccessStats | None = None,
        allow_degraded: bool | None = None,
    ) -> list[RankedAnswer | DegradedAnswer]:
        """Answer a batch: one batch call per shard, full merge.

        Every non-empty shard runs the whole batch under one shard
        snapshot (:meth:`~repro.core.tar_tree.TARTree.query_batch`, one
        search per rider), with the cluster-level normalisers pushed
        down; per-query results merge deterministically.  Batches visit
        every shard whose descriptor holds a POI — the per-query pruning
        bound does not compose across a whole batch.

        A shard failing out of the dispatch degrades *per rider*: each
        answer is certified on its own bound (the missed shard's
        best-possible score for *that* query versus its k-th result),
        each certified rider counts once in ``certified_exact``, and
        only the rest degrade (or raise, under the strict default).
        """
        for query in queries:
            query.validate()
        merged: list[list[_Row]] = [[] for _ in queries]
        per_shard: list[AccessStats] = []
        visited: list[int] = []

        def absorb(
            index: int,
            outcome: tuple[Sequence[Sequence[QueryResult]], AccessStats],
        ) -> None:
            lists, shard_stats = outcome
            visited.append(index)
            per_shard.append(shard_stats)
            for rows, results in zip(merged, lists):
                rows.extend(
                    (result.score, index, position, result)
                    for position, result in enumerate(results)
                )

        with self._routing.read_locked():
            normalizers: dict[tuple[TimeInterval, IntervalSemantics], Normalizer] = {}
            for query in queries:
                key = (query.interval, query.semantics)
                if key not in normalizers:
                    normalizers[key] = self._normalizer(*key)
            failed, _ = self._gather(
                [
                    shard.index
                    for shard in self.shards
                    if self._descriptor(shard).mbr is not None
                ],
                lambda index: self._guards[index].call(
                    "query",
                    lambda token: self.shards[index].batch(token, queries, normalizers),
                ),
                absorb,
            )
            resolved: list[tuple[list[QueryResult], dict[int, float]]] = []
            certified = 0
            for query, rows in zip(queries, merged):
                normalizer = normalizers[(query.interval, query.semantics)]
                missed: dict[int, float] = {}
                for index in failed:
                    bound = self.shards[index].descriptor.bound(
                        query, normalizer, self.clock, self.aggregate_kind
                    )
                    if bound is not None:
                        missed[index] = bound
                top, blocking = _certify(rows, query.k, missed)
                if missed and not blocking:
                    certified += 1
                resolved.append((top, blocking))
            shard_count = len(self.shards)
        self._account(per_shard, stats)
        # Every rider searched each visited shard and missed each failed
        # one: count both per rider, as ``queries`` and ``certified`` are.
        riders = len(queries)
        self._count(
            riders, riders * len(visited), 0, riders * len(failed), certified
        )
        return [
            self._resolve(top, blocking, allow_degraded, shard_count)
            for top, blocking in resolved
        ]

    def _shard_bound(
        self, shard: _Endpoint, query: KNNTAQuery, normalizer: Normalizer
    ) -> float | None:
        """Best possible score of any POI in ``shard``; ``None`` if empty.

        MINDIST from the query point to the shard's root MBR bounds
        every POI distance from below; the shard's root-level aggregate
        bound (Property 1) bounds every aggregate from above — so this
        weighted sum under-estimates every shard POI's score.  Served
        from the shard's descriptor, so computing it never touches the
        shard — a down shard's *last consistent* bound is exactly what
        the degradation certificate needs.
        """
        return self._descriptor(shard).bound(
            query, normalizer, self.clock, self.aggregate_kind
        )

    def _scatter(self, query: KNNTAQuery, normalizer: Normalizer | None) -> _Gathered:
        """The bound-pruned scatter-gather (routing read lock held).

        Rows are ``(score, shard index, within-shard rank, result)``,
        kept sorted — ties (probability zero on continuous data) break
        toward the lower shard index, matching the batch merge.  Shards
        that fail out of the dispatch go through :func:`_certify`.
        """
        query.validate()
        push = (
            normalizer
            if normalizer is not None
            else self._normalizer(query.interval, query.semantics)
        )
        bound_of: dict[int, float] = {}
        for shard in self.shards:
            bound = self._shard_bound(shard, query, push)
            if bound is not None:
                bound_of[shard.index] = bound
        rows: list[_Row] = []
        per_shard: dict[int, AccessStats] = {}
        visited: list[int] = []

        def pruned_by_kth(index: int) -> bool:
            kth = rows[query.k - 1][0] if len(rows) >= query.k else math.inf
            return bound_of[index] >= kth

        def absorb(
            index: int, answer: tuple[list[QueryResult], AccessStats]
        ) -> None:
            results, shard_stats = answer
            visited.append(index)
            per_shard[index] = shard_stats
            rows.extend(
                (result.score, index, position, result)
                for position, result in enumerate(results)
            )
            rows.sort(key=_ROW_ORDER)

        failed, pruned = self._gather(
            sorted(bound_of, key=lambda index: (bound_of[index], index)),
            lambda index: self._guards[index].call(
                "query", lambda token: self.shards[index].query(token, query, push)
            ),
            absorb,
            pruned_by_kth,
        )
        missed = {index: bound_of[index] for index in failed}
        top, blocking = _certify(rows, query.k, missed)
        self._count(
            1, len(visited), pruned, len(missed), int(bool(missed) and not blocking)
        )
        return _Gathered(
            top, per_shard, len(visited), pruned, len(missed), blocking,
            len(self.shards),
        )

    def _gather(
        self,
        order: Sequence[int],
        call: Callable[[int], _T],
        absorb: Callable[[int, _T], None],
        prune: Callable[[int], bool] | None = None,
    ) -> tuple[list[int], int]:
        """The one scatter loop: ``call(index)`` per shard in ``order``,
        at most ``parallelism`` in flight (inline at 1, else on the
        cluster executor), each outcome absorbed here as it lands.
        Once ``prune`` holds for the next shard, it and the rest of the
        (bound-sorted) order are skipped.  Returns ``(failed shards,
        pruned count)``; a caller error propagates.
        """
        queue = deque(order)
        pending: dict[Future[_T], int] = {}
        failed: list[int] = []
        pruned = 0

        def settle(index: int, outcome: Callable[[], _T]) -> None:
            try:
                result = outcome()
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
                failed.append(index)
            else:
                absorb(index, result)

        try:
            while queue or pending:
                while queue and len(pending) < self.parallelism:
                    index = queue.popleft()
                    if prune is not None and prune(index):
                        pruned = len(queue) + 1
                        queue.clear()
                        break
                    if self.parallelism == 1:
                        settle(index, partial(call, index))
                    else:
                        pending[self._pool().submit(call, index)] = index
                if pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        settle(pending.pop(future), future.result)
        finally:
            if pending:
                wait(pending)
        return failed, pruned

    def _pool(self) -> ThreadPoolExecutor:
        """The cluster's one scatter executor, made on first parallel use."""
        with self._counter_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.parallelism,
                    thread_name_prefix="repro-scatter",
                )
            return self._executor

    def _account(
        self, per_shard: Iterable[AccessStats], stats: AccessStats | None = None
    ) -> AccessStats:
        """Merge shard access counts into the running totals (and
        ``stats``); returns the merged total."""
        total = AccessStats()
        for shard_stats in per_shard:
            total.merge(shard_stats)
        self.stats.merge(total)
        if stats is not None:
            stats.merge(total)
        return total

    def _count(
        self, queries: int, visited: int, pruned: int, failed: int, certified: int
    ) -> None:
        with self._counter_lock:
            self.queries += queries
            self.shards_visited += visited
            self.shards_pruned += pruned
            self.shards_failed += failed
            self.certified_exact += certified

    def _resolve(
        self,
        results: list[QueryResult],
        blocking: Mapping[int, float],
        allow_degraded: bool | None,
        shard_count: int,
    ) -> RankedAnswer | DegradedAnswer:
        """Apply the degradation policy to one scatter-gather outcome.

        Both branches return :class:`~repro.core.query.Answer` shapes:
        an exact outcome is a :class:`RankedAnswer`, a permitted
        partial one a :class:`DegradedAnswer`.
        """
        if not blocking:
            return RankedAnswer(results)
        coverage = 1.0 - len(blocking) / float(shard_count)
        score_bound = min(blocking.values())
        missed = tuple(sorted(blocking))
        permitted = (
            self.allow_degraded if allow_degraded is None else allow_degraded
        )
        if not permitted:
            raise ClusterDegradedError(missed, coverage, score_bound)
        with self._counter_lock:
            self.degraded_answers += 1
        return DegradedAnswer(results, missed, coverage, score_bound)

    # ------------------------------------------------------------------
    # Routed mutations
    # ------------------------------------------------------------------

    def _owner_of(self, poi_id: Any) -> _Endpoint | None:
        """Probe every shard for ownership of ``poi_id`` (routing held).

        A positive probe is decisive (POI ids are unique cluster-wide),
        so finding the owner returns even if another shard is down.
        But an unreachable shard might *be* the owner — concluding
        "absent" there would let a duplicate insert through or turn a
        delete of an indexed POI into a silent ``False`` — so when no
        reachable shard owns the POI and any probe failed, the first
        probe failure propagates instead.
        """
        first_failure: Exception | None = None
        for shard in self.shards:
            try:
                if self._guards[shard.index].call(
                    "query", lambda token: shard.contains(poi_id)
                ):
                    return shard
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
                if first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure
        return None

    def insert_poi(
        self, poi: POI, epoch_aggregates: Mapping[int, int] | None = None
    ) -> int | None:
        """Insert ``poi`` into its owning shard; returns the WAL LSN.

        Routing follows the plan; a point inside the world but outside
        every planned region falls back to the *nearest* region's shard
        and bumps ``routing_overflows``.  Returns ``None`` when the
        shard has no WAL attached.  Raises like the single tree on a
        duplicate id or an out-of-world point.
        """
        if not self.world.contains_point(poi.point):
            raise ValueError(
                "POI %r lies outside the world %r" % (poi, self.world)
            )
        with self._routing.read_locked():
            if self._owner_of(poi.poi_id) is not None:
                raise ValueError("POI %r is already indexed" % (poi.poi_id,))
            index = self.plan.route(poi.point)
            if index is None:
                index = self.plan.nearest(poi.point)
                with self._counter_lock:
                    self.routing_overflows += 1
            shard = self.shards[index]
            return self._guards[index].call(
                "mutate", lambda token: shard.insert(token, poi, epoch_aggregates)
            )

    def delete_poi(self, poi_id: Any) -> bool:
        """Delete ``poi_id`` from its owning shard; ``True`` if indexed."""
        with self._routing.read_locked():
            owner = self._owner_of(poi_id)
            if owner is None:
                return False
            shard = owner
            return self._guards[shard.index].call(
                "mutate", lambda token: shard.delete(token, poi_id)
            )

    def digest_epoch(self, epoch_index: int, counts: Mapping[Any, int]) -> None:
        """Digest one epoch batch, routed per owning shard.

        The whole batch is validated against the cluster first (an
        unknown POI with a positive count raises ``KeyError`` before
        *any* shard applies anything), then each shard receives its
        sub-batch — through its WAL when one is attached.  Non-positive
        counts are dropped, matching both the single tree and the
        ingest semantics.
        """
        with self._routing.read_locked():
            routed: dict[int, dict[Any, int]] = {}
            for poi_id, delta in counts.items():
                if delta <= 0:
                    continue
                owner = self._owner_of(poi_id)
                if owner is None:
                    raise KeyError(
                        "cannot digest check-ins for unknown POI %r" % (poi_id,)
                    )
                routed.setdefault(owner.index, {})[poi_id] = delta
            for index in sorted(routed):

                def apply(
                    token: CallToken,
                    shard: _Endpoint = self.shards[index],
                    sub_batch: dict[Any, int] = routed[index],
                ) -> None:
                    shard.digest(token, epoch_index, sub_batch)

                self._guards[index].call("mutate", apply)

    # ------------------------------------------------------------------
    # Durability and maintenance
    # ------------------------------------------------------------------

    def _state_dir(self) -> str:
        if self.directory is None:
            raise ClusterStateError(
                "this cluster has no durable state; attach it with "
                "save_cluster() or open_cluster()"
            )
        return self.directory

    def checkpoint(self) -> str:
        """Checkpoint every shard and rewrite the cluster manifest.

        Each shard snapshot is taken under that shard's write lock; the
        manifest written afterwards records the applied LSN of exactly
        these snapshots, tying them into one consistent cluster
        checkpoint.  Returns the manifest path.
        """
        with self._routing.read_locked():
            return self._write_checkpoint()

    def _write_checkpoint(self) -> str:
        """Snapshot every shard, then the manifest (routing lock held).
        Unguarded on purpose: a worker cluster holds the routing *write*
        lock here, where a guard's retry sleep must never run."""
        from repro.cluster.state import manifest_payload, write_manifest_payload

        directory = self._state_dir()
        entries = [(shard.dirname, shard.checkpoint()) for shard in self.shards]
        payload = manifest_payload(
            self.name,
            self.parallelism,
            self.plan,
            entries,
            plan_epoch=self.plan_epoch,
            next_dir=self.next_dir,
        )
        return write_manifest_payload(directory, payload)

    def scrub_tick(self, budget: int | None = None) -> int:
        """One bounded scrub tick on the next shard (round-robin).

        Doubles as the online-recovery driver: when the tick lands on a
        shard whose breaker is flagged ``needs_recovery`` and the
        cluster has durable state, the tick attempts
        :meth:`recover_shard` instead of scrubbing.  A shard that fails
        its tick (or its recovery) costs the tick — the guard records
        the failure and the tick returns 0 rather than crashing the
        maintenance loop.
        """
        with self._counter_lock:
            cursor = self._scrub_cursor
            self._scrub_cursor += 1
        with self._routing.read_locked():
            shard = self.shards[cursor % len(self.shards)]
            guard = self._guards[shard.index]
        if guard.breaker.needs_recovery:
            if self.directory is not None:
                try:
                    self.recover_shard(shard.index)
                except Exception as exc:
                    if classify_error(exc) == CALLER:
                        raise
            return 0
        try:
            return guard.call("scrub", lambda token: shard.scrub(budget))
        except Exception as exc:
            if classify_error(exc) == CALLER:
                raise
            return 0

    def recover_shard(self, index: int) -> None:
        """Reopen shard ``index`` from its durable state and cut over, online.

        The reopen — in process, snapshot + WAL-tail recovery of a
        fresh tree; for a worker, a respawn, whose startup *is* that
        recovery — runs through the guard as an ``"open"`` call
        (fault-injectable, never breaker-rejected: it is how a
        quarantined shard gets back in).  The endpoint then cuts over
        under the recovery lock: the recovered LSN must not be behind
        the live shard's (:func:`check_cutover`; a refused fresh
        endpoint is closed), an in-process shard swaps its tree under
        its write lock with a new WAL ingest, a worker endpoint swaps
        its connection, and the descriptor refreshes.  Queries keep
        flowing the whole time.  Afterwards the breaker is readmitted
        half-open; probe successes close it.

        Lock order (rank-ascending, per the canonical hierarchy): the
        guarded reopen runs *before* the recovery lock — it touches no
        shared coordinator state and may fire breaker/health callbacks,
        which must never happen under an engine lock.  The recovery
        lock (rank 20) serialises the cutover itself, nesting only the
        shard's write lock (rank 30) and the counter lock (rank 80); the
        readmission — another callback-firing breaker transition —
        happens after it is released.
        """
        directory = self._state_dir()
        with self._routing.read_locked():
            shard = self.shards[index]
            guard = self._guards[index]
        shard_dir = os.path.join(directory, shard.dirname)
        fresh = guard.call("open", lambda token: shard.reopen(shard_dir))
        try:
            with self._recovery_lock:
                shard.adopt(fresh, shard_dir)
                with self._counter_lock:
                    self.recoveries += 1
        except ClusterStateError:
            fresh.close()
            raise
        guard.readmit()

    def close(self) -> None:
        """Stop the scatter executor, close every shard (WALs and
        scrubbers in process, the processes of a worker cluster), then
        the guards' executors."""
        with self._counter_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        for shard in self.shards:
            shard.close()
        for guard in self._guards:
            guard.close()

    def __enter__(self: _Cluster) -> _Cluster:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[_Endpoint]:
        return iter(self.shards)

    def __repr__(self) -> str:
        return "ClusterTree(%d shards, %d POIs, %s plan%s)" % (
            len(self.shards),
            len(self),
            self.plan.method,
            ", durable" if self.directory is not None else "",
        )
