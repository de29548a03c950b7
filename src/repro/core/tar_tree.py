"""The TAR-tree (temporal aggregate R-tree), Section 4.

A TAR-tree is an R-tree variant in which *every entry* — leaf and
internal — points to a TIA (temporal index on the aggregate).  A leaf
entry's TIA stores the per-epoch check-in counts of its POI; an internal
entry's TIA stores, for each epoch, the maximum over the TIAs in its
child node.  That max-invariant is what makes the BFS ranking function
consistent (Property 1) and hence the search correct.

The spatial and aggregate components are deliberately separate (the paper
notes aggregate updates are far more frequent than spatial ones):
check-ins are digested per epoch through :meth:`TARTree.digest_epoch`,
which touches only the affected leaf-to-root paths, while POI insertion
follows the configured entry grouping strategy
(:mod:`repro.core.grouping`).
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    KeysView,
    Mapping,
    Protocol,
    Sequence,
    cast,
)

from repro.core.frames import EpochRow, FrameStore
from repro.core.grouping import resolve_strategy
from repro.core.query import KNNTAQuery, Normalizer
from repro.spatial.geometry import Rect
from repro.spatial.rstar import Entry, Node
from repro.storage.pager import node_capacity
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import (
    DEFAULT_TIA_BUFFER_SLOTS,
    DEFAULT_TIA_PAGE_SIZE,
    AggregateKind,
    IntervalSemantics,
    make_tia_factory,
)

if TYPE_CHECKING:
    from repro.core.grouping import GroupingStrategy
    from repro.core.query import QueryResult, RankedAnswer
    from repro.datasets.generator import Dataset
    from repro.reliability.recovery import RobustAnswer
    from repro.temporal.epochs import TimeInterval, VariedEpochClock
    from repro.temporal.tia import BaseTIA

    Clock = EpochClock | VariedEpochClock
    MutationObserver = Callable[[str, tuple[Any, ...]], None]

DEFAULT_NODE_SIZE = 1024
DEFAULT_EPOCH_LENGTH_DAYS = 7.0
#: Target node fill of :meth:`TARTree.bulk_load`'s STR packing.  A
#: snapshot keeps the packed layout across restarts, so it must serve
#: queries well, not just build fast: on the benchmark data 0.6-full
#: leaves score fewer entries per query than both 0.9-full ones and
#: the insert-built tree.
BULK_FILL_RATIO = 0.6


class UnloggedMutationError(RuntimeError):
    """A WAL-wrapped tree was mutated in a way the log cannot express.

    Raised by structural rebuilds (:meth:`TARTree.bulk_load`,
    :meth:`TARTree.refresh_aggregate_dimension`) while a mutation
    listener is attached: their effects cannot be replayed from WAL
    records, so allowing them would silently diverge the durable state
    from the in-memory tree.  Detach the listener first (close the
    :class:`~repro.reliability.recovery.CheckpointedIngest`), rebuild,
    then re-wrap and take a fresh checkpoint.
    """


class MutationListener(Protocol):
    """The write-ahead mutation listener interface.

    See :meth:`TARTree.attach_mutation_listener` for the calling
    contract; :class:`~repro.reliability.recovery.CheckpointedIngest`
    is the canonical implementation.
    """

    def will_insert_poi(
        self,
        tree: TARTree,
        poi: POI,
        epoch_aggregates: Mapping[int, int] | None,
    ) -> None: ...

    def will_delete_poi(self, tree: TARTree, poi_id: Any) -> None: ...

    def will_digest_epoch(
        self, tree: TARTree, epoch_index: int, counts: Mapping[Any, int]
    ) -> None: ...


class POI:
    """A point of interest: an identifier plus a 2-D location."""

    __slots__ = ("poi_id", "x", "y")

    def __init__(self, poi_id: Any, x: float, y: float) -> None:
        self.poi_id = poi_id
        self.x = float(x)
        self.y = float(y)
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                "POI %r needs finite coordinates, got (%r, %r)" % (poi_id, x, y)
            )

    @property
    def point(self) -> tuple[float, float]:
        return (self.x, self.y)

    def __repr__(self) -> str:
        return "POI(%r, %g, %g)" % (self.poi_id, self.x, self.y)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, POI)
            and self.poi_id == other.poi_id
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.poi_id, self.x, self.y))


class TARTree:
    """The temporal aggregate R-tree.

    Parameters
    ----------
    world:
        2-D :class:`~repro.spatial.geometry.Rect` bounding every POI; its
        diagonal is the spatial normalisation constant.
    clock:
        Epoch clock (:class:`~repro.temporal.epochs.EpochClock` or
        :class:`~repro.temporal.epochs.VariedEpochClock`).
    current_time:
        The application's current time ``tc``; the denominator of the
        integral-3D ``lambda-hat`` statistic.
    strategy:
        Entry grouping strategy — ``"integral3d"`` (the paper's TAR-tree),
        ``"spatial"`` (``IND-spa``) or ``"aggregate"`` (``IND-agg``), or a
        :class:`~repro.core.grouping.GroupingStrategy` instance.
    node_size:
        R-tree node size in bytes; the entry capacity follows from the
        strategy's grouping dimensionality (1024 bytes gives 50 for 2-D
        and 36 for 3-D entries, as in the paper).
    tia_backend / tia_page_size / tia_buffer_slots:
        TIA configuration (see :mod:`repro.temporal.tia`).
    stats:
        Shared :class:`~repro.storage.stats.AccessStats`; one is created
        when omitted.
    """

    def __init__(
        self,
        world: Rect,
        clock: Clock,
        current_time: float,
        strategy: str | GroupingStrategy = "integral3d",
        node_size: int = DEFAULT_NODE_SIZE,
        tia_backend: str = "paged",
        tia_page_size: int = DEFAULT_TIA_PAGE_SIZE,
        tia_buffer_slots: int = DEFAULT_TIA_BUFFER_SLOTS,
        stats: AccessStats | None = None,
        min_fill_ratio: float = 0.4,
        reinsert_ratio: float = 0.3,
        aggregate_kind: AggregateKind | str = AggregateKind.COUNT,
    ) -> None:
        if world.dims != 2:
            raise ValueError("the world rectangle must be 2-D")
        self.world = world
        self.clock = clock
        self.current_time = float(current_time)
        if isinstance(aggregate_kind, str):
            aggregate_kind = AggregateKind(aggregate_kind.lower())
        self.aggregate_kind = aggregate_kind
        self.strategy = resolve_strategy(strategy)
        self.node_size = node_size
        self.capacity = node_capacity(node_size, self.strategy.dims)
        self.min_fill = max(1, int(math.ceil(self.capacity * min_fill_ratio)))
        self.reinsert_count = max(1, int(self.capacity * reinsert_ratio))
        self.stats = stats if stats is not None else AccessStats()
        self._tia_factory = make_tia_factory(
            tia_backend,
            stats=self.stats,
            page_size=tia_page_size,
            buffer_slots=tia_buffer_slots,
        )
        self.tia_backend = tia_backend
        self.root = Node(level=0)
        self._pois: dict[Any, POI] = {}
        self._poi_tias: dict[Any, BaseTIA] = {}
        self._leaf_of: dict[Any, Node] = {}
        self._global_epoch_max: dict[int, int] = {}
        self._global_max_dirty = False
        #: ``_global_epoch_max`` as an :class:`EpochRow`, built by the
        #: first normaliser after a write that changed the maxima.
        self._global_row: EpochRow | None = None
        self._max_mean_rate = 0.0
        self._size = 0
        self._mutation_listener: MutationListener | None = None
        self._mutation_observers: list[MutationObserver] = []
        #: Packed per-node frames: the query hot path scores entries
        #: from their flat arrays instead of chasing Entry/Rect/TIA
        #: objects (see :mod:`repro.core.frames`).  Kept coherent by
        #: the per-node stamps alone.
        self.frames = FrameStore(self)
        #: LSN of the last write-ahead-logged mutation applied to this
        #: tree (``None`` when the tree has never been WAL-wrapped).
        #: Persisted by :func:`repro.storage.serialize.save_tree` so a
        #: snapshot doubles as a replay high-water mark.
        self.applied_lsn: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        clock: Clock | None = None,
        epoch_length: float = DEFAULT_EPOCH_LENGTH_DAYS,
        strategy: str | GroupingStrategy = "integral3d",
        until_time: float | None = None,
        bulk: bool = False,
        **kwargs: Any,
    ) -> TARTree:
        """Build a TAR-tree over a data set's effective POIs.

        The per-POI check-in histories up to ``until_time`` (default: the
        data set's current time) are digested into the TIAs before the
        POIs are placed, so the integral-3D strategy sees the true
        ``lambda-hat`` of every POI — matching the paper's setting of
        indexing an existing LBSN snapshot.

        With ``bulk=True`` the tree is STR-packed in the strategy's
        grouping space (one sort pass per dimension) instead of inserted
        one POI at a time — much faster for large snapshots, supported
        for the rectangle-keyed strategies (integral-3D and ``IND-spa``).
        """
        if clock is None:
            clock = EpochClock(dataset.t0, epoch_length)
        current_time = dataset.tc if until_time is None else until_time
        tree = cls(
            world=dataset.world,
            clock=clock,
            current_time=current_time,
            strategy=strategy,
            **kwargs,
        )
        poi_ids = dataset.effective_poi_ids()
        counts = dataset.epoch_counts(clock, poi_ids)
        num_epochs = tree.num_epochs
        if num_epochs > 0:
            tree._max_mean_rate = max(
                (sum(c.values()) / num_epochs for c in counts.values()),
                default=0.0,
            )
        poi_histories = [
            (POI(poi_id, *dataset.positions[poi_id]), counts[poi_id])
            for poi_id in poi_ids
        ]
        if bulk:
            tree.bulk_load(poi_histories)
        else:
            for poi, history in poi_histories:
                tree.insert_poi(poi, history)
        return tree

    def bulk_load(
        self, poi_histories: Sequence[tuple[POI, Mapping[int, int]]]
    ) -> None:
        """STR-pack ``[(POI, {epoch: agg}), ...]`` into an empty tree.

        Packs in the grouping strategy's rectangle space (see
        :mod:`repro.spatial.bulk`) at a node fill of
        ``BULK_FILL_RATIO``, so the bulk-loaded tree clusters entries by
        the same criteria the incremental algorithms optimise.
        Only rectangle-keyed strategies support bulk loading; ``IND-agg``
        groups by distribution distance and must be built incrementally.
        """
        from repro.core.grouping import AggregateGrouping
        from repro.spatial.bulk import str_partition

        if self._mutation_listener is not None:
            raise UnloggedMutationError(
                "bulk_load cannot be write-ahead logged; detach the "
                "mutation listener (close the CheckpointedIngest), "
                "rebuild, then re-wrap with a fresh checkpoint"
            )
        if isinstance(self.strategy, AggregateGrouping):
            raise ValueError(
                "IND-agg groups by distribution distance; bulk loading is "
                "only supported for rectangle-keyed strategies"
            )
        if self._size:
            raise ValueError("bulk_load requires an empty tree")
        if not poi_histories:
            return
        num_epochs = self.num_epochs
        if num_epochs > 0:
            rate = max(
                sum(history.values()) / num_epochs for _, history in poi_histories
            )
            if rate > self._max_mean_rate:
                self._max_mean_rate = rate

        entries = [
            Entry(
                self.strategy.leaf_rect(poi, self),
                item=poi.poi_id,
                mbr=Rect.from_point(poi.point),
                tia=tia,
            )
            for (poi, _history), tia in zip(
                poi_histories, self._register_pois(poi_histories)
            )
        ]

        level = 0
        while len(entries) > self.capacity:
            groups = str_partition(
                [entry.rect.center for entry in entries],
                self.capacity,
                min_fill=self.min_fill,
                fill_ratio=BULK_FILL_RATIO,
            )
            entries = [
                self._make_parent_entry(
                    self._link_node(level, [entries[i] for i in group])
                )
                for group in groups
            ]
            level += 1
        self.root = self._link_node(level, entries)
        self._size = len(poi_histories)

    def _register_pois(
        self, poi_histories: Sequence[tuple[POI, Mapping[int, int]]]
    ) -> list[BaseTIA]:
        """Register each POI with a fresh leaf TIA holding its history.

        Placement is the caller's (:meth:`bulk_load` packs the POIs, a
        snapshot load restores the saved nodes).  Raises ``ValueError``
        for a duplicate id or a POI outside the world.  Returns the new
        TIAs in ``poi_histories`` order.
        """
        tias: list[BaseTIA] = []
        maxima = self._maxima_for_write()
        for poi, history in poi_histories:
            if poi.poi_id in self._pois:
                raise ValueError("POI %r is already indexed" % (poi.poi_id,))
            if not self.world.contains_point(poi.point):
                raise ValueError(
                    "POI %r lies outside the world %r" % (poi, self.world)
                )
            tia = self._tia_factory()
            if history:
                tia.replace_all(history)
            self._pois[poi.poi_id] = poi
            self._poi_tias[poi.poi_id] = tia
            for epoch, value in history.items():
                if value > maxima.get(epoch, 0):
                    maxima[epoch] = value
            tias.append(tia)
        return tias

    def _link_node(self, level: int, entries: list[Entry]) -> Node:
        """A new node over ``entries``, with parent and leaf links set."""
        node = Node(level=level)
        node.entries = entries
        for entry in entries:
            if entry.child is not None:
                entry.child.parent = node
            else:
                self._leaf_of[entry.item] = node
        return node

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, poi_id: object) -> bool:
        return poi_id in self._pois

    @property
    def height(self) -> int:
        return self.root.level + 1

    @property
    def num_epochs(self) -> int:
        """Epochs elapsed by ``current_time`` (the ``m`` of Section 3)."""
        return self.clock.num_epochs(self.current_time)

    def poi(self, poi_id: Any) -> POI:
        """Return the registered :class:`POI` for ``poi_id``."""
        return self._pois[poi_id]

    def poi_ids(self) -> KeysView[Any]:
        return self._pois.keys()

    def poi_tia(self, poi_id: Any) -> BaseTIA:
        """The leaf TIA of ``poi_id`` (its own per-epoch counts)."""
        return self._poi_tias[poi_id]

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(cast(Node, entry.child) for entry in node.entries)
        return count

    # ------------------------------------------------------------------
    # Normalisation helpers (used by grouping and by queries)
    # ------------------------------------------------------------------

    def normalized_position(self, poi: POI) -> tuple[float, float]:
        """Spatial coordinates scaled into the unit square."""
        wx = self.world.extent(0) or 1.0
        wy = self.world.extent(1) or 1.0
        return (
            (poi.x - self.world.lows[0]) / wx,
            (poi.y - self.world.lows[1]) / wy,
        )

    def max_mean_rate(self) -> float:
        """Largest ``lambda-hat`` seen so far (integral-3D normaliser)."""
        return self._max_mean_rate

    def aggregate_coordinate(self, poi_id: Any) -> float:
        """The integral-3D third coordinate ``z = 1 - lambda_hat / max``."""
        if self._max_mean_rate <= 0.0:
            return 1.0
        rate = self._poi_tias[poi_id].mean_rate(self.num_epochs)
        return 1.0 - rate / self._max_mean_rate

    def global_epoch_max(self) -> dict[int, int]:
        """Per-epoch maxima over all POIs: ``{epoch_index: max agg}``.

        This is exactly the information the root-level TIAs bound; the
        tree maintains it directly so queries can normalise ``g``.
        """
        if self._global_max_dirty:
            fresh: dict[int, int] = {}
            for tia in self._poi_tias.values():
                for epoch, value in tia.items():
                    if value > fresh.get(epoch, 0):
                        fresh[epoch] = value
            self._global_epoch_max = fresh
            self._global_max_dirty = False
            self._global_row = None
        return self._global_epoch_max

    def _maxima_for_write(self) -> dict[int, int]:
        """The live per-epoch maxima, for a write about to raise them."""
        self._global_row = None
        return self.global_epoch_max()

    def tia_aggregate(
        self,
        tia: BaseTIA,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Evaluate the tree's aggregate kind on a TIA over ``interval``."""
        return tia.aggregate(self.clock, interval, semantics, self.aggregate_kind)

    def max_aggregate_bound(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
    ) -> int:
        """Upper bound on any POI's aggregate over ``interval``.

        Combines the global per-epoch maxima over the matching epochs —
        a sum for count/sum aggregates, a max for the max aggregate; used
        as the default ``g`` normaliser (see DESIGN.md §5).  Folded from
        the maxima's :class:`~repro.core.frames.EpochRow`, rebuilt after
        a write that changed them.
        """
        maxima = self.global_epoch_max()
        row = self._global_row
        if row is None:
            row = self._global_row = EpochRow(maxima)
        span = self.clock.epoch_range(interval, semantics)
        return row.fold(span.start, span.stop, self.aggregate_kind)

    def normalizer(
        self,
        interval: TimeInterval,
        semantics: IntervalSemantics = IntervalSemantics.INTERSECTS,
        exact: bool = False,
    ) -> Normalizer:
        """Build the per-query :class:`~repro.core.query.Normalizer`.

        With ``exact=True`` the aggregate normaliser is the true maximum
        POI aggregate over ``interval`` (one scan over the leaf TIAs);
        otherwise it is the root-level upper bound.
        """
        d_max = self.world.diagonal()
        if exact:
            g_max = max(
                (
                    self.tia_aggregate(tia, interval, semantics)
                    for tia in self._poi_tias.values()
                ),
                default=0,
            )
        else:
            g_max = self.max_aggregate_bound(interval, semantics)
        return Normalizer.create(d_max, g_max)

    # ------------------------------------------------------------------
    # POI insertion / deletion
    # ------------------------------------------------------------------

    def insert_poi(
        self, poi: POI, epoch_aggregates: Mapping[int, int] | None = None
    ) -> None:
        """Insert ``poi``, optionally with an existing check-in history.

        ``epoch_aggregates`` is ``{epoch_index: count}``; the counts are
        loaded into the POI's TIA before placement so every grouping
        strategy sees the aggregate information.

        When a mutation listener is attached (the tree is wrapped by a
        :class:`~repro.reliability.recovery.CheckpointedIngest`) the
        insertion is write-ahead logged before any state changes.
        """
        if poi.poi_id in self._pois:
            raise ValueError("POI %r is already indexed" % (poi.poi_id,))
        if not self.world.contains_point(poi.point):
            raise ValueError("POI %r lies outside the world %r" % (poi, self.world))
        if self._mutation_listener is not None:
            self._mutation_listener.will_insert_poi(self, poi, epoch_aggregates)
        tia = self._tia_factory()
        if epoch_aggregates:
            tia.replace_all(epoch_aggregates)
        self._pois[poi.poi_id] = poi
        self._poi_tias[poi.poi_id] = tia
        rate = tia.mean_rate(self.num_epochs)
        if rate > self._max_mean_rate:
            self._max_mean_rate = rate
        entry = Entry(
            self.strategy.leaf_rect(poi, self),
            item=poi.poi_id,
            mbr=Rect.from_point(poi.point),
            tia=tia,
        )
        self._insert_entry(entry, level=0, reinserted_levels=set())
        if epoch_aggregates:
            maxima = self._maxima_for_write()
            for epoch, value in epoch_aggregates.items():
                if value > maxima.get(epoch, 0):
                    maxima[epoch] = value
        self._size += 1
        self._notify_mutation("insert", poi_ids=(poi.poi_id,))

    def delete_poi(self, poi_id: Any) -> bool:
        """Remove ``poi_id``; returns ``True`` when it was indexed.

        Write-ahead logged when a mutation listener is attached; a
        miss (unknown id) is not a mutation and is never logged.
        """
        if poi_id not in self._pois:
            return False
        if self._mutation_listener is not None:
            self._mutation_listener.will_delete_poi(self, poi_id)
        leaf = self._leaf_of[poi_id]
        for i, entry in enumerate(leaf.entries):
            if entry.item == poi_id:
                del leaf.entries[i]
                leaf.stamp += 1
                break
        else:
            raise AssertionError("registry points at a leaf missing POI %r" % (poi_id,))
        del self._pois[poi_id]
        del self._poi_tias[poi_id]
        del self._leaf_of[poi_id]
        self._condense(leaf)
        if not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = cast(Node, self.root.entries[0].child)
            self.root.parent = None
        self._global_max_dirty = True
        self._size -= 1
        self._notify_mutation("delete", poi_ids=(poi_id,))
        return True

    # ------------------------------------------------------------------
    # Check-in digestion (Section 4.2, "Inserting Check-ins")
    # ------------------------------------------------------------------

    def digest_epoch(self, epoch_index: int, counts: Mapping[Any, int]) -> None:
        """Digest one finished epoch's check-in counts.

        ``counts`` maps POI ids to the epoch's contribution: the number
        of check-ins for count/sum aggregates, or the epoch's peak value
        for the max aggregate.  Each non-zero value is stored in the
        POI's TIA and the per-epoch maxima along the leaf-to-root path
        are raised — the batch update procedure of Section 4.2.  With a
        mutation listener attached the batch is write-ahead logged
        (with the absolute per-POI value it must reach) before any TIA
        changes.
        """
        if self._mutation_listener is not None:
            self._mutation_listener.will_digest_epoch(self, epoch_index, counts)
        maxima = self._maxima_for_write()
        is_max_kind = self.aggregate_kind is AggregateKind.MAX
        for poi_id, delta in counts.items():
            if delta <= 0:
                continue
            if poi_id not in self._pois:
                raise KeyError("cannot digest check-ins for unknown POI %r" % (poi_id,))
            tia = self._poi_tias[poi_id]
            if is_max_kind:
                tia.raise_to(epoch_index, delta)
            else:
                tia.add(epoch_index, delta)
            value = tia.get(epoch_index)
            if value > maxima.get(epoch_index, 0):
                maxima[epoch_index] = value
            node = self._leaf_of[poi_id]
            node.stamp += 1
            while node.parent is not None:
                parent = node.parent
                if not parent.entry_for_child(node).tia.raise_to(epoch_index, value):
                    break
                parent.stamp += 1
                node = parent
        ts, te = self.clock.bounds(epoch_index)
        if math.isfinite(te) and te > self.current_time:
            self.current_time = te
        self._notify_mutation(
            "digest", poi_ids=tuple(poi_id for poi_id in counts if poi_id in self._pois)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        query: KNNTAQuery,
        normalizer: Normalizer | None = None,
        stats: AccessStats | None = None,
        cutoff: float = math.inf,
    ) -> RankedAnswer:
        """Answer a :class:`~repro.core.query.KNNTAQuery` — *the* query
        entry point.

        Runs the best-first search of :func:`repro.core.knnta
        .knnta_search` and returns the ranked
        :class:`~repro.core.query.RankedAnswer` (a list of
        :class:`~repro.core.query.QueryResult` rows satisfying the
        :class:`~repro.core.query.Answer` protocol).  ``normalizer``
        defaults to :meth:`normalizer` for the query's interval; a
        cluster pushes its own down.  ``stats``, when given, receives
        this call's node accesses in place of :attr:`stats`, so
        concurrent callers attribute them exactly; TIA page accesses
        always go to :attr:`stats`.  ``cutoff`` (inclusive) drops every
        row scoring above it — the answer is the uncut one truncated
        there — and the search stops once nothing at or below it is
        left; a cluster passes its running k-th score.  A NaN cutoff
        raises ``ValueError``.  :meth:`robust_query` is the
        fault-tolerant companion and :meth:`query_batch` the batch form.
        """
        from repro.core.knnta import search

        return search(
            self, query, normalizer, self.stats if stats is None else stats, cutoff
        )

    def query_batch(
        self,
        queries: Sequence[KNNTAQuery],
        normalizers: Mapping[tuple[TimeInterval, IntervalSemantics], Normalizer]
        | None = None,
        stats: AccessStats | None = None,
        cutoffs: Sequence[float] | None = None,
    ) -> list[RankedAnswer]:
        """Answer each query in ``queries`` with its own :meth:`query`.

        Riders share one normaliser per ``(interval, semantics)`` key:
        ``normalizers[key]`` when given (a cluster pushes its own),
        else :meth:`normalizer` once per key.  ``cutoffs``, when given,
        holds one inclusive :meth:`query` cutoff per rider (a cluster
        passes each rider's running k-th score).  The caller holds
        whatever lock makes the batch one snapshot.  ``stats`` receives
        every rider's node accesses, so a batch costs the sum of its
        riders.  Collective processing (Section 7.2,
        :class:`~repro.core.collective.CollectiveProcessor`) shares node
        fetches instead; on the serving benchmark's workloads it costs
        more CPU per query than this loop (docs/SERVICE.md,
        "Micro-batching semantics").
        """
        if cutoffs is None:
            cutoffs = [math.inf] * len(queries)
        elif len(cutoffs) != len(queries):
            raise ValueError(
                "%d cutoffs for %d queries" % (len(cutoffs), len(queries))
            )
        if normalizers is None:
            own: dict[tuple[TimeInterval, IntervalSemantics], Normalizer] = {}
            for query in queries:
                key = (query.interval, query.semantics)
                if key not in own:
                    own[key] = self.normalizer(*key)
            normalizers = own
        return [
            self.query(
                query, normalizers[(query.interval, query.semantics)], stats, cutoff
            )
            for query, cutoff in zip(queries, cutoffs)
        ]

    def robust_query(self, query: KNNTAQuery, **options: Any) -> RobustAnswer:
        """Fault-tolerant form of :meth:`query`.

        Takes the same :class:`~repro.core.query.KNNTAQuery`; retries
        transient storage faults with bounded backoff and falls back to
        the sequential-scan baseline on persistent failure or detected
        corruption (see
        :func:`repro.reliability.recovery.robust_knnta` for the
        options).  Returns a
        :class:`~repro.reliability.recovery.RobustAnswer`, whose rows
        destructure exactly like :meth:`query`'s list.
        """
        from repro.reliability.recovery import robust_knnta

        return robust_knnta(self, query, **options)

    def record_node_access(self, node: Node) -> None:
        """Count one node access in the shared stats."""
        self.stats.record_node(node.is_leaf)

    # ------------------------------------------------------------------
    # Maintenance internals
    # ------------------------------------------------------------------

    def _insert_entry(
        self, entry: Entry, level: int, reinserted_levels: set[int]
    ) -> None:
        node = self.root
        while node.level > level:
            index = self.strategy.choose_child(node, entry, self)
            node = cast(Node, node.entries[index].child)
        node.entries.append(entry)
        node.stamp += 1
        if entry.child is not None:
            entry.child.parent = node
        elif node.is_leaf:
            self._leaf_of[entry.item] = node
        self._propagate_addition(node, entry)
        if len(node.entries) > self.capacity:
            self._overflow(node, reinserted_levels)

    def _propagate_addition(self, node: Node, added_entry: Entry) -> None:
        """Grow ancestor rects/MBRs/TIAs to cover a newly added entry."""
        added_items = list(added_entry.tia.items())
        while node.parent is not None:
            parent = node.parent
            parent_entry = parent.entry_for_child(node)
            parent_entry.rect = parent_entry.rect.union(added_entry.rect)
            parent_entry.mbr = parent_entry.mbr.union(added_entry.mbr)
            for epoch, value in added_items:
                parent_entry.tia.raise_to(epoch, value)
            parent.stamp += 1
            node = parent

    def _overflow(self, node: Node, reinserted_levels: set[int]) -> None:
        can_reinsert = (
            self.strategy.uses_reinsert
            and node is not self.root
            and node.level not in reinserted_levels
        )
        if can_reinsert:
            reinserted_levels.add(node.level)
            self._force_reinsert(node, reinserted_levels)
        else:
            self._split(node, reinserted_levels)

    def _force_reinsert(self, node: Node, reinserted_levels: set[int]) -> None:
        victims = set(self.strategy.reinsert_victims(node, self))
        removed = [node.entries[i] for i in victims]
        node.entries = [
            entry for i, entry in enumerate(node.entries) if i not in victims
        ]
        node.stamp += 1
        self._recompute_upward(node)
        for entry in removed:
            self._insert_entry(entry, node.level, reinserted_levels)

    def _split(self, node: Node, reinserted_levels: set[int]) -> None:
        group_a, group_b = self.strategy.split_groups(node, self)
        entries = node.entries
        sibling = Node(level=node.level)
        node.entries = [entries[i] for i in group_a]
        node.stamp += 1
        sibling.entries = [entries[i] for i in group_b]
        for entry in sibling.entries:
            if entry.child is not None:
                entry.child.parent = sibling
            else:
                self._leaf_of[entry.item] = sibling

        if node is self.root:
            new_root = Node(level=node.level + 1)
            new_root.entries.append(self._make_parent_entry(node))
            new_root.entries.append(self._make_parent_entry(sibling))
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
            return

        parent = cast(Node, node.parent)
        self._refresh_parent_entry(parent.entry_for_child(node), node)
        parent.entries.append(self._make_parent_entry(sibling))
        parent.stamp += 1
        sibling.parent = parent
        self._recompute_upward(parent)
        if len(parent.entries) > self.capacity:
            self._overflow(parent, reinserted_levels)

    def _make_parent_entry(self, child_node: Node) -> Entry:
        entry = Entry(
            Rect.union_all(e.rect for e in child_node.entries),
            child=child_node,
            mbr=Rect.union_all(e.mbr for e in child_node.entries),
            tia=self._tia_factory(),
        )
        entry.tia.replace_all(self._epoch_maxima(child_node.entries))
        return entry

    def _refresh_parent_entry(self, entry: Entry, child_node: Node) -> None:
        entry.rect = Rect.union_all(e.rect for e in child_node.entries)
        entry.mbr = Rect.union_all(e.mbr for e in child_node.entries)
        entry.tia.replace_all(self._epoch_maxima(child_node.entries))
        if child_node.parent is not None:
            # The refreshed entry lives in the parent node; stale packed
            # frames of that node must not keep serving its old bounds.
            child_node.parent.stamp += 1

    @staticmethod
    def _epoch_maxima(entries: Iterable[Entry]) -> dict[int, int]:
        maxima: dict[int, int] = {}
        for entry in entries:
            for epoch, value in entry.tia.items():
                if value > maxima.get(epoch, 0):
                    maxima[epoch] = value
        return maxima

    def _recompute_upward(self, node: Node) -> None:
        """Exactly refresh ancestor entries after removals or splits."""
        while node.parent is not None:
            parent = node.parent
            self._refresh_parent_entry(parent.entry_for_child(node), node)
            node = parent

    def _condense(self, node: Node) -> None:
        orphans: list[tuple[int, list[Entry]]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_fill:
                parent.entries.remove(parent.entry_for_child(node))
                parent.stamp += 1
                orphans.append((node.level, list(node.entries)))
                node = parent
            else:
                self._recompute_upward(node)
                node = self.root  # path fully refreshed; stop the walk
        for level, entries in orphans:
            for entry in entries:
                self._insert_entry(entry, level, reinserted_levels=set())

    # ------------------------------------------------------------------
    # Periodic maintenance (Section 8.2's suggested reinsert/rebuild)
    # ------------------------------------------------------------------

    def refresh_aggregate_dimension(self) -> None:
        """Re-place every POI using its *current* ``lambda-hat``.

        The integral-3D z-coordinate is computed at insertion time and
        drifts as epochs accrue.  The paper suggests periodically
        reinserting entries (or rebuilding) when performance degrades;
        this method implements that refresh in place.  It is a no-op for
        the other strategies' placement quality but safe to call.
        """
        if self._mutation_listener is not None:
            raise UnloggedMutationError(
                "refresh_aggregate_dimension re-inserts every POI and "
                "cannot be write-ahead logged; detach the mutation "
                "listener (close the CheckpointedIngest) first, then "
                "re-wrap with a fresh checkpoint"
            )
        num_epochs = self.num_epochs
        if num_epochs > 0 and self._poi_tias:
            self._max_mean_rate = max(
                tia.mean_rate(num_epochs) for tia in self._poi_tias.values()
            )
        pois = [
            (self._pois[poi_id], dict(self._poi_tias[poi_id].items()))
            for poi_id in list(self._pois)
        ]
        self.root = Node(level=0)
        self._pois.clear()
        self._poi_tias.clear()
        self._leaf_of.clear()
        self._global_epoch_max = {}
        self._global_max_dirty = False
        self._global_row = None
        self._size = 0
        for poi, epochs in pois:
            self.insert_poi(poi, epochs)

    # ------------------------------------------------------------------
    # Validation / reliability hooks
    # ------------------------------------------------------------------

    def attach_mutation_listener(
        self, listener: MutationListener
    ) -> MutationListener:
        """Register the write-ahead mutation listener (one at a time).

        ``listener`` must implement ``will_insert_poi(tree, poi,
        epoch_aggregates)``, ``will_delete_poi(tree, poi_id)`` and
        ``will_digest_epoch(tree, epoch_index, counts)``; each is called
        *before* the mutation touches any tree state, so a listener that
        durably logs the mutation (and only then returns) gives
        write-ahead semantics.  A listener raising aborts the mutation
        with no state change.  While attached, structural rebuilds that
        cannot be expressed as log records raise
        :class:`UnloggedMutationError`.  Attaching over a different
        live listener raises ``ValueError``.
        """
        if (
            self._mutation_listener is not None
            and self._mutation_listener is not listener
        ):
            raise ValueError(
                "tree already has a mutation listener attached; detach "
                "it (close the previous CheckpointedIngest) first"
            )
        self._mutation_listener = listener
        return listener

    def add_mutation_observer(self, observer: MutationObserver) -> MutationObserver:
        """Register a *post*-mutation callback (any number may attach).

        Unlike the single write-ahead mutation listener, observers are
        notified **after** a logical mutation fully applied, as
        ``observer(kind, poi_ids)`` with ``kind`` one of ``"insert"``,
        ``"delete"`` or ``"digest"`` and ``poi_ids`` the affected POI
        ids.  This is the hook the service layer uses to keep derived
        state (e.g. the scrubber's fingerprint manifest) in sync with
        mutations, whichever entry point issued them.  Observers must
        not mutate the tree.
        """
        if observer not in self._mutation_observers:
            self._mutation_observers.append(observer)
        return observer

    def remove_mutation_observer(self, observer: MutationObserver) -> bool:
        """Remove a post-mutation observer; returns ``True`` when removed."""
        try:
            self._mutation_observers.remove(observer)
        except ValueError:
            return False
        return True

    def _notify_mutation(self, kind: str, poi_ids: tuple[Any, ...]) -> None:
        # The mutation has fully applied by the time observers run, so a
        # raising observer must not rob the ones after it of the event
        # (their derived state would silently drift from the tree's).
        # Every observer is notified; the first failure propagates after.
        first_error: BaseException | None = None
        for observer in list(self._mutation_observers):
            try:
                observer(kind, poi_ids)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def detach_mutation_listener(self, listener: object | None = None) -> bool:
        """Remove the mutation listener; returns ``True`` when removed.

        With ``listener`` given, only that exact listener is removed
        (so a stale wrapper cannot detach a newer one); with ``None``
        any attached listener is removed.
        """
        if self._mutation_listener is None:
            return False
        if listener is not None and self._mutation_listener is not listener:
            return False
        self._mutation_listener = None
        return True

    def check_invariants(self) -> None:
        """Raise on any broken structural or aggregate invariant.

        Verifies parent pointers, fill bounds, exact MBR/grouping-rect
        coverage, the leaf registry, the per-epoch max property of every
        internal TIA (Property 1's precondition), and the global
        per-epoch maxima.  Delegates to the structured validators in
        :mod:`repro.reliability.validate` (so it keeps working under
        ``python -O``, where ``assert`` statements vanish) and raises
        ``AssertionError`` with the violation summary.
        """
        from repro.reliability.validate import validate_tree

        validate_tree(self).raise_if_failed(AssertionError)

    def wrap_tias(self, wrapper: Callable[[BaseTIA], BaseTIA]) -> TARTree:
        """Replace every TIA with ``wrapper(tia)``; returns the tree.

        ``wrapper`` is applied exactly once per distinct TIA object and
        the identity shared between a leaf entry and the POI registry is
        preserved.  The TIA factory is wrapped too, so entries created
        later (splits, inserts) are equally covered.  This is the hook
        the fault injector uses
        (:func:`repro.reliability.faults.inject_tree_faults`); wrappers
        must implement the :class:`~repro.temporal.tia.BaseTIA`
        interface.

        Wrapping permanently disables the packed frame cache: the
        packed hot path answers from flattened TIA snapshots and would
        bypass the wrappers entirely, hiding injected faults (and any
        accounting the wrapper performs) from every subsequent query.
        """
        self.frames.disable()
        seen: dict[int, BaseTIA] = {}

        def once(tia: BaseTIA) -> BaseTIA:
            replacement = seen.get(id(tia))
            if replacement is None:
                replacement = wrapper(tia)
                seen[id(tia)] = replacement
            return replacement

        stack = [self.root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                entry.tia = once(entry.tia)
                if entry.child is not None:
                    stack.append(entry.child)
        self._poi_tias = {
            poi_id: once(tia) for poi_id, tia in self._poi_tias.items()
        }
        inner_factory = self._tia_factory
        self._tia_factory = lambda: wrapper(inner_factory())
        return self

    def __repr__(self) -> str:
        return "TARTree(strategy=%s, pois=%d, height=%d, capacity=%d)" % (
            self.strategy.name,
            self._size,
            self.height,
            self.capacity,
        )
