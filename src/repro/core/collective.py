"""Collective processing of kNNTA query batches (Section 7.2).

A batch of ``c`` queries runs ``c`` best-first searches with ``c``
priority queues, but node accesses are shared: at each step the node
demanded by the *most* queue fronts is fetched once and expanded into
every queue that wanted it.  Queries with the same time interval are
additionally grouped so the aggregate computation on each TIA in the
fetched node happens once per interval rather than once per query —
effective in practice because applications offer only a few interval
presets ("one day", "one week", ...).  On a tree with packed frames
(:mod:`repro.core.frames`) that computation is one window fold over the
node's epoch table per interval, the same fold the single-query search
reads.

The paper counts node accesses as disk pages.  Here nodes live in
memory, and on the serving benchmark's workloads the per-rider loop of
:meth:`~repro.core.tar_tree.TARTree.query_batch` costs less CPU per
query, so the service and the cluster serve batches with that loop;
this module is the Section 7.2 algorithm the benchmarks and tests
compare against (docs/SERVICE.md, "Micro-batching semantics").
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from math import sqrt
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.core.query import QueryResult, RankedAnswer

if TYPE_CHECKING:
    from repro.core.query import KNNTAQuery, Normalizer
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Entry, Node
    from repro.storage.stats import AccessStats
    from repro.temporal.epochs import TimeInterval
    from repro.temporal.tia import IntervalSemantics


class _QueryState:
    """Per-query search state inside a collective batch."""

    __slots__ = ("query", "normalizer", "heap", "results", "_tie")

    def __init__(
        self, query: KNNTAQuery, normalizer: Normalizer, tie: Iterator[int]
    ) -> None:
        self.query = query
        self.normalizer = normalizer
        self.heap: list[tuple[float, int, Entry, float, float]] = []
        self.results: list[QueryResult] = []
        self._tie = tie

    @property
    def done(self) -> bool:
        return len(self.results) >= self.query.k or not self.heap

    def push(self, entry: Entry, raw_distance: float, raw_aggregate: float) -> None:
        distance, aggregate = self.normalizer.components(raw_distance, raw_aggregate)
        score = self.query.alpha0 * distance + self.query.alpha1 * (1.0 - aggregate)
        heapq.heappush(
            self.heap, (score, next(self._tie), entry, distance, aggregate)
        )

    def drain_leaves(self) -> None:
        """Eject result POIs while the queue front is a leaf entry."""
        while self.heap and len(self.results) < self.query.k:
            score, _, entry, distance, aggregate = self.heap[0]
            if not entry.is_leaf_entry:
                break
            heapq.heappop(self.heap)
            self.results.append(QueryResult(entry.item, score, distance, aggregate))

    def front_node(self) -> Node | None:
        """The child node the queue front demands, or ``None``."""
        if not self.heap or len(self.results) >= self.query.k:
            return None
        entry = self.heap[0][2]
        return None if entry.is_leaf_entry else entry.child


class CollectiveProcessor:
    """Processes batches of kNNTA queries with shared index traversal.

    Re-entrant: one processor (or several over the same tree) may run
    batches from multiple threads concurrently — all per-batch state
    (queues, tie-breakers) is local to each :meth:`run` call.  Callers
    running batches concurrently should pass a private ``stats`` object
    per batch so node accesses are attributed exactly.
    """

    def __init__(self, tree: TARTree) -> None:
        self.tree = tree

    def run(
        self, queries: Sequence[KNNTAQuery], stats: AccessStats | None = None
    ) -> list[RankedAnswer]:
        """Answer every query in ``queries``; returns per-query answers.

        Node accesses count each physically fetched node once, however
        many queries consumed it — the batch's whole point.  They are
        recorded into ``tree.stats`` by default; passing ``stats`` (an
        :class:`~repro.storage.stats.AccessStats`) records the batch's
        node accesses there *instead*, giving concurrent batches exact
        per-batch attribution.  (TIA page accesses always go to the
        backend's shared stats.)
        """
        tree = self.tree
        record_node: Callable[[Node], None]
        if stats is None:
            record_node = tree.record_node_access
        else:
            batch_stats = stats
            record_node = lambda node: batch_stats.record_node(node.is_leaf)  # noqa: E731
        tie = itertools.count()
        normalizers: dict[tuple[TimeInterval, IntervalSemantics], Normalizer] = {}
        states: list[_QueryState] = []
        for query in queries:
            query.validate()
            key = (query.interval, query.semantics)
            if key not in normalizers:
                normalizers[key] = tree.normalizer(query.interval, query.semantics)
            states.append(_QueryState(query, normalizers[key], tie))
        if not tree.root.entries:
            return [RankedAnswer(state.results) for state in states]

        record_node(tree.root)
        self._expand(tree.root, states)

        # Demand map: node -> states whose queue front points at it.  A
        # state's front only changes when its demanded node is fetched,
        # so registration stays valid between fetches and each fetch
        # costs O(consumers), not O(batch).
        demand: defaultdict[Node, list[_QueryState]] = defaultdict(list)

        def register(state: _QueryState) -> None:
            state.drain_leaves()
            node = state.front_node()
            if node is not None:
                demand[node].append(state)

        for state in states:
            register(state)
        while demand:
            # Greedy: fetch the node wanted by the most queues first.
            node = max(demand, key=lambda n: len(demand[n]))
            consumers = demand.pop(node)
            for state in consumers:
                heapq.heappop(state.heap)
            record_node(node)
            self._expand(node, consumers)
            for state in consumers:
                register(state)
        return [RankedAnswer(state.results) for state in states]

    def _expand(self, node: Node, states: Sequence[_QueryState]) -> None:
        """Push ``node``'s entries into every state, sharing aggregates.

        States are grouped by (interval, semantics); each group computes
        the per-entry aggregate once.  When the tree carries an enabled
        :class:`~repro.core.frames.FrameStore` the MINDISTs are read
        from the node's packed frame and each group's aggregates are
        folded from its epoch table in one
        :meth:`~repro.core.frames.NodeFrame.aggregates` call (no TIA
        page I/O, no ``Rect`` chasing); results are bit-identical
        because the raw values feed the same :meth:`_QueryState.push`.
        """
        tree = self.tree
        groups: defaultdict[
            tuple[TimeInterval, IntervalSemantics], list[_QueryState]
        ] = defaultdict(list)
        for state in states:
            groups[(state.query.interval, state.query.semantics)].append(state)

        frames = getattr(tree, "frames", None)
        frame = frames.frame(node) if frames is not None and frames.enabled else None
        if frame is not None:
            coords = frame.coords
            clock = tree.clock
            for (interval, semantics), members in groups.items():
                span = clock.epoch_range(interval, semantics)
                for entry, lo_x, hi_x, lo_y, hi_y, raw_aggregate in zip(
                    node.entries,
                    coords[0::4],
                    coords[1::4],
                    coords[2::4],
                    coords[3::4],
                    frame.aggregates(span.start, span.stop),
                ):
                    for state in members:
                        qx, qy = state.query.point
                        if qx < lo_x:
                            dx = lo_x - qx
                        else:
                            dx = qx - hi_x if qx > hi_x else 0.0
                        if qy < lo_y:
                            dy = lo_y - qy
                        else:
                            dy = qy - hi_y if qy > hi_y else 0.0
                        state.push(entry, sqrt(dx * dx + dy * dy), raw_aggregate)
            return

        for (interval, semantics), members in groups.items():
            for entry in node.entries:
                raw_aggregate = tree.tia_aggregate(entry.tia, interval, semantics)
                for state in members:
                    raw_distance = entry.mbr.min_dist(state.query.point)
                    state.push(entry, raw_distance, raw_aggregate)

