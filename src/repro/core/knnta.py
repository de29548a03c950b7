"""Best-first kNNTA search over the TAR-tree (Section 4.3).

The entries of the root are seeded into a priority queue keyed by their
ranking-score lower bound; the front entry is repeatedly ejected — leaf
entries emit their POI as the next result, internal entries expand their
child node (one node access) and enqueue its entries.  The ranking
function is *consistent* (an entry's score never exceeds a child's,
Property 1), so the first ``k`` POIs ejected are exactly the top-``k``,
and by Berchtold et al. the search only ever accesses nodes intersecting
the final search region — the optimality the cost model of Section 6
estimates.

Scoring runs on one of two paths per expanded node.  The **packed
path** reads the node's :class:`~repro.core.frames.NodeFrame` — flat
``array`` buffers of MBR coordinates and CSR-packed per-epoch
aggregates — so MINDIST and the Property-1 bound are computed from
contiguous machine values without touching ``Rect`` or TIA objects (and
without TIA page I/O).  The **object path** is the original
entry-by-entry walk; it serves trees without a frame store, stores
disabled by :meth:`~repro.core.tar_tree.TARTree.wrap_tias`, and any
frame invalidated mid-flight.  Both paths execute the same float
operations in the same order, so answers — ids, scores, tie order —
are bit-identical whichever path scored each node.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from math import sqrt
from typing import TYPE_CHECKING, Callable, Iterator, cast

from repro.core.query import QueryResult, RankedAnswer
from repro.temporal.tia import AggregateKind

if TYPE_CHECKING:
    from repro.core.query import KNNTAQuery, Normalizer
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Entry, Node
    from repro.storage.stats import AccessStats


def knnta_search(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> RankedAnswer:
    """Answer ``query`` on ``tree``; returns the ranked rows.

    The return value is a :class:`~repro.core.query.RankedAnswer` — a
    ``list`` of :class:`~repro.core.query.QueryResult` rows that also
    satisfies the :class:`~repro.core.query.Answer` protocol.
    ``normalizer`` defaults to the tree's root-bound normaliser for the
    query interval (see ``TARTree.normalizer``).  Node accesses and TIA
    page accesses are recorded into ``tree.stats``
    (:meth:`~repro.core.tar_tree.TARTree.query` takes a per-call
    ``stats`` for the node accesses).  This is the bounded form of
    :func:`knnta_browse` — it consumes exactly the first ``query.k``
    results of the same best-first traversal, so the two functions are
    access-for-access identical up to ``k``.  (For fault-tolerant
    execution see :func:`repro.reliability.recovery.robust_knnta`.)
    """
    return search(tree, query, normalizer, tree.stats)


def search(
    tree: TARTree,
    query: KNNTAQuery,
    normalizer: Normalizer | None,
    stats: AccessStats,
) -> RankedAnswer:
    """:func:`knnta_search` with its node accesses recorded into ``stats``
    (the body of :meth:`~repro.core.tar_tree.TARTree.query`)."""
    query.validate()
    return RankedAnswer(
        itertools.islice(_best_first(tree, query, normalizer, stats), query.k)
    )


def knnta_browse(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> Iterator[QueryResult]:
    """Yield results one at a time in ranking order (distance browsing).

    The incremental form of :func:`knnta_search` (Hjaltason & Samet's
    *distance browsing*): the caller can consume as many results as it
    needs — "give me more" after inspecting the first few — without
    deciding ``k`` up front.  ``query.k`` is ignored; node accesses are
    charged lazily, only as far as the consumer iterates.
    """
    query.validate()
    yield from _best_first(tree, query, normalizer, tree.stats)


def _best_first(
    tree: TARTree,
    query: KNNTAQuery,
    normalizer: Normalizer | None,
    stats: AccessStats,
) -> Iterator[QueryResult]:
    """The best-first traversal; each expanded node is counted in ``stats``."""
    if normalizer is None:
        normalizer = tree.normalizer(query.interval, query.semantics)
    root = tree.root
    if not root.entries:
        return
    tie = itertools.count()
    heap: list[tuple[float, int, Entry, float, float]] = []
    heappush = heapq.heappush

    def push(entry: Entry) -> None:
        raw_distance = entry.mbr.min_dist(query.point)
        raw_aggregate = tree.tia_aggregate(
            entry.tia, query.interval, query.semantics
        )
        distance, aggregate = normalizer.components(raw_distance, raw_aggregate)
        score = query.alpha0 * distance + query.alpha1 * (1.0 - aggregate)
        heappush(heap, (score, next(tie), entry, distance, aggregate))

    frames = getattr(tree, "frames", None)
    expand: Callable[[Node], None]
    if frames is not None and frames.enabled:
        # Hoist every per-query constant out of the inner loop: the
        # query point, the normalisation constants, the weight split
        # and — crucially — the epoch window, which the object path
        # re-derives from the clock on every single entry.
        qx, qy = query.point
        d_max = normalizer.d_max
        g_max = normalizer.g_max
        alpha0 = query.alpha0
        alpha1 = 1.0 - alpha0
        span = tree.clock.epoch_range(query.interval, query.semantics)
        e_start, e_stop = span.start, span.stop
        is_max = tree.aggregate_kind is AggregateKind.MAX

        def expand(node: Node) -> None:
            frame = frames.frame(node)
            if frame is None:  # store disabled mid-flight: object path
                for entry in node.entries:
                    push(entry)
                return
            coords = frame.coords
            epochs = frame.epochs
            values = frame.values
            offsets = frame.offsets
            for i, entry in enumerate(node.entries):
                base = 4 * i
                # MINDIST, operation for operation as Rect.min_dist.
                lo = coords[base]
                if qx < lo:
                    dx = lo - qx
                else:
                    hi = coords[base + 1]
                    dx = qx - hi if qx > hi else 0.0
                lo = coords[base + 2]
                if qy < lo:
                    dy = lo - qy
                else:
                    hi = coords[base + 3]
                    dy = qy - hi if qy > hi else 0.0
                # Property-1 aggregate bound over the epoch window: a
                # bisect into the entry's CSR slice plus an integer
                # fold — exactly BaseTIA.aggregate's value.
                stop = offsets[i + 1]
                first = bisect_left(epochs, e_start, offsets[i], stop)
                last = bisect_left(epochs, e_stop, first, stop)
                if is_max:
                    raw_aggregate = max(values[first:last]) if last > first else 0
                else:
                    raw_aggregate = sum(values[first:last])
                distance = sqrt(dx * dx + dy * dy) / d_max
                aggregate = raw_aggregate / g_max
                score = alpha0 * distance + alpha1 * (1.0 - aggregate)
                heappush(heap, (score, next(tie), entry, distance, aggregate))

    else:

        def expand(node: Node) -> None:
            for entry in node.entries:
                push(entry)

    record_node = stats.record_node
    record_node(root.is_leaf)
    expand(root)
    while heap:
        score, _, entry, distance, aggregate = heapq.heappop(heap)
        if entry.is_leaf_entry:
            yield QueryResult(entry.item, score, distance, aggregate)
            continue
        child = cast("Node", entry.child)
        record_node(child.is_leaf)
        expand(child)


def knnta_search_exhaustive(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> RankedAnswer:
    """Rank *every* POI by BFS order.

    Equivalent to :func:`knnta_search` with ``k = len(tree)`` but keeps
    the caller's ``k`` untouched; returns the full ranked list.
    """
    if normalizer is None:
        normalizer = tree.normalizer(query.interval, query.semantics)
    full = query._replace(k=max(1, len(tree)))
    return knnta_search(tree, full, normalizer=normalizer)
