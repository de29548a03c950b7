"""Minimum weight adjustment (MWA), Section 7.1.

Users exploring results may adjust ``alpha0``; the MWA is the smallest
change to ``alpha0`` that alters the top-k *set*.  For a top-k POI ``p_i``
and a lower-ranked ``p_j`` with score pairs ``s_i = (s_i0, s_i1)`` and
``s_j``, the boundary weight at which their order flips is

    gamma_ij = delta_1 / (delta_1 - delta_0),   delta_t = s_it - s_jt,

defined only when ``delta_0 * delta_1 < 0`` (otherwise ``p_i`` dominates
``p_j`` and no weight can flip them).  The MWA is the pair

    Gamma_l = max{gamma_ij : delta_0 < 0},
    Gamma_u = min{gamma_ij : delta_0 > 0},

the boundaries nearest the current weight from below and above.  Two
algorithms compute it on the TAR-tree:

* :func:`mwa_enumerating` — the paper's straightforward approach: for
  each top-k POI, re-traverse the index pruning only subtrees the POI
  dominates.
* :func:`mwa_pruning` — the paper's proposed approach: the extremal
  ``gamma`` is always realised between the *skyline* of the lower-ranked
  POIs and the *reverse skyline* of the top-k (monotonicity of ``gamma``
  in ``s_j0``/``s_j1``), so one BBS skyline pass suffices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Optional, Sequence, cast

from repro.core.knnta import knnta_search
from repro.skyline.bbs import bbs_skyline
from repro.skyline.bnl import dominates, skyline_of_points

if TYPE_CHECKING:
    from repro.core.query import KNNTAQuery, Normalizer, QueryResult
    from repro.core.tar_tree import TARTree
    from repro.spatial.rstar import Entry, Node


def weight_boundary(s_i: Sequence[float], s_j: Sequence[float]) -> float | None:
    """The boundary ``gamma_ij``, or ``None`` when ``p_i`` dominates ``p_j``.

    ``s_i`` must be the score pair of the higher-ranked POI under the
    current weights (``f(p_i) < f(p_j)``).
    """
    delta_0 = s_i[0] - s_j[0]
    delta_1 = s_i[1] - s_j[1]
    if delta_0 * delta_1 >= 0:
        return None
    return delta_1 / (delta_1 - delta_0)


class MWAResult(NamedTuple):
    """The minimum weight adjustment around the current ``alpha0``.

    ``gamma_lower``/``gamma_upper`` are the nearest boundary weights
    below/above ``alpha0`` (``None`` when no adjustment in that direction
    can change the result set).  Crossing either boundary swaps exactly
    one top-k POI with one lower-ranked POI.
    """

    alpha0: float
    gamma_lower: Optional[float]
    gamma_upper: Optional[float]

    @property
    def minimum_adjustment(self) -> float | None:
        """Smallest ``|alpha0' - alpha0|`` that changes the result set."""
        candidates: list[float] = []
        if self.gamma_lower is not None:
            candidates.append(self.alpha0 - self.gamma_lower)
        if self.gamma_upper is not None:
            candidates.append(self.gamma_upper - self.alpha0)
        return min(candidates) if candidates else None


def mwa_from_pairs(
    topk_pairs: Sequence[Sequence[float]],
    lower_pairs: Sequence[Sequence[float]],
    alpha0: float,
) -> MWAResult:
    """Exact MWA from explicit score-pair lists (the definition above).

    Quadratic in the list sizes; serves as ground truth for the index
    algorithms and powers the worked example of Table 3.
    """
    gamma_lower: float | None = None
    gamma_upper: float | None = None
    for s_i in topk_pairs:
        for s_j in lower_pairs:
            gamma = weight_boundary(s_i, s_j)
            if gamma is None:
                continue
            if s_i[0] - s_j[0] < 0:
                if gamma_lower is None or gamma > gamma_lower:
                    gamma_lower = gamma
            else:
                if gamma_upper is None or gamma < gamma_upper:
                    gamma_upper = gamma
    return MWAResult(alpha0, gamma_lower, gamma_upper)


def _topk_and_normalizer(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None
) -> tuple[list[QueryResult], Normalizer]:
    if normalizer is None:
        normalizer = tree.normalizer(query.interval, query.semantics)
    topk = knnta_search(tree, query, normalizer=normalizer)
    return topk, normalizer


def mwa_enumerating(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> MWAResult:
    """The straightforward MWA computation (the paper's baseline).

    For each of the top-k POIs, the BFS is continued over the whole tree;
    subtrees whose score-pair lower bound is dominated by the POI are
    pruned (they can never be flipped with it), every other leaf
    contributes a candidate ``gamma``.  Cost grows with ``k`` because the
    tree is traversed once per top-k POI (Figure 13).
    """
    topk, normalizer = _topk_and_normalizer(tree, query, normalizer)
    topk_ids = {r.poi_id for r in topk}
    gamma_lower: float | None = None
    gamma_upper: float | None = None
    for result in topk:
        s_i = result.score_pair
        for s_j in _scan_non_dominated(tree, query, normalizer, s_i, topk_ids):
            gamma = weight_boundary(s_i, s_j)
            if gamma is None:
                continue
            if s_i[0] - s_j[0] < 0:
                if gamma_lower is None or gamma > gamma_lower:
                    gamma_lower = gamma
            else:
                if gamma_upper is None or gamma < gamma_upper:
                    gamma_upper = gamma
    return MWAResult(query.alpha0, gamma_lower, gamma_upper)


def _scan_non_dominated(
    tree: TARTree,
    query: KNNTAQuery,
    normalizer: Normalizer,
    pivot_pair: tuple[float, float],
    topk_ids: set[Any],
) -> Iterator[tuple[float, float]]:
    """Yield score pairs of POIs not dominated by ``pivot_pair``."""
    root = tree.root
    if not root.entries:
        return

    def corner(entry: Entry) -> tuple[float, float]:
        distance, aggregate = normalizer.components(
            entry.mbr.min_dist(query.point),
            tree.tia_aggregate(entry.tia, query.interval, query.semantics),
        )
        return (distance, 1.0 - aggregate)

    tree.record_node_access(root)
    stack = [(corner(entry), entry) for entry in root.entries]
    while stack:
        pair, entry = stack.pop()
        if dominates(pivot_pair, pair):
            continue
        if entry.is_leaf_entry:
            if entry.item not in topk_ids:
                yield pair
            continue
        child = cast("Node", entry.child)
        tree.record_node_access(child)
        for child_entry in child.entries:
            stack.append((corner(child_entry), child_entry))


def mwa_pruning(
    tree: TARTree, query: KNNTAQuery, normalizer: Normalizer | None = None
) -> MWAResult:
    """The skyline-based MWA computation (the paper's proposed algorithm).

    (i) Compute the reverse skyline of the top-k (no node accesses),
    (ii) compute the skyline of the lower-ranked POIs with one BBS pass
    over the TAR-tree, (iii) combine boundary weights across the two
    skylines.
    """
    topk, normalizer = _topk_and_normalizer(tree, query, normalizer)
    topk_ids = {r.poi_id for r in topk}
    reverse_skyline = skyline_of_points(
        [r.score_pair for r in topk], reverse=True
    )
    lower_skyline = bbs_skyline(
        tree, query, normalizer=normalizer, exclude=frozenset(topk_ids)
    )
    return mwa_from_pairs(
        reverse_skyline, [pair for _, pair in lower_skyline], query.alpha0
    )


def minimum_weight_adjustment(
    tree: TARTree,
    query: KNNTAQuery,
    method: str = "pruning",
    normalizer: Normalizer | None = None,
) -> MWAResult:
    """Compute the MWA for ``query`` on ``tree``.

    ``method`` is ``"pruning"`` (Section 7.1's proposed algorithm) or
    ``"enumerating"`` (the straightforward baseline).
    """
    if method == "pruning":
        return mwa_pruning(tree, query, normalizer)
    if method == "enumerating":
        return mwa_enumerating(tree, query, normalizer)
    raise ValueError("method must be 'pruning' or 'enumerating', got %r" % (method,))


def weight_adjustment_sequence(
    tree: TARTree,
    query: KNNTAQuery,
    changes: int,
    direction: str = "up",
    method: str = "pruning",
    normalizer: Normalizer | None = None,
    epsilon: float = 1e-9,
) -> list[float]:
    """Boundary weights at which the top-k changes 1st, 2nd, ... m-th.

    The paper notes the MWA algorithm "is not difficult to extend ... to
    compute the weight adjustment that leads to multiple top-k POIs being
    changed"; this is that extension.  Walking ``alpha0`` in one
    ``direction`` ("up" toward the spatial criterion, "down" toward the
    aggregate), each crossed boundary swaps one result POI, so the m-th
    returned weight is the least adjustment that changes m POIs
    cumulatively.

    Returns the (possibly shorter, if the result set becomes immutable
    in that direction) list of boundary weights in crossing order.
    """
    if changes < 1:
        raise ValueError("changes must be >= 1, got %d" % changes)
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down', got %r" % (direction,))
    boundaries: list[float] = []
    current = query
    for _ in range(changes):
        result = minimum_weight_adjustment(tree, current, method, normalizer)
        boundary = result.gamma_upper if direction == "up" else result.gamma_lower
        if boundary is None:
            break
        boundaries.append(boundary)
        # Step just past the boundary so the next iteration sees the
        # swapped result set.
        next_alpha = boundary + epsilon if direction == "up" else boundary - epsilon
        if not 0.0 < next_alpha < 1.0:
            break
        current = current._replace(alpha0=next_alpha)
    return boundaries
