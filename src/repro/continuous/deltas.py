"""Top-k delta model for standing subscriptions.

A pushed update carries the *full* re-ranked answer (so a subscriber is
never more than one frame away from the whole state) plus the ordered
list of :class:`TopKDelta` records describing how the top-k changed
since the previous push: POIs that left, POIs that entered, and POIs
whose rank moved.  Deltas are ordered leaves-first (by old rank), then
enters/moves by new rank, so replaying them against the previous row
list reconstructs the new one.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from repro.core.query import Answer, QueryResult

if TYPE_CHECKING:
    from repro.continuous.windows import WindowState


class DeltaKind(enum.Enum):
    """How one POI's membership/position in the top-k changed."""

    ENTER = "enter"
    LEAVE = "leave"
    MOVE = "move"


class TopKDelta(NamedTuple):
    """One ordered change to the top-k.

    ``rank`` is the new 0-based rank (``None`` for a leave), ``old_rank``
    the previous one (``None`` for an enter).  ``row`` is the new ranked
    row (``None`` for a leave) — note a ``MOVE`` row's score may differ
    from the previous push even though only the rank is reported: the
    full answer on the update is always the fresh state.
    """

    kind: DeltaKind
    poi_id: object
    rank: Optional[int]
    old_rank: Optional[int]
    row: Optional[QueryResult]

    def describe(self) -> dict[str, object]:
        """JSON-ready form (used by the wire layer and the CLI)."""
        payload: dict[str, object] = {
            "kind": self.kind.value,
            "poi_id": self.poi_id,
        }
        if self.rank is not None:
            payload["rank"] = self.rank
        if self.old_rank is not None:
            payload["old_rank"] = self.old_rank
        if self.row is not None:
            payload["score"] = self.row.score
        return payload


class WindowUpdate(NamedTuple):
    """One pushed state of one subscription at one window position.

    ``answer`` is the complete re-ranked answer (a
    :class:`~repro.core.query.RankedAnswer`, or a degraded answer when
    a cluster shard is down — check ``answer.exact``); ``deltas`` the
    ordered changes against the previously *pushed* state.
    """

    subscription_id: int
    seq: int
    window: "WindowState"
    answer: Answer
    deltas: Tuple[TopKDelta, ...]

    @property
    def exact(self) -> bool:
        """``True`` when the pushed answer reflects every shard."""
        return bool(self.answer.exact)

    @property
    def degraded(self) -> bool:
        """``True`` for an explicit, bounded degradation (shard down)."""
        return not self.answer.exact


def diff_topk(
    old_rows: Sequence[QueryResult], new_rows: Sequence[QueryResult]
) -> Tuple[TopKDelta, ...]:
    """Ordered deltas turning ``old_rows`` into ``new_rows``.

    Leaves come first (ascending old rank), then enters and moves in
    ascending new rank.  A POI whose rank is unchanged produces no
    delta even if its score changed — the update's full answer carries
    the fresh scores.
    """
    old_rank = {row.poi_id: rank for rank, row in enumerate(old_rows)}
    new_rank = {row.poi_id: rank for rank, row in enumerate(new_rows)}
    deltas = [
        TopKDelta(DeltaKind.LEAVE, row.poi_id, None, rank, None)
        for rank, row in enumerate(old_rows)
        if row.poi_id not in new_rank
    ]
    for rank, row in enumerate(new_rows):
        previous = old_rank.get(row.poi_id)
        if previous is None:
            deltas.append(TopKDelta(DeltaKind.ENTER, row.poi_id, rank, None, row))
        elif previous != rank:
            deltas.append(TopKDelta(DeltaKind.MOVE, row.poi_id, rank, previous, row))
    return tuple(deltas)
