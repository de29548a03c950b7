"""Query and result value types, and score normalisation.

The kNNTA ranking function (Equation 1) is

    f(p) = alpha0 * d(p, q) + alpha1 * (1 - g(p, Iq))

with ``d`` and ``g`` normalised into [0, 1] by the ranges of their
domains.  :class:`Normalizer` captures the two constants for one query:
the maximum spatial distance (the world diagonal) and the maximum
temporal aggregate over ``Iq``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Protocol, Sequence, Tuple, runtime_checkable

from repro.temporal.epochs import TimeInterval
from repro.temporal.tia import IntervalSemantics


class KNNTAQuery(NamedTuple):
    """One kNNTA query: point, time interval, ``k`` and the weight split.

    ``alpha0`` weights the spatial distance; the aggregate weight is
    ``alpha1 = 1 - alpha0`` (the paper fixes ``alpha0 + alpha1 = 1``).
    """

    point: Tuple[float, float]
    interval: TimeInterval
    k: int = 10
    alpha0: float = 0.3
    semantics: IntervalSemantics = IntervalSemantics.INTERSECTS

    @property
    def alpha1(self) -> float:
        return 1.0 - self.alpha0

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed parameters."""
        if self.k < 1:
            raise ValueError("k must be >= 1, got %d" % self.k)
        if not 0.0 < self.alpha0 < 1.0:
            raise ValueError(
                "alpha0 must be strictly between 0 and 1, got %r" % (self.alpha0,)
            )


class QueryResult(NamedTuple):
    """One ranked POI: identifier, ranking score and its two components.

    ``distance`` and ``aggregate`` are the *normalised* criteria, i.e.
    ``score = alpha0 * distance + alpha1 * (1 - aggregate)``.
    """

    poi_id: object
    score: float
    distance: float
    aggregate: float

    @property
    def score_pair(self) -> tuple[float, float]:
        """``(s_0, s_1)`` as used by the MWA algorithms (Section 7.1)."""
        return (self.distance, 1.0 - self.aggregate)


@runtime_checkable
class Answer(Protocol):
    """The one shape every query answer presents, however it was made.

    ``tree.query`` / :func:`~repro.core.knnta.knnta_search` return a
    :class:`RankedAnswer`, ``tree.robust_query`` a
    :class:`~repro.reliability.recovery.RobustAnswer`, and a degraded
    cluster a :class:`~repro.cluster.resilience.DegradedAnswer` — all
    of them iterate/index like the ranked row list *and* expose these
    four attributes, so the service, wire and CLI layers never switch
    on the concrete type:

    * ``rows`` — the ranked :class:`QueryResult` sequence.
    * ``exact`` — ``True`` when every shard's data is reflected in (or
      provably irrelevant to) the answer; ``False`` marks an explicit,
      bounded degradation.
    * ``coverage`` — the fraction of shards covered (1.0 when exact).
    * ``score_bound`` — for a non-exact answer, the proven minimum
      score of anything the missed shards might contribute; ``None``
      when exact.
    """

    @property
    def rows(self) -> Sequence[QueryResult]: ...

    @property
    def exact(self) -> bool: ...

    @property
    def coverage(self) -> float: ...

    @property
    def score_bound(self) -> float | None: ...


class RankedAnswer(List[QueryResult]):
    """A plain ranked result list, dressed in the :class:`Answer` shape.

    It *is* the list (``list`` subclass), so every existing caller that
    destructures, slices, or compares the rows keeps working unchanged;
    the protocol attributes simply state what a full, undegraded answer
    always was: exact, full coverage, nothing withheld.
    """

    __slots__ = ()

    exact = True
    coverage = 1.0
    score_bound: float | None = None
    missed_shards: Tuple[int, ...] = ()

    @property
    def rows(self) -> List[QueryResult]:
        return self


class Normalizer(NamedTuple):
    """Per-query normalisation constants.

    ``d_max`` is the maximum spatial distance (the paper divides by the
    range of the distance domain; we use the world diagonal).  ``g_max``
    is the maximum temporal aggregate over the query interval — obtained
    from the per-epoch global maxima the TAR-tree maintains at its root,
    or exactly via a scan (``TARTree.normalizer(..., exact=True)``).
    Either constant falls back to 1 to avoid division by zero.
    """

    d_max: float
    g_max: float

    @classmethod
    def create(cls, d_max: float, g_max: float) -> Normalizer:
        return cls(d_max if d_max > 0 else 1.0, g_max if g_max > 0 else 1.0)

    def score(self, alpha0: float, distance: float, aggregate: float) -> float:
        """Ranking score from *raw* (un-normalised) criteria."""
        return alpha0 * (distance / self.d_max) + (1.0 - alpha0) * (
            1.0 - aggregate / self.g_max
        )

    def components(self, distance: float, aggregate: float) -> tuple[float, float]:
        """Normalised ``(d, g)`` pair from raw criteria."""
        return distance / self.d_max, aggregate / self.g_max
