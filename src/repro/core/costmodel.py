"""The query-processing cost analysis of Section 6.

The model lives in the normalised 3-D unit cube (two spatial dimensions
plus the aggregate dimension).  POIs sit on countably many *layers*: a
POI with integer aggregate value ``x`` lies at height
``h_x = 1 - x / x_max``.  Layer populations follow the fitted discrete
power law ``p(x) = x^-beta / zeta(beta, x_min)`` (Hurwitz zeta), so the
expected POIs on layer ``x`` is ``N(x) = N * p(x)``.

The search region of a kNNTA query is a cone with base radius
``r_0 = f(p_k)/alpha_0`` at height 0 and apex at ``h_l = f(p_k)/alpha_1``.
``f(p_k)`` is estimated by solving

    k = sum_x N(x) * E[S_{D(q, r_x) and U_x}]

where the expected boundary-corrected disc area is the approximation of
Tao et al.:  ``(sqrt(pi) r - pi r^2 / 4)^2`` while ``sqrt(pi) r < 2``,
else 1.

Node accesses are estimated band by band: descending from the top layer,
a band closes when the accumulated population makes the Boehm node
extent ``S_y = (1 - 1/fanout) * min(fanout / sum N(i), 1)^(1/2)`` equal
the band height ``Delta h`` (cubic nodes).  A node in the band
intersects the search region with probability ``P_y`` given by the
Minkowski sum of the node extent and the cross-section at the band's
bottom layer, with the same boundary correction.  The band then
contributes ``(sum N(i) / fanout) * P_y`` leaf node accesses.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable

# numpy and scipy are imported where they are used, not at module level,
# so that ``import repro`` (and every shard worker) stays without them.
if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

DEFAULT_FANOUT_RATIO = 0.69
"""Average node fill: 69% of capacity (Theodoridis & Sellis)."""


def boundary_corrected_disc_area(
    radius: float | Iterable[float] | npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Expected area of ``D(q, r)`` clipped to the unit square.

    Tao et al.'s approximation for a uniformly placed query point:
    ``(sqrt(pi) r - pi r^2 / 4)^2`` while ``sqrt(pi) r < 2``, else 1.
    """
    import numpy as np

    r = np.asarray(radius, dtype=np.float64)
    sqrt_pi_r = math.sqrt(math.pi) * r
    area = np.where(
        sqrt_pi_r < 2.0,
        np.square(sqrt_pi_r - math.pi * np.square(r) / 4.0),
        1.0,
    )
    return np.asarray(np.clip(area, 0.0, 1.0), dtype=np.float64)


class CostModel:
    """Estimates ``f(p_k)`` and leaf node accesses for kNNTA queries.

    Parameters
    ----------
    n_pois:
        Number of POIs in the power-law tail (aggregate >= ``xmin``);
        the unit-cube layers the model populates.
    beta:
        Power-law exponent of the aggregate distribution (Table 2).
    xmin:
        Lower bound of power-law behaviour; the model's ``Omega``.
    max_aggregate:
        The largest aggregate value — defines the height normalisation
        ``h_x = 1 - x / max_aggregate``.
    capacity:
        Leaf-node entry capacity of the index under analysis.
    fanout_ratio:
        Average fill fraction (default 0.69).
    """

    def __init__(
        self,
        n_pois: float,
        beta: float,
        xmin: int,
        max_aggregate: int,
        capacity: int,
        fanout_ratio: float = DEFAULT_FANOUT_RATIO,
    ) -> None:
        if n_pois <= 0:
            raise ValueError("n_pois must be positive")
        if beta <= 1.0:
            raise ValueError("beta must exceed 1 for a normalisable power law")
        if not 1 <= xmin <= max_aggregate:
            raise ValueError(
                "need 1 <= xmin <= max_aggregate, got xmin=%r max=%r"
                % (xmin, max_aggregate)
            )
        self.n_pois = float(n_pois)
        self.beta = float(beta)
        self.xmin = int(xmin)
        self.max_aggregate = int(max_aggregate)
        self.capacity = capacity
        self.fanout = max(2.0, fanout_ratio * capacity)

        import numpy as np
        from scipy.special import zeta as hurwitz_zeta

        self._layers = np.arange(self.xmin, self.max_aggregate + 1, dtype=np.float64)
        normaliser = float(hurwitz_zeta(self.beta, self.xmin))
        self._probabilities = self._layers ** (-self.beta) / normaliser
        self._counts = self.n_pois * self._probabilities
        self._heights = 1.0 - self._layers / float(self.max_aggregate)

    @classmethod
    def from_aggregates(
        cls,
        aggregates: Iterable[float],
        capacity: int,
        beta: float | None = None,
        xmin: int | None = None,
        **kwargs: Any,
    ) -> CostModel:
        """Build a model from observed per-POI aggregate values.

        ``beta``/``xmin`` default to a Clauset–Shalizi–Newman fit
        (:mod:`repro.analysis.powerlaw`) of the positive aggregates.
        """
        values = [int(v) for v in aggregates if v > 0]
        if not values:
            raise ValueError("no positive aggregates to model")
        if beta is None or xmin is None:
            from repro.analysis.powerlaw import fit_discrete_powerlaw

            fit = fit_discrete_powerlaw(values, xmin=xmin)
            beta = fit.beta if beta is None else beta
            xmin = fit.xmin if xmin is None else xmin
        max_aggregate = max(values)
        xmin = min(int(xmin), max_aggregate)
        n_tail = sum(1 for v in values if v >= xmin)
        return cls(n_tail, beta, xmin, max_aggregate, capacity, **kwargs)

    # ------------------------------------------------------------------
    # Search region (Section 6.2)
    # ------------------------------------------------------------------

    def cross_section_radii(
        self, fpk: float, alpha0: float
    ) -> npt.NDArray[np.float64]:
        """Radius of the cone's cross-section at every modelled layer."""
        import numpy as np

        alpha1 = 1.0 - alpha0
        r0 = fpk / alpha0
        hl = fpk / alpha1
        if hl <= 0.0:
            return np.zeros_like(self._heights)
        radii = r0 * (hl - self._heights) / hl
        return np.asarray(np.clip(radii, 0.0, None), dtype=np.float64)

    def expected_pois_in_region(self, fpk: float, alpha0: float) -> float:
        """Expected POIs inside the search region defined by ``fpk``."""
        import numpy as np

        radii = self.cross_section_radii(fpk, alpha0)
        return float(np.sum(self._counts * boundary_corrected_disc_area(radii)))

    def estimate_fpk(self, k: int, alpha0: float, tolerance: float = 1e-9) -> float:
        """Estimate the ranking score of the k-th POI (Section 6.2).

        Solves ``expected_pois_in_region(f) = k`` for ``f`` by bisection;
        the left side is monotone in ``f``.  Returns the score in the
        normalised space (directly comparable with measured ``f(p_k)``).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        low, high = 0.0, 1.0
        if self.expected_pois_in_region(high, alpha0) < k:
            # Region saturated the modelled tail; the k-th POI lies past it.
            return high
        for _ in range(200):
            mid = (low + high) / 2.0
            if high - low < tolerance:
                break
            if self.expected_pois_in_region(mid, alpha0) < k:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    # ------------------------------------------------------------------
    # Node accesses (Section 6.3)
    # ------------------------------------------------------------------

    def bands(self) -> list[tuple[int, int, float, float]]:
        """Partition the layers into bands of cubic nodes.

        Yields ``(start_index, end_index, population, extent)`` where the
        indices address ``self._layers`` inclusively, ``population`` is
        the expected POIs in the band and ``extent`` the node side
        length ``S_y``.  A band closes when ``S_y <= Delta h`` (node
        height matches its spatial extent) or the layers run out.
        """
        counts = self._counts
        total_layers = len(counts)
        inverse_max = 1.0 / float(self.max_aggregate)
        fill = 1.0 - 1.0 / self.fanout
        start = 0
        result: list[tuple[int, int, float, float]] = []
        while start < total_layers:
            population = 0.0
            end = start
            while True:
                population += float(counts[end])
                extent = fill * math.sqrt(min(self.fanout / population, 1.0))
                delta_h = (end - start) * inverse_max
                if extent <= delta_h or end == total_layers - 1:
                    break
                end += 1
            result.append((start, end, population, extent))
            start = end + 1
        return result

    def estimate_node_accesses(
        self,
        k: int | None = None,
        alpha0: float = 0.3,
        fpk: float | None = None,
    ) -> float:
        """Expected leaf node accesses ``NA(alpha, k)`` (Section 6.3).

        Either ``k`` (then ``f(p_k)`` is estimated first) or an explicit
        ``fpk`` must be given.
        """
        if fpk is None:
            if k is None:
                raise ValueError("pass k or fpk")
            fpk = self.estimate_fpk(k, alpha0)
        radii = self.cross_section_radii(fpk, alpha0)
        total = 0.0
        for start, end, population, extent in self.bands():
            ry = float(radii[end])
            if ry <= 0.0:
                # Band lies entirely above the cone's apex: never touched.
                continue
            p_y = self._intersection_probability(extent, ry)
            total += (population / self.fanout) * p_y
        return total

    @staticmethod
    def _intersection_probability(extent: float, radius: float) -> float:
        """``P_y``: a node of side ``extent`` meets the cross-section disc.

        The Minkowski sum of the square node and the disc, with the
        boundary correction of Tao et al.
        """
        ly_squared = (
            extent * extent
            + 4.0 * extent * radius
            + math.pi * radius * radius
        )
        ly = math.sqrt(ly_squared)
        if ly + extent >= 2.0 or extent >= 1.0:
            return 1.0
        p_y = (4.0 * ly - (ly + extent) ** 2) / (4.0 * (1.0 - extent))
        return min(1.0, max(0.0, p_y)) ** 2

    def __repr__(self) -> str:
        return (
            "CostModel(n=%g, beta=%.3f, xmin=%d, max_agg=%d, capacity=%d)"
            % (self.n_pois, self.beta, self.xmin, self.max_aggregate, self.capacity)
        )
