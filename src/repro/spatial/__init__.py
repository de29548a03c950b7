"""Spatial substrate: geometry primitives and a from-scratch R*-tree.

The TAR-tree (:mod:`repro.core.tar_tree`) reuses the R*-tree machinery
here — choose-subtree, forced reinsertion and the margin-driven split —
for both its 2-D (``IND-spa``) and 3-D (integral-3D) grouping strategies.
:class:`repro.spatial.rstar.RStarTree` is also usable standalone as a
classic in-memory spatial index.
"""

from repro.spatial.geometry import Rect, point_distance
from repro.spatial.rstar import RStarTree

__all__ = ["Rect", "RStarTree", "point_distance"]
