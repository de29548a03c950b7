"""Spatial substrate: geometry primitives and the R*-tree grouping.

The TAR-tree (:mod:`repro.core.tar_tree`) reuses the R*-tree machinery
here — choose-subtree, forced reinsertion and the margin-driven split —
for both its 2-D (``IND-spa``) and 3-D (integral-3D) grouping strategies,
and builds on its R-tree :class:`~repro.spatial.rstar.Entry` and
:class:`~repro.spatial.rstar.Node`.
"""

from repro.spatial.geometry import Rect, point_distance

__all__ = ["Rect", "point_distance"]
