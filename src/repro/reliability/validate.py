"""Deep invariant validation for TAR-trees.

The TAR-tree's query correctness rests on structural soundness of the
underlying R*-tree *and* on the internal-TIA max-invariant (Property 1,
Section 4): every internal entry's TIA must store, per epoch, the
maximum over its child entries' TIAs.  ``check_invariants`` asserts
these; the validators here instead *report* them, returning a
structured :class:`ValidationReport` that survives ``python -O``, can
be rendered by the CLI (``repro verify``) and drives the graceful
degradation in :mod:`repro.reliability.recovery`.

Two entry points:

* :func:`validate_tree` — structural checks (parent pointers, fill
  bounds, exact MBR/grouping-rect coverage, the leaf registry) plus the
  aggregate checks (internal-TIA max-invariant, global epoch maxima,
  size bookkeeping).
* :func:`validate_against_dataset` — cross-checks every leaf TIA
  against a data set's per-epoch check-in history, the ground truth a
  streaming deployment recovers toward.
"""

from repro.spatial.geometry import Rect

#: Violation codes emitted by :func:`validate_tree`.
STRUCTURAL_CODES = (
    "parent-pointer",
    "level",
    "underflow",
    "overflow",
    "leaf-registry",
    "tia-registry",
    "unknown-poi",
    "group-rect",
    "mbr",
)
AGGREGATE_CODES = ("max-invariant", "global-max", "size")
DATASET_CODES = ("history-mismatch", "missing-history", "foreign-poi")


class Violation:
    """One broken invariant: a machine code, a location, and prose."""

    __slots__ = ("code", "location", "message")

    def __init__(self, code, location, message):
        self.code = code
        self.location = location
        self.message = message

    def __repr__(self):
        return "Violation(%r, %r, %r)" % (self.code, self.location, self.message)

    def __str__(self):
        return "[%s] %s: %s" % (self.code, self.location, self.message)


class ValidationReport:
    """Outcome of a validation pass.

    ``ok`` is ``True`` when no violation was found; ``violations`` keeps
    every :class:`Violation` in discovery order.  ``checked_nodes`` /
    ``checked_pois`` record coverage so an empty report is
    distinguishable from a skipped check.
    """

    __slots__ = ("violations", "checked_nodes", "checked_pois")

    def __init__(self):
        self.violations = []
        self.checked_nodes = 0
        self.checked_pois = 0

    @property
    def ok(self):
        return not self.violations

    def add(self, code, location, message):
        self.violations.append(Violation(code, location, message))

    def codes(self):
        """The distinct violation codes present, sorted."""
        return sorted({violation.code for violation in self.violations})

    def extend(self, other):
        """Merge another pass over the same tree into this report.

        Violations add up; coverage is the larger of the two, because
        both passes checked the same nodes and POIs.
        """
        self.violations.extend(other.violations)
        self.checked_nodes = max(self.checked_nodes, other.checked_nodes)
        self.checked_pois = max(self.checked_pois, other.checked_pois)
        return self

    def summary(self, limit=10):
        """Human-readable multi-line summary (capped at ``limit`` lines)."""
        if self.ok:
            return "OK: %d nodes, %d POIs checked, no violations" % (
                self.checked_nodes,
                self.checked_pois,
            )
        lines = [
            "%d violation(s) across %d node(s), %d POI(s) checked:"
            % (len(self.violations), self.checked_nodes, self.checked_pois)
        ]
        for violation in self.violations[:limit]:
            lines.append("  " + str(violation))
        hidden = len(self.violations) - limit
        if hidden > 0:
            lines.append("  ... and %d more" % hidden)
        return "\n".join(lines)

    def raise_if_failed(self, error=AssertionError):
        """Raise ``error`` with the summary when any violation was found."""
        if not self.ok:
            raise error(self.summary())

    def __repr__(self):
        return "ValidationReport(ok=%r, violations=%d)" % (
            self.ok,
            len(self.violations),
        )


def _epoch_maxima(entries):
    maxima = {}
    for entry in entries:
        for epoch, value in entry.tia.items():
            if value > maxima.get(epoch, 0):
                maxima[epoch] = value
    return maxima


def validate_tree(tree):
    """Run every structural and aggregate check; returns a report.

    Never raises on a broken tree — corruption is the expected input —
    and never mutates the tree (the global-maxima check recomputes from
    the leaf TIAs rather than triggering the tree's lazy refresh).
    """
    report = ValidationReport()
    counted_pois = 0
    stack = [(tree.root, None, "root")]
    while stack:
        node, parent, location = stack.pop()
        report.checked_nodes += 1
        if node.parent is not parent:
            report.add("parent-pointer", location, "broken parent pointer")
        if node is not tree.root and len(node.entries) < tree.min_fill:
            report.add(
                "underflow",
                location,
                "node holds %d entries, minimum is %d"
                % (len(node.entries), tree.min_fill),
            )
        if len(node.entries) > tree.capacity:
            report.add(
                "overflow",
                location,
                "node holds %d entries, capacity is %d"
                % (len(node.entries), tree.capacity),
            )
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                where = "%s/e%d" % (location, i)
                if entry.item not in tree._pois:
                    report.add(
                        "unknown-poi",
                        where,
                        "leaf entry for unregistered POI %r" % (entry.item,),
                    )
                    continue
                if tree._leaf_of.get(entry.item) is not node:
                    report.add(
                        "leaf-registry",
                        where,
                        "registry does not map POI %r to this leaf"
                        % (entry.item,),
                    )
                if entry.tia is not tree._poi_tias.get(entry.item):
                    report.add(
                        "tia-registry",
                        where,
                        "leaf entry TIA is not the registered TIA of POI %r"
                        % (entry.item,),
                    )
                counted_pois += 1
            continue
        for i, entry in enumerate(node.entries):
            where = "%s/e%d" % (location, i)
            child = entry.child
            if child is None or child.level != node.level - 1:
                report.add(
                    "level",
                    where,
                    "child missing or at level %r under a level-%d node"
                    % (getattr(child, "level", None), node.level),
                )
                continue
            expected_rect = Rect.union_all(e.rect for e in child.entries)
            if entry.rect != expected_rect:
                report.add(
                    "group-rect",
                    where,
                    "stale grouping rect %r (children union %r)"
                    % (entry.rect, expected_rect),
                )
            expected_mbr = Rect.union_all(e.mbr for e in child.entries)
            if entry.mbr != expected_mbr:
                report.add(
                    "mbr",
                    where,
                    "stale MBR %r (children union %r)" % (entry.mbr, expected_mbr),
                )
            expected_tia = _epoch_maxima(child.entries)
            actual_tia = dict(entry.tia.items())
            if actual_tia != expected_tia:
                report.add(
                    "max-invariant",
                    where,
                    "internal TIA violates the per-epoch max property: "
                    "stored %r, children imply %r" % (actual_tia, expected_tia),
                )
            stack.append((child, node, "%s/%d" % (location, i)))

    report.checked_pois = counted_pois
    if not (counted_pois == len(tree) == len(tree._pois)):
        report.add(
            "size",
            "tree",
            "size bookkeeping broken: %d leaf entries, len(tree)=%d, "
            "%d registered POIs" % (counted_pois, len(tree), len(tree._pois)),
        )
    expected_global = {}
    for tia in tree._poi_tias.values():
        for epoch, value in tia.items():
            if value > expected_global.get(epoch, 0):
                expected_global[epoch] = value
    if not tree._global_max_dirty and tree._global_epoch_max != expected_global:
        report.add(
            "global-max",
            "tree",
            "global per-epoch maxima are stale: cached %r, leaves imply %r"
            % (tree._global_epoch_max, expected_global),
        )
    return report


def validate_against_dataset(tree, dataset, poi_ids=None):
    """Cross-check leaf TIAs against a data set's check-in history.

    For every indexed POI (or the given subset), the TIA's per-epoch
    aggregates must equal the data set's counts under the tree's clock —
    the exact consistency a recovered streaming ingest must reach.  Only
    meaningful for count aggregates (the default); ``sum``/``max`` trees
    digest derived values the raw timestamps cannot reproduce.
    """
    report = ValidationReport()
    if poi_ids is None:
        poi_ids = list(tree.poi_ids())
    known = [poi_id for poi_id in poi_ids if poi_id in dataset.positions]
    for poi_id in poi_ids:
        if poi_id not in dataset.positions:
            report.add(
                "foreign-poi",
                "poi:%r" % (poi_id,),
                "indexed POI is absent from data set %r" % (dataset.name,),
            )
    expected = dataset.epoch_counts(tree.clock, known)
    for poi_id in known:
        report.checked_pois += 1
        history = dict(tree.poi_tia(poi_id).items())
        truth = {e: c for e, c in expected.get(poi_id, {}).items() if c > 0}
        if history == truth:
            continue
        diffs = {
            e: (history.get(e, 0), truth.get(e, 0))
            for e in sorted(set(history) | set(truth))
            if history.get(e, 0) != truth.get(e, 0)
        }
        # A TIA strictly *behind* the stream (every diff under-counts) is
        # recoverable lag; anything else is corruption.
        behind = all(tia_v < data_v for tia_v, data_v in diffs.values())
        code = "missing-history" if behind else "history-mismatch"
        report.add(
            code,
            "poi:%r" % (poi_id,),
            "leaf TIA disagrees with the data set on %d epoch(s): "
            "{epoch: (tia, dataset)} = %r" % (len(diffs), diffs),
        )
    return report
