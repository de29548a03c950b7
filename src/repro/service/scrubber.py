"""Incremental background scrubbing of a live TAR-tree (ROADMAP item).

Corruption used to be detected only on load or on demand
(``validate_tree``, ``repro verify``).  The :class:`Scrubber` instead
sweeps the index *between* queries: each :meth:`tick` walks a bounded
number of nodes (post-order, children before parents) under the
service's shared read lock and compares
:meth:`~repro.temporal.tia.BaseTIA.fingerprint` CRCs:

* **Internal entries** are checked against the per-epoch maxima
  recomputed from their child node's entries — the max-invariant is
  recomputable, so a divergent internal TIA is *repaired* in place
  (``replace_all`` under the write lock) and reported as a
  ``repaired-internal`` health event.
* **Leaf entries** are checked against a persisted CRC manifest keyed
  by POI id, maintained through the tree's post-mutation observer hook
  so every ``insert``/``delete``/``digest`` refreshes the affected
  entries.  A leaf TIA cannot be re-derived from the tree itself, so a
  mismatch surfaces as an (unrepairable here) ``leaf-damage`` health
  event — the operator's cue to run ``repro recover`` against the WAL
  or data set.  A damaged leaf also *quarantines* its ancestor path for
  the rest of the sweep: the internal TIAs above it are left alone
  rather than "repaired" into agreement with corrupt data (the
  post-order walk visits children first, so the taint is known before
  any ancestor is checked).

Detection runs under the read lock so in-flight queries are never
blocked; only an actual repair takes the write lock, re-verifies the
divergence, then swaps the recomputed content in.
"""

import json
import os
import zlib
from collections import deque

from repro.core.tar_tree import TARTree
from repro.reliability.wal import durable_write

DEFAULT_SCRUB_BUDGET = 32
MAX_EVENTS = 256


def fingerprint_mapping(epoch_aggregates):
    """CRC-32 of ``{epoch: agg}`` in the canonical TIA fingerprint form.

    Matches :meth:`~repro.temporal.tia.BaseTIA.fingerprint` exactly, so
    an expected-content mapping can be compared against a live TIA
    without materialising a TIA.
    """
    crc = 0
    for epoch, agg in sorted(epoch_aggregates.items()):
        crc = zlib.crc32(("%r:%r;" % (epoch, agg)).encode("ascii"), crc)
    return crc & 0xFFFFFFFF


class HealthEvent:
    """One scrubber finding: what happened, where, in which sweep."""

    __slots__ = ("kind", "location", "detail", "sweep")

    def __init__(self, kind, location, detail, sweep):
        self.kind = kind
        self.location = location
        self.detail = detail
        self.sweep = sweep

    def as_dict(self):
        return {
            "kind": self.kind,
            "location": self.location,
            "detail": self.detail,
            "sweep": self.sweep,
        }

    def __repr__(self):
        return "HealthEvent(%r, %r, sweep=%d)" % (self.kind, self.location, self.sweep)


class Scrubber:
    """Bounded, resumable integrity sweeps over a served TAR-tree.

    Parameters
    ----------
    tree:
        The live :class:`~repro.core.tar_tree.TARTree`.
    lock:
        The service's :class:`~repro.service.locks.ReadWriteLock`; ticks
        detect under read access and repair under write access.
    manifest_path:
        Where the leaf-CRC manifest persists (JSON).  ``None`` keeps it
        in memory only.  A persisted manifest is trusted only when its
        recorded ``applied_lsn`` matches the tree's — otherwise the
        manifest is re-baselined from the (just loaded and verified)
        tree, so WAL replay does not masquerade as damage.
    budget:
        Default nodes examined per :meth:`tick`.
    """

    def __init__(self, tree, lock, manifest_path=None, budget=DEFAULT_SCRUB_BUDGET):
        self.tree = tree
        self._lock = lock
        self.manifest_path = manifest_path
        self.budget = budget
        self._manifest = {}
        self._manifest_dirty = False
        self._work = []
        self._sweep_open = False
        self._damaged_this_sweep = set()
        self._tainted_nodes = set()
        self.sweeps_completed = 0
        self.nodes_checked = 0
        self.repairs = 0
        self.leaf_damage = 0
        self.events = deque(maxlen=MAX_EVENTS)
        if not self._load_manifest():
            self.rebaseline()

    # ------------------------------------------------------------------
    # Manifest maintenance
    # ------------------------------------------------------------------

    def rebaseline(self):
        """Rebuild the leaf-CRC manifest from the current tree content."""
        with self._lock.read_locked():
            self._manifest = {
                poi_id: self.tree.poi_tia(poi_id).fingerprint()
                for poi_id in self.tree.poi_ids()
            }
        self._manifest_dirty = True
        self.persist_manifest()

    def observe_mutation(self, kind, poi_ids):
        """Tree post-mutation observer: refresh the affected leaf CRCs.

        Called with the mutation already applied and (when routed
        through the service) the write lock held, so the fingerprints
        read here are the new ground truth.
        """
        if kind == "delete":
            for poi_id in poi_ids:
                self._manifest.pop(poi_id, None)
        else:
            for poi_id in poi_ids:
                if poi_id in self.tree:
                    self._manifest[poi_id] = self.tree.poi_tia(poi_id).fingerprint()
        self._manifest_dirty = True

    def _load_manifest(self):
        if not self.manifest_path or not os.path.exists(self.manifest_path):
            return False
        try:
            with open(self.manifest_path, "r") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return False
        if payload.get("applied_lsn") != self.tree.applied_lsn:
            return False
        manifest = {}
        for poi_id, crc in payload.get("pois", []):
            manifest[poi_id] = crc
        self._manifest = manifest
        return True

    def persist_manifest(self):
        """Write the manifest atomically (no-op without a path)."""
        if not self.manifest_path or not self._manifest_dirty:
            return
        payload = {
            "applied_lsn": self.tree.applied_lsn,
            "pois": sorted(
                self._manifest.items(), key=lambda item: (str(type(item[0])), str(item[0]))
            ),
        }
        with durable_write(self.manifest_path) as handle:
            json.dump(payload, handle)
        self._manifest_dirty = False

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------

    def _postorder_nodes(self):
        """Every node, children before parents (so repairs cascade up)."""
        ordered = []
        stack = [(self.tree.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                ordered.append(node)
                continue
            stack.append((node, True))
            if not node.is_leaf:
                for entry in node.entries:
                    stack.append((entry.child, False))
        # pop() from the end must yield post-order, so store reversed.
        ordered.reverse()
        return ordered

    def _reachable(self, node):
        """Is ``node`` still part of the tree (splits/deletes move nodes)?"""
        hops = 0
        while node.parent is not None:
            parent = node.parent
            try:
                parent.entry_for_child(node)
            except LookupError:
                return False
            node = parent
            hops += 1
            if hops > 64:
                return False
        return node is self.tree.root

    def tick(self, budget=None):
        """Scrub up to ``budget`` nodes; returns the number examined.

        Detection happens under the read lock; repairs (if any) are
        applied in a second, short write-locked phase that re-verifies
        each divergence before overwriting.  Completing the node list
        finishes a sweep and persists the manifest.
        """
        budget = self.budget if budget is None else budget
        planned = []
        checked = 0
        with self._lock.read_locked():
            if not self._work:
                self._work = self._postorder_nodes()
                self._sweep_open = True
                self._damaged_this_sweep = set()
                self._tainted_nodes = set()
            while self._work and checked < budget:
                node = self._work.pop()
                checked += 1
                if not self._reachable(node):
                    continue
                self._check_node(node, planned)
        self.nodes_checked += checked
        if planned:
            self._repair(planned)
        if self._sweep_open and not self._work:
            self._sweep_open = False
            self.sweeps_completed += 1
            self.persist_manifest()
        return checked

    def sweep(self, tick_budget=None):
        """Run ticks until the current sweep completes; returns nodes seen.

        A tick always examines at least the root, so this terminates
        even on an empty tree.
        """
        target = self.sweeps_completed + 1
        total = 0
        while self.sweeps_completed < target:
            total += self.tick(tick_budget)
        return total

    def _check_node(self, node, planned):
        for entry in node.entries:
            if entry.child is not None:
                if id(entry.child) in self._tainted_nodes:
                    # The subtree holds damaged leaf data; "repairing"
                    # this TIA would just launder the corruption upward.
                    self._tainted_nodes.add(id(node))
                    continue
                expected = TARTree._epoch_maxima(entry.child.entries)
                if fingerprint_mapping(expected) != entry.tia.fingerprint():
                    planned.append((node, entry))
            else:
                crc = entry.tia.fingerprint()
                baseline = self._manifest.get(entry.item)
                if baseline is None:
                    # Unseen POI (e.g. inserted while the manifest was
                    # external): adopt its current content as baseline.
                    self._manifest[entry.item] = crc
                    self._manifest_dirty = True
                elif crc != baseline:
                    self._tainted_nodes.add(id(node))
                    if entry.item in self._damaged_this_sweep:
                        continue
                    self._damaged_this_sweep.add(entry.item)
                    self.leaf_damage += 1
                    self.events.append(
                        HealthEvent(
                            "leaf-damage",
                            "poi %r" % (entry.item,),
                            "leaf TIA fingerprint %08x != manifest %08x; "
                            "re-derive from the WAL or data set" % (crc, baseline),
                            self.sweeps_completed,
                        )
                    )

    def _repair(self, planned):
        with self._lock.write_locked():
            for node, entry in planned:
                if entry.child is None or entry not in node.entries:
                    continue
                if not self._reachable(node):
                    continue
                expected = TARTree._epoch_maxima(entry.child.entries)
                if fingerprint_mapping(expected) == entry.tia.fingerprint():
                    continue  # a writer fixed or superseded it meanwhile
                entry.tia.replace_all(expected)
                # The entry's TIA content changed in place: invalidate
                # any packed frame built over the old values.
                node.stamp += 1
                self.repairs += 1
                self.events.append(
                    HealthEvent(
                        "repaired-internal",
                        "node %d (level %d)" % (node.node_id, node.level),
                        "internal TIA re-derived from %d child entr(ies)"
                        % len(entry.child.entries),
                        self.sweeps_completed,
                    )
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def progress(self):
        """JSON-serialisable progress/health summary."""
        return {
            "sweeps_completed": self.sweeps_completed,
            "sweep_open": self._sweep_open,
            "pending_nodes": len(self._work),
            "nodes_checked": self.nodes_checked,
            "repairs": self.repairs,
            "leaf_damage": self.leaf_damage,
            "manifest_pois": len(self._manifest),
            "events": [event.as_dict() for event in list(self.events)[-10:]],
        }

    def __repr__(self):
        return "Scrubber(sweeps=%d, repairs=%d, leaf_damage=%d, pending=%d)" % (
            self.sweeps_completed,
            self.repairs,
            self.leaf_damage,
            len(self._work),
        )
