"""Persistence for data sets and TAR-trees.

Two formats:

* **Data sets** — ``save_dataset`` / ``load_dataset`` store the POI
  positions and raw check-in timestamps in a single ``.npz`` archive
  (exact round trip), format version 2, with a CRC-32 per array.
* **Trees** — ``save_tree`` / ``load_tree`` store a tree as JSON in
  three sections (format version 3): ``config`` (world, clock,
  strategy, node size, TIA backend, aggregate kind, the ``lambda-hat``
  normaliser and the WAL high-water mark), ``pois`` (every POI's id,
  location and per-epoch history, in registration order) and
  ``nodes`` (the node layout).  ``nodes`` lists every node
  breadth-first from the root as ``[level, members]``: a leaf's
  members are ``[poi index, grouping point]`` pairs — the point is
  stored because the integral-3D ``z`` is fixed at insertion and
  cannot be recomputed from the history — and an internal node's
  members are its children's node indices.  Loading restores exactly
  those nodes and derives every internal entry (rect, MBR, per-epoch
  maxima) bottom-up; no choose-subtree, split or reinsertion runs, so a
  reloaded tree is the tree that was saved, node for node.  POI
  identifiers must be JSON-representable scalars (str/int); a
  ``TypeError`` is raised at save time otherwise.

Every section of a snapshot carries a CRC-32 over its canonical byte
representation, verified on load.  A flipped bit, a torn write or a
truncated file raises :class:`CorruptSnapshotError` naming the damaged
section instead of silently producing a corrupt index; so does a
``nodes`` section that passes its CRC but contradicts the ``pois``
section or the fill bounds.  Any other format version (tree versions 1
and 2 stored no layout, data set version 1 no checksums) raises
:class:`UnsupportedSnapshotError`, a ``ValueError``, naming it.

The optional ``opener`` argument of every function accepts an
``open``-compatible callable, which is how the reliability layer's
fault injector intercepts snapshot I/O (see
:mod:`repro.reliability.faults`).
"""

import json
import zlib

from repro.spatial.geometry import Rect
from repro.spatial.rstar import Entry
from repro.temporal.epochs import EpochClock, VariedEpochClock

_DATASET_FORMAT_VERSION = 2
_DATASET_VERSIONS = (2,)
_TREE_FORMAT_VERSION = 3
_TREE_VERSIONS = (3,)
_TREE_SECTIONS = ("config", "pois", "nodes")


class CorruptSnapshotError(Exception):
    """A saved data set or tree failed its integrity checks.

    ``section`` names the damaged part of the snapshot (e.g. ``"pois"``
    for a tree, ``"positions"`` for a data set, or ``"container"`` when
    the file itself cannot be parsed).
    """

    def __init__(self, message, section="container"):
        super().__init__(message)
        self.section = section


class UnsupportedSnapshotError(ValueError):
    """A snapshot this build does not read.

    Raised for a format version other than the ones this build reads
    (tree versions 1 and 2 stored no node layout, data set version 1 no
    checksums), for a file of another kind, such as a cluster manifest
    handed to :func:`load_tree`, and by :mod:`repro.reliability` for a
    ``<name>.digestlog`` or an intact WAL line that is no known record.
    Unlike :class:`CorruptSnapshotError` nothing is damaged; the file
    needs another reader.
    """


def _crc_bytes(data):
    return zlib.crc32(data) & 0xFFFFFFFF


#: The canonical (sorted, compact, ASCII) encoding every tree section's
#: CRC-32 covers.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _crc_json(section):
    """CRC-32 of a JSON value's canonical encoding.

    A list is checksummed item by item, feeding the ``[``, ``,`` and
    ``]`` between the items: the same bytes as encoding it whole, without
    holding the encoded section in memory at once.
    """
    if not isinstance(section, list):
        return _crc_bytes(_CANONICAL.encode(section).encode("utf-8"))
    crc = zlib.crc32(b"[")
    for index, item in enumerate(section):
        if index:
            crc = zlib.crc32(b",", crc)
        crc = zlib.crc32(_CANONICAL.encode(item).encode("utf-8"), crc)
    return zlib.crc32(b"]", crc) & 0xFFFFFFFF


def _crc_array(array):
    import numpy as np

    return _crc_bytes(np.ascontiguousarray(array).tobytes())


def _check_version(version, what, supported):
    if version not in supported:
        raise UnsupportedSnapshotError(
            "unsupported %s format version %r; this build reads version%s %s"
            % (
                what,
                version,
                "s" if len(supported) > 1 else "",
                ", ".join(str(v) for v in supported),
            )
        )


# ---------------------------------------------------------------------------
# Data sets
# ---------------------------------------------------------------------------

#: npz fields protected by per-array checksums (everything but the
#: version marker and the checksum arrays themselves).
_DATASET_SECTIONS = (
    "name",
    "world",
    "t0",
    "tc",
    "threshold",
    "poi_ids",
    "positions",
    "lengths",
    "times",
)


def save_dataset(dataset, path, opener=None):
    """Write ``dataset`` to ``path`` as a checksummed ``.npz`` archive."""
    # numpy is imported where it is used, not at module level, so that
    # opening a tree snapshot (every shard worker's start) stays without it.
    import numpy as np

    poi_ids = sorted(dataset.positions)
    positions = np.array(
        [dataset.positions[poi_id] for poi_id in poi_ids], dtype=np.float64
    )
    times = [
        np.asarray(dataset.checkin_times.get(poi_id, ()), dtype=np.float64)
        for poi_id in poi_ids
    ]
    lengths = np.array([t.size for t in times], dtype=np.int64)
    flat_times = (
        np.concatenate(times) if times else np.empty(0, dtype=np.float64)
    )
    arrays = {
        "version": np.int64(_DATASET_FORMAT_VERSION),
        "name": np.str_(dataset.name),
        "world": np.array(dataset.world.lows + dataset.world.highs),
        "t0": np.float64(dataset.t0),
        "tc": np.float64(dataset.tc),
        "threshold": np.int64(dataset.threshold),
        "poi_ids": np.array(poi_ids),
        "positions": positions,
        "lengths": lengths,
        "times": flat_times,
    }
    arrays["checksum_names"] = np.array(_DATASET_SECTIONS)
    arrays["checksum_values"] = np.array(
        [_crc_array(arrays[name]) for name in _DATASET_SECTIONS], dtype=np.uint32
    )
    if opener is not None:
        with opener(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
    else:
        np.savez_compressed(path, **arrays)


def _read_member(archive, name):
    """Read one npz member, converting container damage to a clear error."""
    try:
        return archive[name]
    except KeyError:
        raise CorruptSnapshotError(
            "dataset snapshot is missing section %r" % name, section=name
        )
    except (zlib.error, OSError, EOFError, ValueError) as exc:
        # Flipped bits inside a compressed member surface as zlib/IO
        # errors; zipfile.BadZipFile is handled by the caller.
        raise CorruptSnapshotError(
            "dataset section %r is unreadable: %s" % (name, exc), section=name
        )


def load_dataset(path, opener=None):
    """Read a :class:`~repro.datasets.generator.Dataset` written by
    :func:`save_dataset`.

    Raises :class:`CorruptSnapshotError` when the archive is truncated,
    bit-flipped or fails a section checksum, and
    :class:`UnsupportedSnapshotError` (a ``ValueError``) for an unknown
    format version.
    """
    import zipfile

    import numpy as np

    from repro.datasets.generator import Dataset

    handle = None
    try:
        if opener is not None:
            handle = opener(path, "rb")
            archive_cm = np.load(handle, allow_pickle=False)
        else:
            archive_cm = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        if handle is not None:
            handle.close()
        raise CorruptSnapshotError(
            "dataset snapshot %s is not a readable npz archive: %s" % (path, exc)
        )
    try:
        with archive_cm as archive:
            version = int(_read_member(archive, "version"))
            _check_version(version, "dataset", _DATASET_VERSIONS)
            _verify_dataset_checksums(archive)
            world_values = _read_member(archive, "world")
            world = Rect(world_values[:2], world_values[2:])
            poi_ids = [_plain(v) for v in _read_member(archive, "poi_ids")]
            positions_array = _read_member(archive, "positions")
            lengths = _read_member(archive, "lengths")
            flat_times = _read_member(archive, "times")
            if positions_array.shape[0] != len(poi_ids) or lengths.shape[0] != len(
                poi_ids
            ):
                raise CorruptSnapshotError(
                    "dataset arrays disagree on the number of POIs",
                    section="positions",
                )
            if int(lengths.sum()) != flat_times.shape[0]:
                raise CorruptSnapshotError(
                    "check-in lengths do not add up to the stored timestamps",
                    section="times",
                )
            positions = {
                poi_id: (float(x), float(y))
                for poi_id, (x, y) in zip(poi_ids, positions_array)
            }
            checkin_times = {}
            offset = 0
            for poi_id, length in zip(poi_ids, lengths):
                checkin_times[poi_id] = flat_times[
                    offset : offset + int(length)
                ].copy()
                offset += int(length)
            return Dataset(
                str(_read_member(archive, "name")),
                world,
                float(_read_member(archive, "t0")),
                float(_read_member(archive, "tc")),
                positions,
                checkin_times,
                int(_read_member(archive, "threshold")),
            )
    except zipfile.BadZipFile as exc:
        raise CorruptSnapshotError(
            "dataset snapshot %s has a corrupt member: %s" % (path, exc)
        )
    finally:
        if handle is not None:
            handle.close()


def _verify_dataset_checksums(archive):
    names = [_plain(v) for v in _read_member(archive, "checksum_names")]
    values = _read_member(archive, "checksum_values")
    stored = dict(zip(names, (int(v) for v in values)))
    for name in _DATASET_SECTIONS:
        if name not in stored:
            raise CorruptSnapshotError(
                "dataset snapshot lacks a checksum for section %r" % name,
                section=name,
            )
        actual = _crc_array(_read_member(archive, name))
        if actual != stored[name]:
            raise CorruptSnapshotError(
                "dataset section %r failed its CRC-32 check "
                "(stored 0x%08x, computed 0x%08x)" % (name, stored[name], actual),
                section=name,
            )


def _plain(value):
    """Convert a numpy scalar to the nearest Python scalar."""
    import numpy as np

    if isinstance(value, np.generic):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def _clock_to_json(clock):
    if isinstance(clock, EpochClock):
        return {"type": "uniform", "t0": clock.t0, "epoch_length": clock.epoch_length}
    if isinstance(clock, VariedEpochClock):
        return {"type": "varied", "boundaries": list(clock.boundaries)}
    raise TypeError("cannot serialise clock of type %s" % type(clock).__name__)


def _clock_from_json(payload):
    if payload["type"] == "uniform":
        return EpochClock(payload["t0"], payload["epoch_length"])
    if payload["type"] == "varied":
        return VariedEpochClock(payload["boundaries"])
    raise ValueError("unknown clock type %r" % (payload["type"],))


def _tree_sections(tree):
    """Split a tree's content and node layout into checksummed sections."""
    pois = []
    poi_index = {}
    for poi_id in tree.poi_ids():
        if not isinstance(poi_id, (str, int)) or isinstance(poi_id, bool):
            raise TypeError(
                "POI id %r is not JSON-representable; use str or int ids"
                % (poi_id,)
            )
        poi = tree.poi(poi_id)
        history = [[int(e), v] for e, v in tree.poi_tia(poi_id).items()]
        poi_index[poi_id] = len(pois)
        pois.append([poi_id, poi.x, poi.y, history])
    config = {
        "world": {"lows": list(tree.world.lows), "highs": list(tree.world.highs)},
        "clock": _clock_to_json(tree.clock),
        "current_time": tree.current_time,
        "strategy": tree.strategy.name,
        "node_size": tree.node_size,
        "tia_backend": tree.tia_backend,
        "aggregate_kind": tree.aggregate_kind.value,
        "max_mean_rate": tree.max_mean_rate(),
        # WAL replay high-water mark: the LSN of the last logged
        # mutation contained in this snapshot (null when the tree was
        # never WAL-wrapped).  recover() skips records at or below it.
        "applied_lsn": getattr(tree, "applied_lsn", None),
    }
    # Breadth-first from the root, so every child follows its parent.
    order = [tree.root]
    nodes = []
    for node in order:
        if node.is_leaf:
            members = [
                [poi_index[entry.item], list(entry.rect.lows)]
                for entry in node.entries
            ]
        else:
            members = []
            for entry in node.entries:
                members.append(len(order))
                order.append(entry.child)
        nodes.append([node.level, members])
    return {"config": config, "pois": pois, "nodes": nodes}


def save_tree(tree, path, opener=None):
    """Write ``tree``'s configuration, content and node layout as JSON.

    The snapshot is framed into checksummed sections (``config``,
    ``pois``, ``nodes``); :func:`load_tree` verifies each CRC-32 before
    restoring the index.
    """
    sections = _tree_sections(tree)
    checksums = {name: _crc_json(body) for name, body in sections.items()}
    if opener is None:
        opener = open
    # The bytes ``json.dump`` writes for ``{"version", "sections",
    # "checksums"}``, encoded one section at a time by ``json.dumps``,
    # which runs the C encoder where ``json.dump`` runs the Python one.
    with opener(path, "w") as handle:
        handle.write('{"version": %d, "sections": {' % _TREE_FORMAT_VERSION)
        for index, (name, body) in enumerate(sections.items()):
            handle.write('%s"%s": ' % (", " if index else "", name))
            handle.write(json.dumps(body))
        handle.write('}, "checksums": %s}' % json.dumps(checksums))


def _tree_payload_sections(path, payload):
    """Return the verified ``config``, ``pois`` and ``nodes`` sections."""
    if not isinstance(payload, dict):
        raise CorruptSnapshotError(
            "tree snapshot %s does not hold a JSON object" % path
        )
    if "shards" in payload and "plan" in payload:
        raise UnsupportedSnapshotError(
            "%s is a cluster manifest, not a tree snapshot; open its "
            "directory as a cluster" % path
        )
    if "version" not in payload:
        raise CorruptSnapshotError(
            "tree snapshot %s lacks a format version marker" % path,
            section="config",
        )
    _check_version(payload["version"], "tree", _TREE_VERSIONS)
    sections = payload.get("sections")
    checksums = payload.get("checksums")
    if not isinstance(sections, dict) or not isinstance(checksums, dict):
        raise CorruptSnapshotError(
            "tree snapshot %s lacks its section/checksum framing" % path
        )
    for name in _TREE_SECTIONS:
        if name not in sections:
            raise CorruptSnapshotError(
                "tree snapshot %s is missing section %r" % (path, name),
                section=name,
            )
        if name not in checksums:
            raise CorruptSnapshotError(
                "tree snapshot %s lacks a checksum for section %r" % (path, name),
                section=name,
            )
        actual = _crc_json(sections[name])
        if actual != checksums[name]:
            raise CorruptSnapshotError(
                "tree section %r failed its CRC-32 check "
                "(stored %r, computed %d)" % (name, checksums[name], actual),
                section=name,
            )
    return sections


def _restore_nodes(tree, nodes, pois, tias):
    """Rebuild the saved node layout bottom-up and return its root.

    ``nodes`` lists every node breadth-first from the root as ``[level,
    members]``: a leaf's members are ``[poi index, grouping point]``
    pairs, an internal node's are the indices of its children.  Walking
    the list backwards builds every child before the entry that points
    at it, so ``_make_parent_entry`` derives each internal rect, MBR
    and per-epoch-max TIA from finished children.  ``pois`` and
    ``tias`` are the registered POIs and their leaf TIAs in ``pois``
    section order.  A layout that places a POI twice or never, breaks
    the fill bounds or links a child at the wrong level or twice raises
    :class:`CorruptSnapshotError` naming the ``nodes`` section.
    """

    def corrupt(message, *args):
        return CorruptSnapshotError(
            "tree section 'nodes': " + message % args, section="nodes"
        )

    placed = [False] * len(pois)
    built = [None] * len(nodes)
    linked = [False] * len(nodes)
    try:
        for index in range(len(nodes) - 1, -1, -1):
            level, members = nodes[index]
            if level < 0 or len(members) > tree.capacity or (
                index > 0 and len(members) < tree.min_fill
            ) or (level > 0 and not members):
                raise corrupt(
                    "node %d (level %r) holds %d entries; a node holds at "
                    "most %d, and at least %d below the root",
                    index, level, len(members), tree.capacity, tree.min_fill,
                )
            entries = []
            if level == 0:
                for position, point in members:
                    if not 0 <= position < len(pois) or placed[position]:
                        raise corrupt(
                            "leaf %d places POI #%r, which is unknown or "
                            "already placed", index, position,
                        )
                    if len(point) != tree.strategy.dims:
                        raise corrupt(
                            "leaf %d holds a %d-D grouping point; the %s "
                            "strategy groups in %d-D", index, len(point),
                            tree.strategy.name, tree.strategy.dims,
                        )
                    placed[position] = True
                    poi = pois[position]
                    entries.append(
                        Entry(
                            Rect(point, point),
                            item=poi.poi_id,
                            mbr=Rect.from_point(poi.point),
                            tia=tias[position],
                        )
                    )
            else:
                for child in members:
                    if not index < child < len(nodes) or linked[child]:
                        raise corrupt(
                            "node %d links node %r, which is not a later, "
                            "unclaimed node", index, child,
                        )
                    if built[child].level != level - 1:
                        raise corrupt(
                            "node %d at level %d links node %d at level %d",
                            index, level, child, built[child].level,
                        )
                    linked[child] = True
                    entries.append(tree._make_parent_entry(built[child]))
            built[index] = tree._link_node(level, entries)
    except (TypeError, ValueError, IndexError) as exc:
        raise corrupt("malformed node: %s", exc)
    if not built:
        raise corrupt("no root node")
    orphans = linked.count(False) - 1
    if orphans:
        raise corrupt("%d node(s) hang under no parent", orphans)
    if not all(placed):
        raise corrupt("POI %r is in no leaf", pois[placed.index(False)].poi_id)
    return built[0]


#: ``load_tree`` overrides that change how TIAs are stored, never what
#: the saved nodes hold.
_LOAD_OVERRIDES = ("tia_backend", "tia_page_size", "tia_buffer_slots")


def load_tree(path, stats=None, opener=None, **overrides):
    """Open a TAR-tree written by :func:`save_tree`.

    Restores the saved node layout as it was (no insertion heuristic
    runs), so the loaded tree makes the same node accesses, in the same
    order, as the saved one.  ``overrides`` may only change TIA storage
    (``tia_backend``, ``tia_page_size``, ``tia_buffer_slots``); any
    other ``TARTree`` field would contradict the saved nodes and raises
    ``ValueError``.  Raises :class:`CorruptSnapshotError` on truncated,
    bit-flipped or inconsistent snapshots and
    :class:`UnsupportedSnapshotError` (a ``ValueError``) for a format
    version other than 3 or a cluster manifest.
    """
    from repro.core.tar_tree import POI, TARTree

    for field in overrides:
        if field not in _LOAD_OVERRIDES:
            raise ValueError(
                "load_tree cannot override %r: a snapshot fixes every tree "
                "field but TIA storage (%s)" % (field, ", ".join(_LOAD_OVERRIDES))
            )
    if opener is None:
        opener = open
    with opener(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # json.JSONDecodeError subclasses ValueError
            raise CorruptSnapshotError(
                "tree snapshot %s is not valid JSON (truncated or corrupt): %s"
                % (path, exc)
            )
    sections = _tree_payload_sections(path, payload)
    config_json = sections["config"]
    try:
        config = dict(
            world=Rect(
                config_json["world"]["lows"], config_json["world"]["highs"]
            ),
            clock=_clock_from_json(config_json["clock"]),
            current_time=config_json["current_time"],
            strategy=config_json["strategy"],
            node_size=config_json["node_size"],
            tia_backend=config_json["tia_backend"],
            aggregate_kind=config_json["aggregate_kind"],
            stats=stats,
        )
        max_mean_rate = config_json["max_mean_rate"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            "tree snapshot %s has a malformed config section: %r" % (path, exc),
            section="config",
        )
    config.update(overrides)
    tree = TARTree(**config)
    # The lambda-hat normaliser as saved: restoring it (rather than
    # recomputing it) keeps save -> load -> save byte-identical.
    tree._max_mean_rate = max_mean_rate
    # Each parsed section is popped as it is built from, so the parse
    # tree is released while the index grows, not after it is complete.
    try:
        rows = [
            (POI(poi_id, x, y), {int(e): v for e, v in history})
            for poi_id, x, y, history in sections.pop("pois")
        ]
        tias = tree._register_pois(rows)
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            "tree snapshot %s has a malformed POI section: %s" % (path, exc),
            section="pois",
        )
    tree.root = _restore_nodes(
        tree, sections.pop("nodes"), [poi for poi, _history in rows], tias
    )
    tree._size = len(rows)
    # Snapshots written outside a WAL carry null; None means "replay
    # everything idempotently" rather than "nothing to replay".
    tree.applied_lsn = config_json.get("applied_lsn")
    return tree
