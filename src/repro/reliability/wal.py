"""The mutation write-ahead log (WAL) behind crash-recoverable ingest.

A **typed mutation WAL** makes the *whole* TAR-tree mutation stream —
epoch digests, POI insertions and deletions — durable and replayable
(ARIES-style: log first, apply second, replay idempotently).

Each record is one line, ``<crc32 hex> <json>\\n``, whose JSON body is
``[lsn, type, payload]``:

=============  =====================================================
``type``       ``payload``
=============  =====================================================
``digest``     ``[epoch_index, [[poi_id, delta, value_after], ...]]``
``insert``     ``[poi_id, x, y, [[epoch, value], ...]]``
``delete``     ``[poi_id]``
``checkpoint`` ``[applied_lsn]`` — marker written when a checkpoint
               reset the log; replays as a no-op
=============  =====================================================

LSNs (log sequence numbers) increase strictly monotonically and are
**never reused** within a directory's lifetime: a checkpoint does not
reset the counter, it atomically rewrites the log to a single
``checkpoint`` marker carrying the *next* LSN, so a snapshot's recorded
``applied_lsn`` high-water mark stays comparable with every later
record.  ``value_after`` in digest records is the absolute TIA value
the batch must reach, which keeps replay idempotent on its own: a
batch replayed twice reaches the same values.

Damage handling is byte-exact: a torn final line (crash mid-append, a
CRC mismatch, an unframed line, or a final line missing its newline) is
detected and dropped — and *repaired* on reopen by truncating back to
the last intact record — while a damaged line before intact ones means
real corruption and raises
:class:`~repro.storage.serialize.CorruptSnapshotError`.  A complete,
CRC-valid line that is not a ``[lsn, type, payload]`` record of a known
type is neither: it was written whole, by a format this build does not
read (the digest-only log's ``[seq, epoch_index, pairs]`` body, or a
record type added later), so the scan raises
:class:`~repro.storage.serialize.UnsupportedSnapshotError` naming the
path and line instead of cutting it off as a torn tail.

Every file the library rewrites whole (this log on reset, tree
snapshots, cluster manifests and shard metadata, a worker's announce
file, the scrubber manifest) goes through :func:`durable_write`.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager, suppress
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from repro.storage.serialize import (
    CorruptSnapshotError,
    UnsupportedSnapshotError,
)

RECORD_DIGEST = "digest"
RECORD_INSERT = "insert"
RECORD_DELETE = "delete"
RECORD_CHECKPOINT = "checkpoint"

#: Every record type a WAL line may carry.
RECORD_TYPES = (RECORD_DIGEST, RECORD_INSERT, RECORD_DELETE, RECORD_CHECKPOINT)

#: The record types that mutate tree state (a ``checkpoint`` marker
#: does not — it never advances the applied-LSN high-water mark).
MUTATION_RECORD_TYPES = (RECORD_DIGEST, RECORD_INSERT, RECORD_DELETE)


class WalRecord(NamedTuple):
    """One decoded WAL record: ``(lsn, type, payload)``."""

    lsn: int
    type: str
    payload: list[Any]


def _check_poi_id(poi_id: Any) -> str | int:
    if not isinstance(poi_id, (str, int)) or isinstance(poi_id, bool):
        raise TypeError(
            "POI id %r is not WAL-representable; use str or int ids" % (poi_id,)
        )
    return poi_id


def _frame(body: str) -> str:
    return "%08x %s\n" % (zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, body)


def _unframe(line: bytes) -> str | None:
    """The body of a ``<crc32 hex> <json>`` line whose CRC matches.

    ``None`` means damage: an unframed line or a CRC mismatch.
    """
    text = line.decode("utf-8", errors="replace").rstrip("\n")
    if len(text) < 10 or text[8] != " ":
        return None
    crc_text, body = text[:8], text[9:]
    try:
        stored = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != stored:
        return None
    return body


def _decode(body: str) -> WalRecord:
    """The record in an intact body; ``ValueError`` says why it is none."""
    record = json.loads(body)
    if not isinstance(record, list) or len(record) != 3:
        raise ValueError("not an [lsn, type, payload] record")
    lsn, kind, payload = record
    if isinstance(lsn, bool) or not isinstance(lsn, int) or lsn < 0:
        raise ValueError("LSN %r is not a non-negative integer" % (lsn,))
    if kind not in RECORD_TYPES:
        raise ValueError(
            "record type %r is not one of %s" % (kind, ", ".join(RECORD_TYPES))
        )
    if not isinstance(payload, list):
        raise ValueError("%s payload is not a list" % kind)
    return WalRecord(lsn, kind, payload)


@contextmanager
def durable_write(path: str) -> Iterator[TextIO]:
    """Replace ``path`` atomically with what the block writes.

    Yields a text handle on a temp file of its own beside ``path``, so
    two rewrites of one path at once never share one.  When the block
    exits cleanly, the temp file is fsynced and renamed over ``path``,
    and the directory is fsynced (best-effort where directory fds are
    unsupported).  A crash at any step leaves the old file or the new
    one, and the new one is on disk once the block is left.  A block
    that raises leaves ``path`` untouched and removes the temp file.
    """
    temp_path = "%s.%s.tmp" % (path, os.urandom(6).hex())
    try:
        with open(temp_path, "x", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp_path)
        raise
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _scan_wal(path: str) -> tuple[list[WalRecord], int, int]:
    """Parse a mutation WAL at byte granularity.

    Returns ``(records, dropped_tail_lines, valid_prefix_bytes)`` where
    ``valid_prefix_bytes`` is the file offset just past the last intact,
    newline-terminated record — the truncation point that discards a
    torn tail without touching any acked data.  Raises
    :class:`CorruptSnapshotError` when damage appears *before* intact
    records (mid-log corruption) or LSNs go backwards, and
    :class:`UnsupportedSnapshotError` for a complete, CRC-valid line
    that holds no record of a known type.
    """
    if not os.path.exists(path):
        return [], 0, 0
    with open(path, "rb") as handle:
        data = handle.read()
    # (record_or_None, end_offset_incl_newline) per non-blank line
    entries: list[tuple[WalRecord | None, int]] = []
    pos = 0
    number = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        end = len(data) if newline == -1 else newline + 1
        chunk = data[pos:end]
        pos = end
        number += 1
        if not chunk.strip():
            continue
        # A final line without its newline is torn even if the CRC
        # happens to pass — never treat it as a safe append point.
        body = _unframe(chunk) if newline != -1 else None
        record: WalRecord | None = None
        if body is not None:
            # Written whole, so not a torn tail: cutting it off would
            # drop a record some writer acked.
            try:
                record = _decode(body)
            except ValueError as exc:
                raise UnsupportedSnapshotError(
                    "mutation WAL %s line %d holds no record this build "
                    "reads: %s" % (path, number, exc)
                ) from None
        entries.append((record, end))
    last_ok = -1
    for i, (record, _end) in enumerate(entries):
        if record is not None:
            last_ok = i
    bad_before_ok = sum(1 for record, _ in entries[: last_ok + 1] if record is None)
    if bad_before_ok:
        raise CorruptSnapshotError(
            "mutation WAL %s has %d corrupt record(s) before intact ones"
            % (path, bad_before_ok),
            section="wal",
        )
    records = [record for record, _ in entries if record is not None]
    for earlier, later in zip(records, records[1:]):
        if later.lsn <= earlier.lsn:
            raise CorruptSnapshotError(
                "mutation WAL %s has non-monotonic LSNs (%d then %d)"
                % (path, earlier.lsn, later.lsn),
                section="wal",
            )
    valid_end = entries[last_ok][1] if last_ok >= 0 else 0
    return records, len(entries) - (last_ok + 1), valid_end


def read_wal(path: str) -> tuple[list[WalRecord], int]:
    """Parse a mutation WAL; returns ``(records, dropped_tail_lines)``.

    ``records`` holds the intact :class:`WalRecord` s in LSN order;
    ``dropped_tail_lines`` counts torn/garbled lines at the tail.
    Raises :class:`CorruptSnapshotError` when damage appears *before*
    intact records (mid-log corruption) or LSNs go backwards, and
    :class:`UnsupportedSnapshotError` for an intact line of a format
    this build does not read.
    """
    records, dropped, _valid_end = _scan_wal(path)
    return records, dropped


class MutationWAL:
    """An append-only, CRC-framed, typed log of tree mutations.

    ``append`` durably frames one record (write + flush + fsync) and
    returns its LSN; the typed helpers (:meth:`log_digest`,
    :meth:`log_insert`, :meth:`log_delete`) validate payload shapes
    first.  Opening an existing log *repairs* a torn tail: the file is
    truncated back to the end of its last intact record before the
    append handle is created, so a post-crash append starts on a fresh
    line instead of concatenating onto the torn fragment (which would
    garble the new, acked record and poison every later read).

    The next LSN follows the last intact record, and is at least
    ``first_lsn``: a log opened beside a snapshot passes one past the
    snapshot's applied LSN, so a log that is missing, or ends below that
    mark, never reissues an LSN the snapshot already covers —
    :func:`~repro.reliability.recovery.recover` would skip such a
    record as applied.
    """

    def __init__(self, path: str, first_lsn: int = 0) -> None:
        self.path = path
        # Scan before opening for append: a CorruptSnapshotError here
        # must not leak a handle, and a torn tail must be cut off so the
        # next append starts at a clean record boundary.
        records, _dropped, valid_end = _scan_wal(path)
        self._next_lsn = max(records[-1].lsn + 1 if records else 0, first_lsn)
        if os.path.exists(path) and os.path.getsize(path) > valid_end:
            with open(path, "r+b") as repair:
                repair.truncate(valid_end)
                repair.flush()
                os.fsync(repair.fileno())
        self._handle = open(path, "a")

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will carry."""
        return self._next_lsn

    def append(self, record_type: str, payload: list[Any]) -> int:
        """Frame and durably append one record; returns its LSN."""
        if record_type not in RECORD_TYPES:
            raise ValueError("unknown WAL record type %r" % (record_type,))
        lsn = self._next_lsn
        body = json.dumps([lsn, record_type, payload], separators=(",", ":"))
        self._handle.write(_frame(body))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._next_lsn += 1
        return lsn

    def log_digest(self, epoch_index: int, pairs: Iterable[Sequence[Any]]) -> int:
        """Log one epoch batch: ``[[poi_id, delta, value_after], ...]``."""
        rows = [list(pair) for pair in pairs]
        for poi_id, _delta, _value_after in rows:
            _check_poi_id(poi_id)
        return self.append(RECORD_DIGEST, [int(epoch_index), rows])

    def log_insert(
        self,
        poi_id: Any,
        x: float,
        y: float,
        epoch_aggregates: Mapping[int, int] | None = None,
    ) -> int:
        """Log a POI insertion with its (possibly empty) history."""
        _check_poi_id(poi_id)
        history = sorted(
            (int(epoch), value)
            for epoch, value in (epoch_aggregates or {}).items()
        )
        return self.append(
            RECORD_INSERT,
            [poi_id, float(x), float(y), [[e, v] for e, v in history]],
        )

    def log_delete(self, poi_id: Any) -> int:
        """Log a POI deletion."""
        _check_poi_id(poi_id)
        return self.append(RECORD_DELETE, [poi_id])

    def reset(self, applied_lsn: int | None = None) -> int:
        """Atomically shrink the log to a single ``checkpoint`` marker.

        Called after a checkpoint made every logged record redundant.
        The marker carries the snapshot's ``applied_lsn`` and consumes
        the next LSN, so the sequence keeps increasing across resets —
        the snapshot high-water mark stays comparable with every later
        record.  The replacement goes through :func:`durable_write`:
        a crash at any byte leaves either the full old log (whose
        records replay as no-ops past the snapshot) or the fresh
        marker, never a half-written file.
        """
        marker_lsn = self._next_lsn
        body = json.dumps(
            [marker_lsn, RECORD_CHECKPOINT, [applied_lsn]],
            separators=(",", ":"),
        )
        # Closed first: should the swap fail after the rename, later
        # appends must raise, not land in the unlinked old log.
        self._handle.close()
        with durable_write(self.path) as handle:
            handle.write(_frame(body))
        self._handle = open(self.path, "a")
        self._next_lsn = marker_lsn + 1
        return marker_lsn

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> MutationWAL:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
