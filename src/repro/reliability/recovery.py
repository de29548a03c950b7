"""Graceful degradation and crash recovery.

Two halves:

* **Robust querying** — :func:`robust_knnta` answers a kNNTA query
  under the fault model of :mod:`repro.reliability.faults`: TIA reads
  that raise :class:`~repro.reliability.faults.TransientIOError` are
  retried with bounded exponential backoff, and when the index itself
  is damaged (persistent faults, or corruption detected by
  :mod:`repro.reliability.validate`) the query degrades to the exact
  :func:`~repro.core.scan.sequential_scan` baseline over the leaf TIAs
  — slower, never wrong.

* **Crash-recoverable streaming ingest** — :class:`CheckpointedIngest`
  pairs a checksummed tree snapshot with the typed, append-only
  mutation WAL of :mod:`repro.reliability.wal`.  *Every* logical
  mutation — ``insert_poi``, ``delete_poi`` and ``digest_epoch`` — is
  logged (write-ahead, through the tree's mutation-listener hooks)
  before it is applied, so :func:`recover` can rebuild a tree killed
  mid-mutation: load the snapshot, replay the WAL idempotently past
  the snapshot's applied-LSN high-water mark, drop a torn tail, and
  optionally reconcile against the source data set via
  :func:`repro.datasets.streaming.catch_up` — reaching a state exactly
  consistent with the stream.
"""

import os
import time

from repro.reliability.faults import TransientIOError
from repro.reliability.validate import validate_tree
from repro.reliability.wal import (
    RECORD_CHECKPOINT,
    RECORD_DELETE,
    RECORD_DIGEST,
    RECORD_INSERT,
    MutationWAL,
    durable_write,
    read_wal,
)
from repro.storage.serialize import (
    UnsupportedSnapshotError,
    load_tree,
    save_tree,
)
from repro.temporal.tia import AggregateKind, IntervalSemantics

_DEFAULT_SLEEP = object()


class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    ``run(operation)`` retries ``operation`` up to ``max_retries`` times
    on :class:`TransientIOError`, sleeping ``backoff * factor**i``
    (capped at ``max_backoff``) between attempts.  ``sleep=None``
    disables sleeping (tests); ``retries_used`` accumulates across
    calls so a whole query's retry budget is observable.
    """

    def __init__(
        self,
        max_retries=8,
        backoff=0.001,
        factor=2.0,
        max_backoff=0.05,
        sleep=_DEFAULT_SLEEP,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0, got %r" % (max_retries,))
        self.max_retries = max_retries
        self.backoff = backoff
        self.factor = factor
        self.max_backoff = max_backoff
        self._sleep = time.sleep if sleep is _DEFAULT_SLEEP else sleep
        self.retries_used = 0

    def run(self, operation):
        """Call ``operation`` until it succeeds or the budget is spent."""
        delay = self.backoff
        attempt = 0
        while True:
            try:
                return operation()
            except TransientIOError:
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                self.retries_used += 1
                if self._sleep is not None and delay > 0:
                    self._sleep(min(delay, self.max_backoff))
                delay *= self.factor


class _RetryingTree:
    """A duck-typed TAR-tree view whose TIA reads retry transient faults.

    Only the aggregate-reading entry points are intercepted; every other
    attribute resolves on the wrapped tree, so the BFS and the scan run
    unchanged on top of it.

    ``frames`` is pinned to ``None`` (a class attribute, so
    ``__getattr__`` never fires for it): the packed frames would answer
    aggregates from cached buffers, bypassing the very TIA reads this
    view exists to retry.
    """

    frames = None

    def __init__(self, tree, policy):
        self._tree = tree
        self._policy = policy

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def tia_aggregate(self, tia, interval, semantics=IntervalSemantics.INTERSECTS):
        return self._policy.run(
            lambda: self._tree.tia_aggregate(tia, interval, semantics)
        )

    def normalizer(self, interval, semantics=IntervalSemantics.INTERSECTS,
                   exact=False):
        return self._policy.run(
            lambda: self._tree.normalizer(interval, semantics, exact)
        )


class RobustAnswer:
    """Result of :func:`robust_knnta` plus how it was obtained.

    ``results`` is the ranked :class:`~repro.core.query.QueryResult`
    list a plain ``knnta_search`` would return, and the answer itself
    behaves as that sequence (``iter``, ``len``, indexing and slicing),
    so callers destructure a :class:`RobustAnswer` exactly like the
    plain result rows.  ``used_fallback`` tells whether the sequential
    scan answered instead of the BFS, ``reason`` why (``"corruption"``
    or ``"transient-faults"``), and ``retries`` how many transient
    faults were absorbed along the way.

    Satisfies the :class:`~repro.core.query.Answer` protocol: whichever
    path answered — BFS or scan fallback — the rows are exact (the
    fallback is the exact baseline, slower but never wrong), so
    ``exact`` is ``True`` and ``coverage`` 1.0.
    """

    __slots__ = ("results", "used_fallback", "reason", "retries", "validation")

    exact = True
    coverage = 1.0
    score_bound = None
    missed_shards = ()

    @property
    def rows(self):
        return self.results

    def __init__(self, results, used_fallback=False, reason=None, retries=0,
                 validation=None):
        self.results = results
        self.used_fallback = used_fallback
        self.reason = reason
        self.retries = retries
        self.validation = validation

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self):
        return "RobustAnswer(%d results, used_fallback=%r, reason=%r, retries=%d)" % (
            len(self.results),
            self.used_fallback,
            self.reason,
            self.retries,
        )


def robust_knnta(tree, query, normalizer=None, retry=None, validate=False,
                 fallback=True):
    """Answer ``query`` on ``tree``, degrading gracefully under faults.

    Transient TIA faults are retried per read under ``retry`` (a
    :class:`RetryPolicy`; one with defaults is created when omitted).
    With ``validate=True`` the deep invariant validators run first and a
    damaged tree is answered by the scan baseline over the leaf TIAs
    (with an exact normaliser), which stays correct when internal TIAs
    lie.  When the retry budget is exhausted and ``fallback`` is true,
    the scan baseline — itself retried — answers instead; with
    ``fallback=False`` the fault propagates.

    Returns a :class:`RobustAnswer`; its ``results`` equal the
    fault-free ``knnta_search`` output whenever the BFS path succeeds.
    """
    from repro.core.knnta import knnta_search
    from repro.core.scan import sequential_scan

    if retry is None:
        retry = RetryPolicy()
    view = _RetryingTree(tree, retry)
    report = None
    if validate:
        report = validate_tree(tree)
        if not report.ok:
            scan_normalizer = normalizer
            if scan_normalizer is None:
                scan_normalizer = view.normalizer(
                    query.interval, query.semantics, exact=True
                )
            results = sequential_scan(view, query, normalizer=scan_normalizer)
            return RobustAnswer(
                results,
                used_fallback=True,
                reason="corruption",
                retries=retry.retries_used,
                validation=report,
            )
    try:
        results = knnta_search(view, query, normalizer=normalizer)
        return RobustAnswer(
            results, retries=retry.retries_used, validation=report
        )
    except TransientIOError:
        if not fallback:
            raise
    results = sequential_scan(view, query, normalizer=normalizer)
    return RobustAnswer(
        results,
        used_fallback=True,
        reason="transient-faults",
        retries=retry.retries_used,
        validation=report,
    )


# ---------------------------------------------------------------------------
# Checkpointed ingest over the mutation WAL
# ---------------------------------------------------------------------------


def _wal_path(directory, name):
    """The mutation WAL path for ``<directory>/<name>``: ``<name>.wal``.

    A directory holding ``<name>.digestlog`` — the digest-only log that
    preceded the typed WAL — raises :class:`UnsupportedSnapshotError`:
    this build reads no such log, and starting a fresh ``<name>.wal``
    beside it would silently drop every mutation it holds.
    """
    legacy = os.path.join(directory, name + ".digestlog")
    if os.path.exists(legacy):
        raise UnsupportedSnapshotError(
            "%s is a digest-only log, the format before the typed mutation "
            "WAL; this build does not read it" % legacy
        )
    return os.path.join(directory, name + ".wal")


class CheckpointedIngest:
    """Streaming ingest with write-ahead logging and checkpoints.

    Wraps a live tree and attaches itself as the tree's *mutation
    listener*, so every logical mutation — ``insert_poi``,
    ``delete_poi`` and ``digest_epoch``, whether issued through the
    convenience methods here or directly on the tree — is framed into
    the mutation WAL *before* any tree state changes.
    :meth:`checkpoint` atomically persists a checksummed snapshot
    (through :func:`~repro.reliability.wal.durable_write`) carrying the
    tree's applied-LSN high-water mark, then resets the log to a single
    checkpoint marker.

    Mutations the WAL cannot express (``bulk_load``,
    ``refresh_aggregate_dimension``) raise
    :class:`~repro.core.tar_tree.UnloggedMutationError` while the tree
    is wrapped, instead of silently diverging from the log; detach by
    calling :meth:`close`.

    ``directory`` receives ``<name>.json`` (the snapshot) and
    ``<name>.wal`` (the log).  A snapshot is written on construction
    when none exists, so :func:`recover` always has a base state.  A
    directory holding state of a format this build does not read raises
    :class:`UnsupportedSnapshotError` before any file is created or
    changed.
    """

    def __init__(self, tree, directory, name="tree"):
        self.tree = tree
        self.directory = directory
        self.name = name
        self.log_path = _wal_path(directory, name)
        os.makedirs(directory, exist_ok=True)
        self.snapshot_path = os.path.join(directory, name + ".json")
        #: Where a scrubber over this tree keeps its leaf-CRC manifest
        #: (:class:`~repro.service.scrubber.Scrubber`).
        self.scrub_manifest_path = os.path.join(directory, name + ".scrub.json")
        applied = tree.applied_lsn
        self.log = MutationWAL(
            self.log_path, first_lsn=0 if applied is None else applied + 1
        )
        self._last_logged_lsn = None
        try:
            tree.attach_mutation_listener(self)
        except ValueError:
            # The only attach failure: the tree already has a different
            # live listener.  Release the WAL handle before propagating
            # so the failed construction leaks no open file.
            self.log.close()
            raise
        if not os.path.exists(self.snapshot_path):
            self._write_snapshot()

    def _write_snapshot(self):
        # Durable on return: checkpoint() resets the WAL right after
        # this, so a power loss must not leave a bare marker over a
        # vanished snapshot.
        save_tree(self.tree, self.snapshot_path,
                  opener=lambda path, _mode: durable_write(path))

    # ------------------------------------------------------------------
    # Mutation-listener hooks (called by the tree, write-ahead)
    # ------------------------------------------------------------------

    def will_insert_poi(self, tree, poi, epoch_aggregates):
        """Log a validated insertion just before the tree applies it."""
        lsn = self.log.log_insert(poi.poi_id, poi.x, poi.y, epoch_aggregates)
        tree.applied_lsn = lsn
        self._last_logged_lsn = lsn

    def will_delete_poi(self, tree, poi_id):
        """Log a deletion of an indexed POI before it happens."""
        lsn = self.log.log_delete(poi_id)
        tree.applied_lsn = lsn
        self._last_logged_lsn = lsn

    def will_digest_epoch(self, tree, epoch_index, counts):
        """Log one epoch batch, with the absolute value each TIA must
        reach, before any TIA changes.

        Unknown POIs are rejected *here*, before the record is written
        and before ``digest_epoch`` touches any state, so a bad batch
        can neither half-apply nor poison the log.  Batches whose every
        count is non-positive still log (with an empty pair list):
        ``digest_epoch`` advances the tree's clock even then, and replay
        must reproduce that.
        """
        is_max = tree.aggregate_kind is AggregateKind.MAX
        pairs = []
        for poi_id in sorted(counts, key=lambda poi: (str(type(poi)), str(poi))):
            delta = counts[poi_id]
            if delta <= 0:
                continue
            if poi_id not in tree:
                raise KeyError(
                    "cannot digest check-ins for unknown POI %r" % (poi_id,)
                )
            current = tree.poi_tia(poi_id).get(epoch_index)
            value_after = max(current, delta) if is_max else current + delta
            pairs.append([poi_id, delta, value_after])
        lsn = self.log.log_digest(epoch_index, pairs)
        tree.applied_lsn = lsn
        self._last_logged_lsn = lsn

    # ------------------------------------------------------------------
    # Ingest API
    # ------------------------------------------------------------------

    def digest(self, epoch_index, counts):
        """Log, then apply, one epoch's check-in batch (Section 4.2).

        Returns the batch's LSN, or ``None`` when every count was
        non-positive — such a batch is dropped whole (neither logged
        nor applied, and the clock does not advance).
        """
        if not any(delta > 0 for delta in counts.values()):
            return None
        self.tree.digest_epoch(epoch_index, counts)
        return self._last_logged_lsn

    def insert(self, poi, epoch_aggregates=None):
        """Log, then apply, one POI insertion; returns its LSN."""
        self.tree.insert_poi(poi, epoch_aggregates)
        return self._last_logged_lsn

    def delete(self, poi_id):
        """Log, then apply, one POI deletion.

        Returns the record's LSN, or ``None`` when ``poi_id`` was not
        indexed — a miss is not a mutation and is never logged.
        """
        if self.tree.delete_poi(poi_id):
            return self._last_logged_lsn
        return None

    def checkpoint(self):
        """Persist the tree atomically and reset the log.

        Snapshot first, reset second: a crash between the two leaves a
        log whose records all sit at or below the snapshot's applied-LSN
        high-water mark, so :func:`recover` replays them as no-ops.
        """
        self._write_snapshot()
        self.log.reset(self.tree.applied_lsn)
        return self.snapshot_path

    def close(self):
        """Detach from the tree and close the log.

        The tree becomes freely mutable again (and the WAL stops being
        its source of truth) — take a checkpoint first if the log must
        stay replayable.
        """
        self.tree.detach_mutation_listener(self)
        self.log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class RecoveryReport:
    """What :func:`recover` did: the tree plus replay/reconcile counters.

    ``replayed`` maps each mutation record type (``"insert"``,
    ``"delete"``, ``"digest"``) to the number of records whose replay
    changed tree state; ``last_lsn`` is the applied-LSN high-water mark
    after replay (``None`` when neither the snapshot nor the log held
    one).
    ``caught_up_checkins`` is the number of check-ins reconciled from
    the source data set, ``0`` when no reconciliation was needed, or
    ``None`` when it was requested but *skipped* — a max-aggregate tree
    cannot be reconciled by :func:`~repro.datasets.streaming.catch_up`,
    so a batch whose log record was torn away may remain unrecovered.
    """

    __slots__ = (
        "tree",
        "replayed",
        "dropped_tail_records",
        "skipped_pois",
        "caught_up_checkins",
        "last_lsn",
    )

    def __init__(self, tree, replayed, dropped_tail_records,
                 skipped_pois, caught_up_checkins, last_lsn):
        self.tree = tree
        self.replayed = replayed
        self.dropped_tail_records = dropped_tail_records
        self.skipped_pois = skipped_pois
        self.caught_up_checkins = caught_up_checkins
        self.last_lsn = last_lsn

    def summary(self):
        """One-line description of the recovery outcome."""
        if self.caught_up_checkins is None:
            caught_up = (
                "data-set reconciliation skipped (max-aggregate tree)"
            )
        else:
            caught_up = (
                "%d check-in(s) caught up from the data set"
                % self.caught_up_checkins
            )
        return (
            "recovered %d POIs at LSN %s: %d insert(s), %d delete(s) and "
            "%d epoch batch(es) replayed, %d torn log record(s) dropped, "
            "%d unknown POI entr(ies) skipped, %s"
            % (
                len(self.tree),
                self.last_lsn,
                self.replayed[RECORD_INSERT],
                self.replayed[RECORD_DELETE],
                self.replayed[RECORD_DIGEST],
                self.dropped_tail_records,
                self.skipped_pois,
                caught_up,
            )
        )

    def __repr__(self):
        return "RecoveryReport(%s)" % self.summary()


def recover(directory, name="tree", dataset=None, stats=None, **overrides):
    """Rebuild a :class:`CheckpointedIngest` state after a crash.

    Loads the checksummed snapshot and replays the mutation WAL
    idempotently: records at or below the snapshot's applied-LSN
    high-water mark are skipped outright, an ``insert`` of an
    already-present POI and a ``delete`` of an absent one are no-ops,
    each ``digest`` record raises TIAs to its recorded absolute values
    (so half-applied batches are harmless), a torn tail is dropped, and
    ``checkpoint`` markers are ignored.  When the source ``dataset`` is
    given, :func:`repro.datasets.streaming.catch_up` then reconciles the
    tree with the stream, covering any batch whose log record was lost
    with the crash.  Returns a :class:`RecoveryReport`.  State of a
    format this build does not read — a ``<name>.digestlog``, or an
    intact WAL line that is no known record — raises
    :class:`UnsupportedSnapshotError`.

    For a *max*-aggregate tree ``catch_up`` cannot reconcile (epochs are
    peaks, not additive counts), so the data-set pass is skipped and the
    report's ``caught_up_checkins`` is ``None``: a batch torn away with
    the crash stays unrecovered, and callers must not assume exact
    consistency beyond the last intact log record.
    """
    from repro.core.tar_tree import POI

    snapshot_path = os.path.join(directory, name + ".json")
    log_path = _wal_path(directory, name)
    tree = load_tree(snapshot_path, stats=stats, **overrides)
    records, dropped = read_wal(log_path)
    is_max = tree.aggregate_kind is AggregateKind.MAX
    replayed = {RECORD_INSERT: 0, RECORD_DELETE: 0, RECORD_DIGEST: 0}
    skipped = 0
    applied = tree.applied_lsn
    for record in records:
        if record.type == RECORD_CHECKPOINT:
            continue  # marker only; never advances the high-water mark
        if applied is not None and record.lsn <= applied:
            continue  # already contained in the snapshot
        if record.type == RECORD_INSERT:
            poi_id, x, y, history = record.payload
            if poi_id not in tree:
                aggregates = {int(epoch): value for epoch, value in history}
                tree.insert_poi(POI(poi_id, x, y), aggregates or None)
                replayed[RECORD_INSERT] += 1
        elif record.type == RECORD_DELETE:
            (poi_id,) = record.payload
            if tree.delete_poi(poi_id):
                replayed[RECORD_DELETE] += 1
        else:
            epoch_index, pairs = record.payload
            deltas = {}
            for poi_id, _delta, value_after in pairs:
                if poi_id not in tree:
                    skipped += 1
                    continue
                current = tree.poi_tia(poi_id).get(epoch_index)
                if value_after > current:
                    deltas[poi_id] = (
                        value_after if is_max else value_after - current
                    )
            if deltas:
                replayed[RECORD_DIGEST] += 1
            # Replay even an empty batch: digest_epoch advances the
            # clock, and the original run's record did exactly that.
            tree.digest_epoch(epoch_index, deltas)
        tree.applied_lsn = record.lsn
    caught_up = 0
    if dataset is not None:
        # Imported only here: the data set layer brings numpy, which a
        # recovery without a data set (every shard worker's) never needs.
        from repro.datasets.streaming import catch_up

        # catch_up() raises for MAX trees; record the skip instead of
        # silently reporting "0 caught up" as if reconciliation ran.
        caught_up = None if is_max else catch_up(tree, dataset)
    return RecoveryReport(
        tree, replayed, dropped, skipped, caught_up, tree.applied_lsn
    )
