"""Reliability subsystem: faults, validation, degradation, recovery.

Production spatio-temporal stores treat integrity verification and
recovery as first-class; this package gives the reproduction the same
footing.  Four cooperating pieces:

* :mod:`repro.reliability.faults` — a deterministic, seedable fault
  injector over the simulated storage layer (TIA reads and
  snapshot I/O) plus file-corruption helpers, so every robustness claim
  is exercised by a test rather than assumed.
* :mod:`repro.reliability.validate` — deep invariant validators for
  the R*-tree structure and the TAR-tree's internal-TIA max-invariant
  (Property 1), returning structured violation reports that survive
  ``python -O``.
* :mod:`repro.reliability.wal` — the typed mutation write-ahead log:
  CRC-framed ``digest`` / ``insert`` / ``delete`` / ``checkpoint``
  records with strictly monotonic LSNs and torn-tail repair; an intact
  line of any other format is refused, never cut off.
* :mod:`repro.reliability.recovery` — :func:`robust_knnta` (bounded
  retry/backoff on transient faults, fallback to the sequential-scan
  baseline on detected corruption) and crash-recoverable streaming
  ingest (:class:`CheckpointedIngest` logging *every* tree mutation
  through the WAL + :func:`recover` replaying it idempotently).
* checksummed persistence lives with the formats in
  :mod:`repro.storage.serialize` (CRC-32 per section,
  :class:`~repro.storage.serialize.CorruptSnapshotError`).
"""

from repro.reliability.faults import (
    FaultInjector,
    FaultyTIA,
    TransientIOError,
    constant,
    decaying,
    first_n,
    flip_bit,
    inject_tree_faults,
    torn_write,
    truncate_file,
)
from repro.reliability.recovery import (
    CheckpointedIngest,
    RecoveryReport,
    RetryPolicy,
    RobustAnswer,
    recover,
    robust_knnta,
)
from repro.reliability.validate import (
    ValidationReport,
    Violation,
    validate_against_dataset,
    validate_tree,
)
from repro.reliability.wal import (
    MUTATION_RECORD_TYPES,
    RECORD_CHECKPOINT,
    RECORD_DELETE,
    RECORD_DIGEST,
    RECORD_INSERT,
    RECORD_TYPES,
    MutationWAL,
    WalRecord,
    read_wal,
)

__all__ = [
    "FaultInjector",
    "FaultyTIA",
    "TransientIOError",
    "constant",
    "decaying",
    "first_n",
    "flip_bit",
    "inject_tree_faults",
    "torn_write",
    "truncate_file",
    "CheckpointedIngest",
    "RecoveryReport",
    "RetryPolicy",
    "RobustAnswer",
    "recover",
    "robust_knnta",
    "ValidationReport",
    "Violation",
    "validate_against_dataset",
    "validate_tree",
    "MUTATION_RECORD_TYPES",
    "RECORD_CHECKPOINT",
    "RECORD_DELETE",
    "RECORD_DIGEST",
    "RECORD_INSERT",
    "RECORD_TYPES",
    "MutationWAL",
    "WalRecord",
    "read_wal",
]
