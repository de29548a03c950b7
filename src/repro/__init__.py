"""repro — a reproduction of "K-Nearest Neighbor Temporal Aggregate Queries".

The library implements the TAR-tree index, the kNNTA query, the paper's
cost model and its two query enhancements (minimum weight adjustment and
collective processing), together with every substrate they rest on: an
R*-tree, temporal indexes on the aggregate, a disk/buffer simulation,
skyline algorithms, discrete power-law fitting, and synthetic LBSN data
generators calibrated to the paper's data sets.

Quickstart::

    from repro import datasets, KNNTAQuery, TARTree, TimeInterval

    data = datasets.make("NYC", scale=0.05, seed=7)
    tree = TARTree.build(data)
    query = KNNTAQuery((0.4, 0.6), TimeInterval(0, 28), k=10, alpha0=0.3)
    results = tree.query(query)

One :class:`~repro.core.query.KNNTAQuery` value serves every entry
point — ``tree.query``, its batch form ``tree.query_batch``, the
fault-tolerant ``tree.robust_query``, the module-level
:func:`knnta_search` / :func:`sequential_scan` / :func:`robust_knnta`,
and the enhancement APIs — and every answer they return satisfies the
:class:`~repro.core.query.Answer` protocol (``rows`` / ``exact`` /
``coverage`` / ``score_bound``) while its rows destructure like
:class:`~repro.core.query.QueryResult`.

Queries run on packed per-node buffers (:mod:`repro.core.frames`) kept
coherent by per-node mutation stamps; answers are bit-identical to the
object-path traversal, just faster.

For concurrent serving, :class:`~repro.service.QueryService` wraps a
tree behind collective micro-batching, a readers-writer lock and a
background integrity scrubber (``python -m repro serve`` exposes it
over TCP).  To scale past one tree, :mod:`repro.cluster` shards the
dataset spatially behind a :class:`~repro.cluster.ClusterTree`
coordinator with the same query surface (``python -m repro shard`` /
``serve --cluster``).

Standing queries live in :mod:`repro.continuous`: a
:class:`~repro.continuous.SubscriptionRegistry` re-runs each sliding-
window kNNTA subscription's one-shot query as epochs are digested and
pushes ordered top-k deltas (``python -m repro watch``; see
``docs/CONTINUOUS.md``).
"""

__version__ = "0.3.0"

from repro.cluster import (
    ClusterDegradedError,
    ClusterStateError,
    ClusterTree,
    DegradedAnswer,
    ResilienceConfig,
    ShardPlan,
    open_cluster,
    plan_shards,
    recover_cluster,
    save_cluster,
)
from repro.continuous import (
    DeltaKind,
    SubscriptionRegistry,
    TopKDelta,
    WindowState,
    WindowUpdate,
    window_state,
)
from repro.core.collective import CollectiveProcessor
from repro.core.costmodel import CostModel
from repro.core.knnta import knnta_browse, knnta_search
from repro.core.mwa import minimum_weight_adjustment, weight_adjustment_sequence
from repro.core.query import Answer, KNNTAQuery, QueryResult, RankedAnswer
from repro.core.scan import sequential_scan
from repro.core.tar_tree import POI, TARTree, UnloggedMutationError
from repro.reliability.faults import FaultInjector, TransientIOError
from repro.reliability.recovery import (
    CheckpointedIngest,
    RecoveryReport,
    RetryPolicy,
    RobustAnswer,
    recover,
    robust_knnta,
)
from repro.reliability.validate import validate_against_dataset, validate_tree
from repro.reliability.wal import MutationWAL, WalRecord, read_wal
from repro.service import (
    QueryService,
    RequestTimeoutError,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceStats,
)
from repro.storage.serialize import CorruptSnapshotError
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock, TimeInterval, VariedEpochClock
from repro.temporal.tia import AggregateKind, IntervalSemantics

__all__ = [
    "TARTree",
    "POI",
    "KNNTAQuery",
    "QueryResult",
    "Answer",
    "RankedAnswer",
    "TimeInterval",
    "EpochClock",
    "VariedEpochClock",
    "IntervalSemantics",
    "AggregateKind",
    "AccessStats",
    "CostModel",
    "CollectiveProcessor",
    "knnta_search",
    "knnta_browse",
    "sequential_scan",
    "minimum_weight_adjustment",
    "weight_adjustment_sequence",
    "FaultInjector",
    "TransientIOError",
    "RetryPolicy",
    "CheckpointedIngest",
    "MutationWAL",
    "WalRecord",
    "read_wal",
    "recover",
    "RecoveryReport",
    "RobustAnswer",
    "robust_knnta",
    "UnloggedMutationError",
    "QueryService",
    "SubscriptionRegistry",
    "WindowUpdate",
    "WindowState",
    "window_state",
    "TopKDelta",
    "DeltaKind",
    "ServiceConfig",
    "ServiceStats",
    "ServiceOverloadedError",
    "RequestTimeoutError",
    "validate_tree",
    "validate_against_dataset",
    "CorruptSnapshotError",
    "ClusterTree",
    "ClusterStateError",
    "ClusterDegradedError",
    "DegradedAnswer",
    "ResilienceConfig",
    "ShardPlan",
    "plan_shards",
    "save_cluster",
    "open_cluster",
    "recover_cluster",
    "__version__",
]
