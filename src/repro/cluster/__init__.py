"""Spatially sharded TAR-tree serving (see ``docs/CLUSTER.md``).

``repro.cluster`` splits a dataset into N spatial shards — each a full
:class:`~repro.core.tar_tree.TARTree` with its own write-ahead log —
behind a coordinator that answers :class:`~repro.core.query.KNNTAQuery`
exactly, visiting shards best-bound-first and pruning those that
provably cannot contribute to the top-k (Property 1 of the paper gives
the bound).  The package layers:

* :mod:`~repro.cluster.planner` — partition POIs into routable regions;
* :mod:`~repro.cluster.coordinator` — the one coordinator:
  scatter-gather queries and routed mutations over shard endpoints,
  and the in-process endpoint;
* :mod:`~repro.cluster.resilience` — per-shard fault domains: circuit
  breakers, guarded calls, bounded-degradation answers;
* :mod:`~repro.cluster.state` — the on-disk manifest plus per-shard
  crash recovery;
* :mod:`~repro.cluster.workers` — one shard per *process*: a worker
  owning its shard's tree + WAL + scrubber behind the JSON-lines
  protocol;
* :mod:`~repro.cluster.remote` — the worker endpoint (a socket to one
  worker process) and the coordinator over it;
* :mod:`~repro.cluster.reshard` — live shard splits: drain the WAL
  tail, cut the routing table over, replay into two successors.
"""

from repro.cluster.coordinator import ClusterStateError, ClusterTree, Shard
from repro.cluster.planner import ShardPlan, plan_shards, split_region
from repro.cluster.remote import (
    RemoteClusterTree,
    RemoteShard,
    WireProtocolError,
    WorkerClient,
)
from repro.cluster.reshard import ReshardPolicy, maybe_split, split_shard
from repro.cluster.resilience import (
    CircuitBreaker,
    ClusterDegradedError,
    DegradedAnswer,
    ResilienceConfig,
    ShardCallTimeout,
    ShardDownError,
    ShardFaultError,
    ShardGuard,
    ShardHealthEvent,
)
from repro.cluster.state import (
    ClusterRecoveryReport,
    is_cluster_directory,
    open_cluster,
    recover_cluster,
    save_cluster,
)
from repro.cluster.workers import ShardWorkerServer, WorkerHandle, run_worker

__all__ = [
    "CircuitBreaker",
    "ClusterDegradedError",
    "ClusterRecoveryReport",
    "ClusterStateError",
    "ClusterTree",
    "DegradedAnswer",
    "RemoteClusterTree",
    "RemoteShard",
    "ReshardPolicy",
    "ResilienceConfig",
    "Shard",
    "ShardCallTimeout",
    "ShardDownError",
    "ShardFaultError",
    "ShardGuard",
    "ShardHealthEvent",
    "ShardPlan",
    "ShardWorkerServer",
    "WireProtocolError",
    "WorkerClient",
    "WorkerHandle",
    "is_cluster_directory",
    "maybe_split",
    "open_cluster",
    "plan_shards",
    "recover_cluster",
    "run_worker",
    "save_cluster",
    "split_region",
    "split_shard",
]
