"""The worker transport: shard endpoints in their own processes.

A :class:`RemoteShard` is the :class:`~repro.cluster.coordinator
.ShardEndpoint` for a shard living in a worker process
(:mod:`repro.cluster.workers`): it holds no tree, only a
:class:`WorkerClient` (one JSON-lines socket), the process handle and
the last state the worker reported.  :class:`RemoteClusterTree` is the
one coordinator, :class:`~repro.cluster.coordinator.ClusterTree`, over
such endpoints, plus what only worker clusters have: spawning from a
manifest (:meth:`RemoteClusterTree.start`), the checkpoint that must
exclude a live reshard, and process facts in ``health()``.

Answers are bit-identical to the single tree's: the cluster-level
normaliser is computed coordinator-side from the merged descriptor
maxima (exactly the single tree's view) and pushed down the wire as
``[d_max, g_max]`` — JSON floats round-trip exactly — and the merge key
``(score, shard index, within-shard rank)`` is the coordinator's one
deterministic tie-break.

Fault semantics are the guard's, reinterpreted over a connection: a
socket timeout is a :class:`~repro.cluster.resilience.ShardCallTimeout`,
a refused/reset/closed connection a :class:`~repro.reliability.faults
.TransientIOError` (retried for reads, never for mutations).  A killed
worker therefore yields an exact answer (when the descriptor bound
certifies it irrelevant), an explicit
:class:`~repro.cluster.resilience.DegradedAnswer`, or a
:class:`~repro.cluster.resilience.ClusterDegradedError` — never a hang;
:meth:`~repro.cluster.coordinator.ClusterTree.recover_shard` respawns
the process (worker startup *is* snapshot + WAL recovery) and
readmits it.  Each :class:`WorkerClient` frames one request/response
pair at a time under its own ``conn`` mutex.
"""

from __future__ import annotations

import json
import socket

# Unused here since the scatter executor moved into the coordinator;
# kept because the benchmark tracer (perfbench/spans.py) patches it.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from typing import Any, Mapping, Sequence, cast

from repro.cluster.coordinator import (
    ClusterStateError,
    ClusterTree,
    Normalizers,
    check_cutover,
)
from repro.cluster.planner import ShardPlan
from repro.cluster.resilience import (
    CALLER,
    CallToken,
    ResilienceConfig,
    ShardCallTimeout,
    ShardDescriptor,
    classify_error,
)
from repro.cluster.state import check_recovered_lsn, open_manifest
from repro.cluster.workers import WorkerHandle
from repro.core.query import KNNTAQuery, Normalizer, QueryResult
from repro.core.tar_tree import POI
from repro.devtools.lockmodel import CONN
from repro.devtools.watchdog import monitored_lock
from repro.reliability.faults import TransientIOError
from repro.service.server import PROTO_VERSION
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import AggregateKind

__all__ = [
    "RemoteClusterTree",
    "RemoteShard",
    "WireProtocolError",
    "WorkerClient",
]


class WireProtocolError(RuntimeError):
    """The peer speaks a different wire-protocol version.

    Classified *fatal* by :func:`~repro.cluster.resilience
    .classify_error` (a RuntimeError): no amount of retrying fixes a
    version skew, so the breaker opens immediately.
    """


class WorkerClient:
    """One framed JSON-lines connection to a shard worker.

    Lazily connects on first :meth:`request` (validating the wire
    protocol via the ``hello`` exchange) and frames exactly one
    request/response pair at a time under the ``conn`` mutex.  Every
    transport-level failure drops the connection — the stream may be
    desynchronised mid-frame — so the next request reconnects cleanly;
    a restarted worker on the same announce file is picked up the same
    way.

    Error mapping (what the guard's classifier sees):

    * socket timeout → :class:`~repro.cluster.resilience
      .ShardCallTimeout` (transient, never retried inline);
    * refused / reset / EOF / undecodable frame →
      :class:`~repro.reliability.faults.TransientIOError`;
    * a ``bad-request`` response → ``ValueError`` (caller error — the
      worker is healthy, the request was wrong);
    * a ``proto-mismatch`` response (either direction) →
      :class:`WireProtocolError` (fatal);
    * any other error response → ``RuntimeError`` (fatal).
    """

    def __init__(
        self,
        host: str,
        port: int,
        index: int = -1,
        connect_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.index = index
        self.connect_timeout = connect_timeout
        #: The worker's ``hello`` payload once connected (descriptor,
        #: applied LSN, world/clock identity, pid).
        self.hello: dict[str, Any] | None = None
        self._lock = monitored_lock(CONN)
        self._sock: socket.socket | None = None
        self._rfile: Any = None

    # -- connection management -----------------------------------------

    def _connect_locked(self, timeout: float | None) -> None:
        budget = timeout if timeout is not None else self.connect_timeout
        sock = socket.create_connection((self.host, self.port), timeout=budget)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self.hello = self._check(self._exchange_locked({"op": "hello"}, budget))

    def _drop_locked(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _abandon(self) -> None:
        with self._lock:
            self._drop_locked()

    def close(self) -> None:
        """Drop the connection (idempotent; the worker keeps running)."""
        self._abandon()

    def connect(self, timeout: float | None = None) -> dict[str, Any]:
        """Connect eagerly; returns the worker's ``hello`` payload.

        That is the handshake's own payload: one ``hello`` exchange on a
        fresh connection, none on an open one.
        """
        return self._call(None, timeout)

    # -- the framed exchange -------------------------------------------

    def _exchange_locked(
        self, payload: dict[str, Any], timeout: float | None
    ) -> dict[str, Any]:
        frame = dict(payload)
        frame.setdefault("proto", PROTO_VERSION)
        sock = self._sock
        if sock is None:
            raise TransientIOError(
                "worker %s:%d connection dropped before the exchange"
                % (self.host, self.port)
            )
        sock.settimeout(timeout)
        sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
        line = self._rfile.readline()
        if not line:
            raise TransientIOError(
                "worker %s:%d closed the connection" % (self.host, self.port)
            )
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise TransientIOError(
                "undecodable frame from worker %s:%d: %s"
                % (self.host, self.port, exc)
            ) from exc
        if not isinstance(response, dict):
            raise TransientIOError(
                "non-object frame from worker %s:%d" % (self.host, self.port)
            )
        return response

    def _check(self, response: dict[str, Any]) -> dict[str, Any]:
        announced = response.get("proto", PROTO_VERSION)
        if announced != PROTO_VERSION or response.get("code") == "proto-mismatch":
            raise WireProtocolError(
                "worker %s:%d speaks wire protocol %r but this coordinator "
                "speaks %r" % (self.host, self.port, announced, PROTO_VERSION)
            )
        if response.get("ok"):
            return response
        code = response.get("code")
        message = str(response.get("error", "unknown worker error"))
        if code == "bad-request":
            raise ValueError(message)
        raise RuntimeError(
            "worker %s:%d error (%s): %s" % (self.host, self.port, code, message)
        )

    def request(
        self, payload: dict[str, Any], timeout: float | None = None
    ) -> dict[str, Any]:
        """Send one request and return its validated response."""
        return self._call(payload, timeout)

    def _call(
        self, payload: dict[str, Any] | None, timeout: float | None
    ) -> dict[str, Any]:
        """Connect if needed, then exchange ``payload`` (``None``: return
        the handshake); every transport failure drops the connection."""
        try:
            with self._lock:
                if self._sock is None:
                    self._connect_locked(timeout)
                if payload is None:
                    return cast("dict[str, Any]", self.hello)
                response = self._exchange_locked(payload, timeout)
        except WireProtocolError:
            self._abandon()
            raise
        except TimeoutError as exc:
            self._abandon()
            raise ShardCallTimeout(
                self.index,
                "worker.%d.request" % self.index,
                "no reply from %s:%d within %rs"
                % (self.host, self.port, timeout),
            ) from exc
        except TransientIOError:
            self._abandon()
            raise
        except OSError as exc:
            self._abandon()
            raise TransientIOError(
                "worker %s:%d connection failed: %s" % (self.host, self.port, exc)
            ) from exc
        return self._check(response)

    def __repr__(self) -> str:
        return "WorkerClient(%s:%d, %s)" % (
            self.host,
            self.port,
            "connected" if self._sock is not None else "idle",
        )


def _wire_query(query: KNNTAQuery, normalizer: Normalizer) -> dict[str, Any]:
    """A query's wire fields, with the cluster normaliser pushed down."""
    return {
        "point": [query.point[0], query.point[1]],
        "interval": [query.interval.start, query.interval.end],
        "k": query.k,
        "alpha0": query.alpha0,
        "semantics": query.semantics.value,
        "normalizer": [normalizer.d_max, normalizer.g_max],
    }


def _wire_stats(response: Mapping[str, Any]) -> AccessStats:
    """A reply's ``stats``: the four raw :class:`AccessStats` counters."""
    stats = AccessStats()
    internal, leaf, pages, hits = response["stats"]
    stats.rtree_internal, stats.rtree_leaf = int(internal), int(leaf)
    stats.tia_pages, stats.tia_buffer_hits = int(pages), int(hits)
    return stats


class RemoteShard:
    """The worker endpoint: one shard process behind a :class:`WorkerClient`.

    Holds no tree — only the connection, the (optional) process handle,
    the last state the worker reported (descriptor, applied LSN, clock
    time; see :meth:`absorb`) and the manifest LSN of the last cluster
    checkpoint (for lag).  ``query`` and ``batch`` replies carry the
    call's node accesses, as the in-process :class:`~repro.cluster
    .coordinator.Shard` returns them.
    """

    __slots__ = (
        "index",
        "region",
        "dirname",
        "client",
        "handle",
        "applied_lsn",
        "current_time",
        "manifest_lsn",
        "descriptor",
        "timeout",
    )

    def __init__(
        self,
        index: int,
        region: Rect,
        dirname: str,
        client: WorkerClient,
        handle: WorkerHandle | None = None,
        manifest_lsn: int | None = None,
    ) -> None:
        self.index = index
        self.region = region
        self.dirname = dirname
        self.client = client
        self.handle = handle
        self.applied_lsn: int | None = None
        self.current_time: float | None = None
        self.manifest_lsn = manifest_lsn
        self.descriptor = ShardDescriptor()
        #: Socket timeout per request; the coordinator installs its
        #: ``request_timeout`` here.
        self.timeout: float | None = 30.0

    def identity(self) -> tuple[Rect, EpochClock, AggregateKind]:
        hello = self.client.hello
        if hello is None:
            raise ValueError(
                "shard worker clients must be connected (hello exchanged) "
                "before constructing the coordinator"
            )
        (lows, highs), (t0, length) = hello["world"], hello["clock"]
        return (
            Rect(tuple(lows), tuple(highs)),
            EpochClock(float(t0), float(length)),
            AggregateKind(hello["aggregate_kind"]),
        )

    def absorb(self, payload: Mapping[str, Any]) -> None:
        """Fold a worker's reported state into this endpoint's cache.

        LSN-monotonic: concurrent responses for one shard may
        interleave, and an older footer must never roll the descriptor
        back over a newer one.
        """
        lsn = payload.get("applied_lsn")
        if self.applied_lsn is not None and lsn is not None and lsn < self.applied_lsn:
            return
        wire = payload.get("descriptor")
        if wire is not None:
            descriptor = self.descriptor
            mbr = wire.get("mbr")
            descriptor.mbr = (
                None if mbr is None else Rect(tuple(mbr[0]), tuple(mbr[1]))
            )
            descriptor.epoch_max = {
                int(epoch): int(value) for epoch, value in wire["epoch_max"]
            }
            descriptor.pois = int(wire["pois"])
            descriptor.fresh = True
        self.applied_lsn = lsn
        time_value = payload.get("current_time")
        if time_value is not None:
            self.current_time = float(time_value)

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        return self.client.request(payload, timeout=self.timeout)

    # -- reads ------------------------------------------------------------

    def query(
        self, token: CallToken, query: KNNTAQuery, normalizer: Normalizer
    ) -> tuple[list[QueryResult], AccessStats]:
        payload = _wire_query(query, normalizer)
        payload["op"] = "query"
        response = self._request(payload)
        return (
            [QueryResult(*row) for row in response["results"]],
            _wire_stats(response),
        )

    def batch(
        self,
        token: CallToken,
        queries: Sequence[KNNTAQuery],
        normalizers: Normalizers,
    ) -> tuple[list[list[QueryResult]], AccessStats]:
        """One ``batch`` frame: the worker runs every rider under a
        single shard read lock (a consistent snapshot)."""
        riders = [
            _wire_query(query, normalizers[(query.interval, query.semantics)])
            for query in queries
        ]
        response = self._request({"op": "batch", "queries": riders})
        return [
            [QueryResult(*row) for row in rows] for rows in response["results"]
        ], _wire_stats(response)

    def contains(self, poi_id: Any) -> bool:
        return bool(self._request({"op": "contains", "poi_id": poi_id}).get("contains"))

    def describe(self) -> ShardDescriptor:
        self.absorb(self._request({"op": "hello"}))
        return self.descriptor

    # -- mutations (through the worker's WAL) -----------------------------

    def _mutate(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.descriptor.fresh = False
        response = self._request(payload)
        self.absorb(response)
        return response

    def insert(
        self, token: CallToken, poi: POI, aggregates: Mapping[int, int] | None
    ) -> int | None:
        response = self._mutate(
            {
                "op": "insert",
                "poi_id": poi.poi_id,
                "point": [poi.point[0], poi.point[1]],
                "aggregates": sorted(
                    (int(epoch), int(value))
                    for epoch, value in (aggregates or {}).items()
                ),
            }
        )
        return cast("int | None", response.get("lsn"))

    def delete(self, token: CallToken, poi_id: Any) -> bool:
        return bool(self._mutate({"op": "delete", "poi_id": poi_id}).get("deleted"))

    def digest(
        self, token: CallToken, epoch_index: int, counts: Mapping[Any, int]
    ) -> None:
        self._mutate(
            {"op": "digest", "epoch": epoch_index, "counts": list(counts.items())}
        )

    # -- maintenance and lifecycle ----------------------------------------

    def scrub(self, budget: int | None) -> int:
        response = self._request({"op": "scrub", "budget": budget})
        return int(response.get("nodes_checked", 0))

    def checkpoint(self) -> int | None:
        lsn = cast("int | None", self._request({"op": "checkpoint"}).get("applied_lsn"))
        self.applied_lsn = self.manifest_lsn = lsn
        return lsn

    def reopen(self, directory: str) -> RemoteShard:
        """Respawn: terminate what is left of the worker, then spawn and
        connect a fresh one over the same shard directory."""
        if self.handle is not None and self.handle.alive:
            self.handle.terminate()
        self.client.close()
        (handle,) = WorkerHandle.spawn([directory])
        client = WorkerClient(handle.host, handle.port, index=self.index)
        try:
            hello = client.connect(timeout=self.timeout)
        except Exception:
            handle.terminate()
            raise
        fresh = RemoteShard(
            self.index, self.region, self.dirname, client, handle, self.manifest_lsn
        )
        fresh.timeout = self.timeout
        fresh.absorb(hello)
        return fresh

    def adopt(self, fresh: RemoteShard, directory: str) -> None:
        """Point this endpoint at the respawned worker (pointer swaps)."""
        check_cutover(self.index, self.applied_lsn, fresh.applied_lsn)
        self.client, self.handle = fresh.client, fresh.handle
        self.descriptor = fresh.descriptor
        self.applied_lsn, self.current_time = fresh.applied_lsn, fresh.current_time

    def close(self) -> None:
        """Shut the worker down (politely, then firmly)."""
        try:
            self.client.request({"op": "shutdown"}, timeout=5.0)
        except Exception:
            pass
        self.client.close()
        if self.handle is not None:
            self.handle.join(timeout=5.0)
            if self.handle.alive:
                self.handle.terminate()

    def __repr__(self) -> str:
        return "RemoteShard(%d, %s, %s:%d)" % (
            self.index,
            self.dirname,
            self.client.host,
            self.client.port,
        )


class RemoteClusterTree(ClusterTree[RemoteShard]):
    """The coordinator over out-of-process shard workers.

    The :class:`~repro.cluster.coordinator.ClusterTree` surface, so a
    :class:`~repro.service.QueryService` serves it unchanged, less the
    in-process tree surface (``poi``, ``poi_ids``, ``poi_tia``, the exact
    normaliser).  Build one with :meth:`start`, which spawns and
    connects one worker process per manifest shard directory.

    ``parallelism`` defaults to the worker count — dispatching shard
    searches concurrently is the entire point of paying the process
    boundary — and 1 degenerates to the deterministic sequential
    best-bound-first walk.
    """

    #: Its own attribute, not just inherited: the benchmark tracer
    #: (perfbench/spans.py) wraps ``RemoteClusterTree.__dict__["query"]``.
    query = ClusterTree.query

    #: Worker queries pay per frame, and the default parallel scatter
    #: already sends every query to every shard, so a batch of any
    #: intervals costs one ``batch`` frame per worker and prunes nothing
    #: a single query would (docs/SERVICE.md, "Micro-batching
    #: semantics").
    coalesce_any_interval = True

    def __init__(
        self,
        plan: ShardPlan,
        shards: Sequence[RemoteShard],
        directory: str,
        name: str = "cluster",
        parallelism: int | None = None,
        resilience: ResilienceConfig | None = None,
        allow_degraded: bool = False,
        request_timeout: float | None = 30.0,
        plan_epoch: int = 0,
        next_dir: int | None = None,
        reshard_policy: Any = None,
    ) -> None:
        super().__init__(
            plan,
            shards,
            parallelism=len(shards) if parallelism is None else parallelism,
            directory=directory,
            name=name,
            resilience=resilience,
            allow_degraded=allow_degraded,
        )
        self.request_timeout = request_timeout
        self.plan_epoch = plan_epoch
        self.next_dir = len(self.shards) if next_dir is None else next_dir
        self.reshard_policy = reshard_policy
        self.reshards = 0
        #: Exclusive-maintenance claim (taken under the counter lock):
        #: a live reshard holds it for its whole Phase A/B span — splits
        #: serialise without holding any lock across the expensive
        #: successor build — and :meth:`checkpoint` claims it too, so a
        #: checkpoint can never compact a source WAL mid-drain.
        self._resharding = False
        for shard in self.shards:
            shard.timeout = request_timeout
            if shard.client.hello is not None:
                shard.absorb(shard.client.hello)

    @classmethod
    def start(
        cls,
        directory: str,
        parallelism: int | None = None,
        resilience: ResilienceConfig | None = None,
        allow_degraded: bool = False,
        request_timeout: float | None = 30.0,
        reshard_policy: Any = None,
        spawn_timeout: float = 30.0,
    ) -> RemoteClusterTree:
        """Spawn one worker per manifest shard and connect to each.

        Reads ``directory``'s cluster manifest (refusing one rolled
        back across a committed reshard, exactly like the in-process
        open), spawns a :class:`~repro.cluster.workers.WorkerHandle`
        per shard state directory in one call — the workers' startups,
        each its own snapshot + WAL recovery, run side by side — and
        verifies every worker recovered to *at least* its manifest LSN.
        Any failure tears down every worker of this start before
        re-raising.
        """
        payload, plan, shard_dirs = open_manifest(directory)
        entries = payload["shards"]
        handles = WorkerHandle.spawn(shard_dirs, timeout=spawn_timeout)
        shards: list[RemoteShard] = []
        try:
            for index, (entry, handle) in enumerate(zip(entries, handles)):
                client = WorkerClient(handle.host, handle.port, index=index)
                shards.append(
                    RemoteShard(
                        index,
                        plan.regions[index],
                        str(entry["dir"]),
                        client,
                        handle,
                        manifest_lsn=entry.get("applied_lsn"),
                    )
                )
                hello = client.connect(timeout=request_timeout)
                check_recovered_lsn(payload, index, hello.get("applied_lsn"))
        except Exception:
            for shard in shards:
                shard.client.close()
            for handle in handles:
                if handle.alive:
                    handle.terminate()
            raise
        return cls(
            plan,
            shards,
            directory=directory,
            name=str(payload.get("name", "cluster")),
            parallelism=parallelism,
            resilience=resilience,
            allow_degraded=allow_degraded,
            request_timeout=request_timeout,
            plan_epoch=int(payload.get("plan_epoch", 0)),
            next_dir=int(payload.get("next_dir", len(entries))),
            reshard_policy=reshard_policy,
        )

    # ------------------------------------------------------------------
    # Worker-only surface
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """The coordinator's running totals, plus ``reshards``."""
        counters = super().counters()
        with self._counter_lock:
            counters["reshards"] = self.reshards
        return counters

    def health(self) -> dict[str, Any]:
        """Per-worker breaker and process state plus recent events.

        Extends the coordinator's shape with ``reshards``, the
        ``plan_epoch`` and, per worker, the process facts: ``dir``,
        ``pid``, ``alive``, ``port``, ``applied_lsn`` and
        ``checkpoint_lag`` (records applied since the manifest's
        checkpoint LSN).
        """
        report = super().health()
        with self._counter_lock:
            report["reshards"] = self.reshards
        report["plan_epoch"] = self.plan_epoch
        return report

    def _shard_health(self, shard: RemoteShard) -> dict[str, object]:
        snapshot = super()._shard_health(shard)
        handle = shard.handle
        snapshot["dir"] = shard.dirname
        snapshot["pid"] = None if handle is None else handle.pid
        snapshot["alive"] = None if handle is None else handle.alive
        snapshot["port"] = shard.client.port
        snapshot["applied_lsn"] = shard.applied_lsn
        snapshot["checkpoint_lag"] = (
            None
            if shard.applied_lsn is None
            else shard.applied_lsn - (shard.manifest_lsn or 0)
        )
        return snapshot

    def checkpoint(self) -> str:
        """Checkpoint every worker and rewrite the cluster manifest.

        Mutually exclusive with a live reshard: both claim the same
        exclusive-maintenance flag, so a checkpoint raises
        :class:`~repro.cluster.coordinator.ClusterStateError` while a
        split is in flight (and vice versa).  The routing write lock
        alone would not be enough — a split's Phase A runs lock-free,
        and a worker checkpoint interleaving there would compact the
        split's source WAL out from under its Phase B drain, silently
        losing the tail.  The body runs under the routing write lock:
        mutations hold the read side, so the per-worker snapshots and
        the manifest LSNs recorded for them form one consistent cluster
        checkpoint.
        """
        with self._counter_lock:
            if self._resharding:
                raise ClusterStateError(
                    "a live reshard is in flight; checkpointing now would "
                    "compact the split's source WAL out from under its drain"
                )
            self._resharding = True
        try:
            with self._routing.write_locked():
                return self._write_checkpoint()
        finally:
            with self._counter_lock:
                self._resharding = False

    def scrub_tick(self, budget: int | None = None) -> int:
        """The coordinator's scrub tick, after a reshard-policy check.

        When a reshard policy is attached, overload triggers a live
        split first (:func:`repro.cluster.reshard.maybe_split`).
        """
        if self.reshard_policy is not None:
            from repro.cluster.reshard import maybe_split

            try:
                maybe_split(self)
            except Exception as exc:
                if classify_error(exc) == CALLER:
                    raise
        return super().scrub_tick(budget)

    def __repr__(self) -> str:
        return "RemoteClusterTree(%d workers, %s plan, epoch %d)" % (
            len(self.shards),
            self.plan.method,
            self.plan_epoch,
        )
