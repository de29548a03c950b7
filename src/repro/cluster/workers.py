"""Out-of-process shard workers: one shard per process, JSON-lines wire.

A *shard worker* owns everything PR 5/6 gave an in-process shard — the
shard's TAR-tree, its write-ahead log (:class:`~repro.reliability
.recovery.CheckpointedIngest`) and its CRC scrubber — inside its own
process, behind a JSON-lines TCP socket speaking the same framing as
``repro serve`` (one request object per line, one response per line,
every frame carrying the ``proto`` wire version).  The coordinator side
(:class:`~repro.cluster.remote.RemoteClusterTree`) holds only
descriptors and sockets, so shard searches run on real cores instead of
time-slicing one GIL.

Startup *is* recovery: a worker opens its shard directory exactly like
:func:`~repro.reliability.recovery.recover` — snapshot + WAL tail — so
restarting a killed worker is the online-recovery story of PR 6 with a
process boundary around it.

Worker ops (beyond the shared ``hello`` / ``shutdown`` frames):

``query`` / ``batch``
    One ``tree.query`` (or one ``tree.query_batch``, under a single read
    lock) with the *cluster-level* normaliser pushed down as ``[d_max,
    g_max]`` — a shard normalising against its own local maxima would
    break cross-shard score comparability, so the exact constants ride
    the wire (JSON floats round-trip exactly; answers stay
    bit-identical).  The reply carries the call's node accesses as
    ``stats``: the four raw :class:`~repro.storage.stats.AccessStats`
    counters.
``insert`` / ``delete`` / ``digest``
    Routed mutations through the shard WAL under the write lock; every
    response returns the refreshed descriptor (root MBR, per-epoch
    maxima, POI count) so the coordinator's pruning-bound cache stays
    synchronous with the mutation, exactly as in-process refresh does.
``wal_tail``
    The WAL records after a given LSN, read under the write lock — the
    drain half of a live reshard (:mod:`repro.cluster.reshard`).
``contains`` / ``health`` / ``checkpoint`` / ``scrub``
    Ownership probes and the durability/maintenance surface.

The worker announces its bound endpoint by atomically writing
``worker.json`` into its shard directory (spawners poll for it), so
``repro shard-worker`` and :meth:`WorkerHandle.spawn` discover ports
the same way.  ``spawn`` starts every shard's process before it waits
for any announce, so the shards recover side by side.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socketserver
import threading
import time
from multiprocessing.process import BaseProcess
from typing import Any, BinaryIO, Callable, Sequence, TypeVar

from repro.cluster.coordinator import ClusterStateError
from repro.cluster.resilience import ShardDescriptor
from repro.core.query import KNNTAQuery, Normalizer, RankedAnswer
from repro.core.tar_tree import POI
from repro.devtools.lockmodel import SHARD_RW
from repro.reliability.recovery import CheckpointedIngest, recover
from repro.reliability.wal import RECORD_CHECKPOINT, read_wal
from repro.service.locks import ReadWriteLock
from repro.service.server import PROTO_VERSION, proto_mismatch_response
from repro.service.scrubber import Scrubber
from repro.spatial.geometry import Rect
from repro.storage.stats import AccessStats
from repro.temporal.epochs import TimeInterval
from repro.temporal.tia import IntervalSemantics

__all__ = [
    "ANNOUNCE_NAME",
    "ShardWorkerServer",
    "WorkerHandle",
    "run_worker",
]

#: Endpoint-announce file a worker writes into its shard directory.
ANNOUNCE_NAME = "worker.json"

#: Stable redaction for unexpected worker failures (mirrors the
#: service front end: internal text never crosses the wire).
INTERNAL_ERROR_MESSAGE = "internal worker error; details logged worker-side"

#: Exception shapes a malformed payload produces while being parsed.
#: Only the *parse* stage maps these to ``bad-request`` — the same
#: types raised by tree/WAL operations are internal worker bugs and
#: take the redacted internal-error path instead.
_PARSE_ERRORS = (ValueError, KeyError, IndexError, TypeError)

_T = TypeVar("_T")


class _BadRequest(Exception):
    """The request payload is malformed; the worker is healthy."""


def _parsed(parse: Callable[[], _T]) -> _T:
    """Run one op's payload extraction; shape errors → ``bad-request``.

    Keeps the caller-error classification confined to payload parsing:
    a ``KeyError``/``TypeError`` escaping the op's *execution* is a
    worker-side bug and must be redacted, not echoed to the caller.
    """
    try:
        return parse()
    except _PARSE_ERRORS as exc:
        raise _BadRequest(
            "malformed request: %s: %s" % (type(exc).__name__, exc)
        ) from exc


def _parse_query(payload: dict[str, Any]) -> KNNTAQuery:
    point = payload["point"]
    lo, hi = payload["interval"]
    return KNNTAQuery(
        point=(float(point[0]), float(point[1])),
        interval=TimeInterval(lo, hi),
        k=int(payload.get("k", 10)),
        alpha0=float(payload.get("alpha0", 0.3)),
        semantics=IntervalSemantics(payload.get("semantics", "intersects")),
    )


def _parse_normalizer(payload: dict[str, Any]) -> Normalizer:
    # Direct construction, not .create(): the coordinator's exact
    # constants must be used verbatim for bit-identical scores.
    d_max, g_max = payload["normalizer"]
    return Normalizer(float(d_max), float(g_max))


def _parse_batch(
    payload: dict[str, Any],
) -> tuple[list[KNNTAQuery], dict[tuple[TimeInterval, IntervalSemantics], Normalizer]]:
    """A batch's riders and their normaliser per ``(interval, semantics)``."""
    queries: list[KNNTAQuery] = []
    normalizers: dict[tuple[TimeInterval, IntervalSemantics], Normalizer] = {}
    for rider in payload["queries"]:
        query = _parse_query(rider)
        normalizer = _parse_normalizer(rider)
        key = (query.interval, query.semantics)
        if normalizers.setdefault(key, normalizer) != normalizer:
            raise ValueError("riders over one interval carry different normalizers")
        queries.append(query)
    return queries, normalizers


def _rows(answer: RankedAnswer) -> list[list[Any]]:
    """An answer's rows in wire shape."""
    return [[row.poi_id, row.score, row.distance, row.aggregate] for row in answer]


def _rect_pair(rect: Rect) -> list[list[float]]:
    return [list(rect.lows), list(rect.highs)]


def _describe(descriptor: ShardDescriptor) -> dict[str, Any]:
    """The descriptor's wire shape (epoch maxima as pairs, not keys)."""
    return {
        "mbr": None if descriptor.mbr is None else _rect_pair(descriptor.mbr),
        "epoch_max": sorted(descriptor.epoch_max.items()),
        "pois": descriptor.pois,
    }


class ShardWorkerServer:
    """Serve one shard directory over a JSON-lines TCP socket.

    Construction recovers the shard (snapshot + WAL replay), attaches a
    fresh :class:`CheckpointedIngest` riding the same WAL, and binds the
    listener; :meth:`serve_forever` (or :meth:`start` for embedding)
    runs the accept loop.  Port 0 lets the OS pick — the effective
    endpoint is in ``address`` and in the announce file.
    """

    def __init__(self, directory: str, host: str = "127.0.0.1",
                 port: int = 0, name: str = "tree") -> None:
        self.directory = directory
        self.name = name
        report = recover(directory, name=name)
        self.tree = report.tree
        self.ingest = CheckpointedIngest(self.tree, directory, name=name)
        self.lock = ReadWriteLock(SHARD_RW)
        self.descriptor = ShardDescriptor()
        with self.lock.read_locked():
            self.descriptor.refresh(self.tree)
        manifest_path = (
            self.ingest.snapshot_path.rsplit(".json", 1)[0] + ".scrub.json"
        )
        self.scrubber = Scrubber(self.tree, self.lock,
                                 manifest_path=manifest_path)
        self.tree.add_mutation_observer(self.scrubber.observe_mutation)
        self.errors = 0
        self.last_error: str | None = None
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                wfile: BinaryIO = self.wfile
                for raw in self.rfile:
                    raw = raw.strip()
                    if not raw:
                        continue
                    response = outer.handle_request(raw)
                    data = json.dumps(response, sort_keys=True) + "\n"
                    try:
                        wfile.write(data.encode("utf-8"))
                        wfile.flush()
                    except (OSError, ValueError):
                        return
                    if response.get("bye"):
                        threading.Thread(
                            target=outer._server.shutdown, daemon=True
                        ).start()
                        return

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self.address: tuple[str, int] = self._server.server_address[:2]
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def handle_request(self, raw: bytes | str) -> dict[str, Any]:
        """Decode one request line and dispatch it; never raises."""
        response = self._dispatch(raw)
        response.setdefault("proto", PROTO_VERSION)
        return response

    def _dispatch(self, raw: bytes | str) -> dict[str, Any]:
        try:
            payload = _parsed(
                lambda: json.loads(
                    raw.decode("utf-8") if isinstance(raw, bytes) else raw
                )
            )
            if not isinstance(payload, dict):
                raise _BadRequest("request must be a JSON object")
            announced = payload.get("proto", PROTO_VERSION)
            if announced != PROTO_VERSION:
                return proto_mismatch_response(announced)
            op = payload.get("op")
            if op == "hello":
                return self._op_hello()
            if op == "query":
                return self._op_query(payload)
            if op == "batch":
                return self._op_batch(payload)
            if op == "insert":
                return self._op_insert(payload)
            if op == "delete":
                return self._op_delete(payload)
            if op == "digest":
                return self._op_digest(payload)
            if op == "contains":
                poi_id = _parsed(lambda: payload["poi_id"])
                with self.lock.read_locked():
                    return {"ok": True, "contains": poi_id in self.tree}
            if op == "wal_tail":
                return self._op_wal_tail(payload)
            if op == "checkpoint":
                return self._op_checkpoint()
            if op == "scrub":
                checked = self.scrubber.tick(payload.get("budget"))
                return {"ok": True, "nodes_checked": checked}
            if op == "health":
                return self._op_health()
            if op == "shutdown":
                return {"ok": True, "bye": True}
            raise _BadRequest("unknown op %r" % (op,))
        except _BadRequest as exc:
            return {"ok": False, "code": "bad-request", "error": str(exc)}
        except ValueError as exc:
            # Deliberate domain refusals (duplicate POI id, invalid
            # query parameters) — caller errors, worded worker-side.
            return {"ok": False, "code": "bad-request", "error": str(exc)}
        except Exception as exc:  # redact; keep the connection alive
            self.errors += 1
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
            return {"ok": False, "code": "error",
                    "error": INTERNAL_ERROR_MESSAGE}

    # -- read path ------------------------------------------------------

    def _op_hello(self) -> dict[str, Any]:
        with self.lock.read_locked():
            clock = self.tree.clock
            return {
                "ok": True,
                "proto": PROTO_VERSION,
                "pid": os.getpid(),
                "name": self.name,
                "directory": self.directory,
                "applied_lsn": self.tree.applied_lsn,
                "pois": len(self.tree),
                "current_time": self.tree.current_time,
                "world": _rect_pair(self.tree.world),
                "clock": [clock.t0, clock.epoch_length],
                "aggregate_kind": self.tree.aggregate_kind.value,
                "descriptor": _describe(self.descriptor),
            }

    def _op_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        query, normalizer = _parsed(
            lambda: (_parse_query(payload), _parse_normalizer(payload))
        )
        stats = AccessStats()
        with self.lock.read_locked():
            answer = self.tree.query(query, normalizer, stats)
        return {"ok": True, "results": _rows(answer),
                "stats": list(stats.snapshot())}

    def _op_batch(self, payload: dict[str, Any]) -> dict[str, Any]:
        queries, normalizers = _parsed(lambda: _parse_batch(payload))
        stats = AccessStats()
        # All riders under one read lock: a consistent snapshot, exactly
        # like the in-process shard's batch.
        with self.lock.read_locked():
            answers = self.tree.query_batch(queries, normalizers, stats)
        return {"ok": True, "results": [_rows(answer) for answer in answers],
                "stats": list(stats.snapshot())}

    # -- mutations ------------------------------------------------------

    def _mutation_footer(self) -> dict[str, Any]:
        """State every mutation response carries (write lock held)."""
        self.descriptor.refresh(self.tree)
        return {
            "descriptor": _describe(self.descriptor),
            "applied_lsn": self.tree.applied_lsn,
            "pois": len(self.tree),
            "current_time": self.tree.current_time,
        }

    def _op_insert(self, payload: dict[str, Any]) -> dict[str, Any]:
        def parse() -> tuple[POI, dict[int, int]]:
            point = payload["point"]
            aggregates = {
                int(epoch): int(value)
                for epoch, value in payload.get("aggregates") or []
            }
            return POI(payload["poi_id"], point[0], point[1]), aggregates

        poi, aggregates = _parsed(parse)
        with self.lock.write_locked():
            lsn = self.ingest.insert(poi, aggregates or None)
            response = {"ok": True, "lsn": lsn}
            response.update(self._mutation_footer())
            return response

    def _op_delete(self, payload: dict[str, Any]) -> dict[str, Any]:
        poi_id = _parsed(lambda: payload["poi_id"])
        with self.lock.write_locked():
            lsn = self.ingest.delete(poi_id)
            response = {"ok": True, "deleted": lsn is not None, "lsn": lsn}
            response.update(self._mutation_footer())
            return response

    def _op_digest(self, payload: dict[str, Any]) -> dict[str, Any]:
        def parse() -> tuple[int, dict[Any, int]]:
            counts = {poi_id: count for poi_id, count in payload["counts"]}
            return int(payload["epoch"]), counts

        epoch, counts = _parsed(parse)
        with self.lock.write_locked():
            lsn = self.ingest.digest(epoch, counts)
            response = {"ok": True, "digested": len(counts), "lsn": lsn}
            response.update(self._mutation_footer())
            return response

    # -- durability / reshard / maintenance -----------------------------

    def _op_wal_tail(self, payload: dict[str, Any]) -> dict[str, Any]:
        after = payload.get("after")
        if after is not None and (
            isinstance(after, bool) or not isinstance(after, int)
        ):
            raise _BadRequest("wal_tail 'after' must be an integer LSN")
        # Under the *write* lock: no mutation is mid-append, so the tail
        # read here is a complete drain up to a quiescent LSN.  The log
        # path comes from the live ingest (a legacy directory appends to
        # '<name>.digestlog' — reading a hardcoded '.wal' there would
        # silently drain nothing).
        with self.lock.write_locked():
            records, _dropped = read_wal(self.ingest.log_path)
            if after is not None:
                for record in records:
                    if record.type != RECORD_CHECKPOINT:
                        continue
                    marker = record.payload[0] if record.payload else None
                    if marker is not None and marker > after:
                        # A checkpoint compacted (after, marker] out of
                        # the log: the requested tail is non-contiguous
                        # and a drain built on it would lose mutations.
                        return {
                            "ok": False,
                            "code": "wal-tail-gap",
                            "error": "WAL records after LSN %d were "
                            "compacted by a checkpoint at LSN %d; the "
                            "tail is no longer contiguous" % (after, marker),
                        }
            tail = [
                [record.lsn, record.type, record.payload]
                for record in records
                if record.type != RECORD_CHECKPOINT
                and (after is None or record.lsn > after)
            ]
            return {
                "ok": True,
                "records": tail,
                "applied_lsn": self.tree.applied_lsn,
            }

    def _op_checkpoint(self) -> dict[str, Any]:
        with self.lock.write_locked():
            path = self.ingest.checkpoint()
            lsn = self.tree.applied_lsn
        self.scrubber.persist_manifest()
        return {"ok": True, "path": path, "applied_lsn": lsn}

    def _op_health(self) -> dict[str, Any]:
        with self.lock.read_locked():
            return {
                "ok": True,
                "pid": os.getpid(),
                "pois": len(self.tree),
                "applied_lsn": self.tree.applied_lsn,
                "current_time": self.tree.current_time,
                "errors": self.errors,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def announce(self, path: str | None = None) -> str:
        """Atomically write the endpoint-announce file; returns its path."""
        if path is None:
            path = os.path.join(self.directory, ANNOUNCE_NAME)
        payload = {
            "host": self.address[0],
            "port": self.address[1],
            "pid": os.getpid(),
            "proto": PROTO_VERSION,
            "name": self.name,
        }
        temp_path = path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        return path

    def start(self) -> "ShardWorkerServer":
        """Serve on a background daemon thread (embedding/tests)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-shard-worker", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.ingest.close()


def run_worker(directory: str, host: str = "127.0.0.1", port: int = 0,
               name: str = "tree", announce: str | None = None) -> None:
    """Spawn target / CLI entry: recover the shard, announce, serve.

    Module-level so ``multiprocessing``'s spawn start method (the only
    one safe alongside the coordinator's threads) can import it.
    """
    worker = ShardWorkerServer(directory, host=host, port=port, name=name)
    worker.announce(announce)
    worker.serve_forever()


class WorkerHandle:
    """A spawned worker process plus its discovered endpoint."""

    def __init__(self, directory: str, process: BaseProcess,
                 endpoint: dict[str, Any]) -> None:
        self.directory = directory
        self.process = process
        self.endpoint = endpoint
        self.host: str = str(endpoint["host"])
        self.port: int = int(endpoint["port"])

    @classmethod
    def spawn(cls, directories: Sequence[str], host: str = "127.0.0.1",
              name: str = "tree", timeout: float = 30.0) -> list[WorkerHandle]:
        """Start one worker process per shard directory, then wait for
        every endpoint announce under one ``timeout`` deadline.

        All processes start before any is waited for, so their
        recoveries overlap.  A stale announce from a killed predecessor
        is removed first, so each endpoint read is the new process's.
        If a worker dies during startup or misses the deadline, every
        worker this call started is terminated and joined, and a
        :class:`~repro.cluster.coordinator.ClusterStateError` names the
        shard directory.  Returns the handles in ``directories`` order.
        """
        if isinstance(directories, str):
            raise TypeError("spawn takes a sequence of shard directories")
        context = multiprocessing.get_context("spawn")
        started: list[tuple[str, BaseProcess, str]] = []
        endpoints: dict[int, dict[str, Any]] = {}
        try:
            for directory in directories:
                announce_path = os.path.join(directory, ANNOUNCE_NAME)
                try:
                    os.remove(announce_path)
                except FileNotFoundError:
                    pass
                process = context.Process(
                    target=run_worker,
                    args=(directory, host, 0, name, announce_path),
                    daemon=True,
                )
                process.start()
                started.append((directory, process, announce_path))
            deadline = time.monotonic() + timeout
            while len(endpoints) < len(started):
                time.sleep(0.01)
                for slot, (directory, process, announce_path) in enumerate(started):
                    if slot in endpoints:
                        continue
                    try:
                        with open(announce_path, "r", encoding="utf-8") as handle:
                            endpoints[slot] = json.load(handle)
                        continue
                    except (FileNotFoundError, ValueError):
                        pass
                    if not process.is_alive():
                        raise ClusterStateError(
                            "shard worker for %s died during startup (exit code %r)"
                            % (directory, process.exitcode)
                        )
                    if time.monotonic() > deadline:
                        raise ClusterStateError(
                            "shard worker for %s did not announce within %.1fs"
                            % (directory, timeout)
                        )
        except BaseException:
            for _directory, process, _announce in started:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10.0)
            raise
        return [
            cls(directory, process, endpoints[slot])
            for slot, (directory, process, _announce) in enumerate(started)
        ]

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (chaos: no cleanup, no WAL flush)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def terminate(self) -> None:
        self.process.terminate()
        self.process.join(timeout=10.0)

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout)
