"""JSON-lines-over-TCP front end for :class:`QueryService` (stdlib only).

One request per line, one response per line.  Requests are JSON objects
with an ``"op"`` key; every response carries ``"ok"`` (bool) plus either
the op's payload or ``{"error": ..., "code": ...}``.  Supported ops:

``ping``
    ``{"op": "ping"}`` → ``{"ok": true, "pong": true}``
``hello``
    ``{"op": "hello", "proto": 2}`` → ``{"ok": true, "hello": ...,
    "proto": 2}``.  Every response frame carries ``"proto"`` (the
    server's wire-protocol version); any request may carry one, and a
    mismatch is refused with the stable ``proto-mismatch`` error code
    instead of whatever shape drift would otherwise break first.
``query``
    ``{"op": "query", "point": [x, y], "interval": [lo, hi], "k": 3,
    "alpha0": 0.3, "semantics": "intersects"}`` → ranked ``results``
    rows plus the executing batch's shared ``cost`` and ``batch_size``.
    Optional ``timeout`` seconds.  Every response carries
    ``"degraded"``; a degraded answer (cluster serving with a shard
    down, accepted under the coordinator's ``allow_degraded`` policy)
    additionally reports ``coverage``, ``missed_shards`` and
    ``score_bound`` — see ``docs/SERVICE.md``.  A strict coordinator
    maps the condition to the ``degraded`` error code instead.
``insert``
    ``{"op": "insert", "poi_id": ..., "point": [x, y],
    "aggregates": [[epoch, agg], ...]}``
``delete``
    ``{"op": "delete", "poi_id": ...}`` → ``{"deleted": bool}``
``digest``
    ``{"op": "digest", "epoch": 7, "counts": [[poi_id, count], ...]}``
``stats``
    The :meth:`QueryService.stats` snapshot.
``health``
    The :meth:`QueryService.health` report: per-shard breaker/guard
    state, descriptor freshness, recent shard events.
``scrub``
    Run one scrubber tick (optional ``budget``).
``subscribe``
    ``{"op": "subscribe", "point": [x, y], "window": 3, "k": 5,
    "alpha0": 0.3, "semantics": "intersects"}`` → the subscription id
    plus the initial ranked state (``seq`` 0, every row an ``enter``
    delta).  From then on the *server pushes* one unsolicited frame per
    window advance on the same connection, marked ``"push": "update"``
    and carrying ``subscription``/``seq``/``window``/``results``/
    ``deltas``/``degraded`` (plus ``missed_shards`` /
    ``coverage`` / ``score_bound`` when degraded — a shard-down
    cluster degrades subscriptions explicitly, like one-shot queries).
    Push frames interleave between response lines; clients route on
    the ``push`` key.  Closing the connection unsubscribes everything
    it registered.  Requires a real connection (not a bare
    ``handle_request`` call).
``unsubscribe``
    ``{"op": "unsubscribe", "subscription": 7}`` →
    ``{"unsubscribed": bool}``
``shutdown``
    Stop the server loop (the service itself is closed by the owner).

Aggregates and digest counts ride as ``[key, value]`` pairs, not JSON
objects, so integer epoch indices and POI ids survive the round trip.
Error codes: ``overloaded`` (with ``retry_after``), ``timeout``,
``closed``, ``degraded`` (with ``missed_shards`` / ``coverage`` /
``score_bound``), ``crashed``, ``bad-request``, ``proto-mismatch``
(with the server's ``proto``), ``error``.

Exception hygiene (RT005): internal failures are *redacted* on the
wire — remote clients get a stable message plus the ``error`` code,
while the exception type and text are kept server-side in
``last_error`` / the ``errors`` counter for the operator.
"""

import json
import socketserver
import threading

from repro.core.query import KNNTAQuery
from repro.core.tar_tree import POI
from repro.devtools.lockmodel import PUSH, SERVER_ERROR
from repro.devtools.watchdog import monitored_lock
from repro.service.service import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.temporal.epochs import TimeInterval
from repro.temporal.tia import IntervalSemantics

#: JSON-lines wire-protocol version.  Carried on every response frame
#: (and on worker hello frames, see ``repro.cluster.workers``); a peer
#: announcing a different version is refused with the stable
#: ``proto-mismatch`` code rather than failing on some drifted field.
#: Version 2: worker ``query``/``batch`` replies carry ``stats``.
PROTO_VERSION = 2


def proto_mismatch_response(announced):
    """The stable refusal frame for a peer at a different wire version."""
    return {
        "ok": False,
        "code": "proto-mismatch",
        "proto": PROTO_VERSION,
        "error": "peer speaks wire protocol %r but this end speaks %r"
        % (announced, PROTO_VERSION),
    }


def _parse_query(payload):
    point = payload["point"]
    lo, hi = payload["interval"]
    return KNNTAQuery(
        point=(float(point[0]), float(point[1])),
        interval=TimeInterval(lo, hi),
        k=int(payload.get("k", 10)),
        alpha0=float(payload.get("alpha0", 0.3)),
        semantics=IntervalSemantics(payload.get("semantics", "intersects")),
    )


def _result_rows(rows):
    return [
        {
            "poi_id": row.poi_id,
            "score": row.score,
            "distance": row.distance,
            "aggregate": row.aggregate,
        }
        for row in rows
    ]


class _PushChannel:
    """One connection's outbound line pipe plus its owned subscriptions.

    Response lines and server-push frames share the socket, so every
    write goes through one lock — a push can never interleave bytes
    into the middle of a response line.  Failed writes mark the channel
    closed and are swallowed: the reader side notices the dead socket
    and tears the subscriptions down.
    """

    def __init__(self, wfile):
        self._wfile = wfile
        self._lock = monitored_lock(PUSH)
        #: subscription id -> registry handle, for teardown on close.
        self.subscriptions = {}
        self.closed = False

    def send(self, payload):
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self.closed:
                return False
            try:
                self._wfile.write(data)
                self._wfile.flush()
            except (OSError, ValueError):
                self.closed = True
                return False
        return True


class JsonLineServer:
    """Serve one :class:`QueryService` over a JSON-lines TCP socket.

    ``serve_forever`` blocks; :meth:`start` runs the accept loop on a
    daemon thread for embedding (tests).  Bind with port ``0`` to let
    the OS pick — the effective ``(host, port)`` is in ``address``.
    """

    #: Stable message sent for redacted internal failures; the details
    #: stay server-side (``last_error`` / the ``errors`` counter).
    INTERNAL_ERROR_MESSAGE = "internal server error; details logged server-side"

    def __init__(self, service, host="127.0.0.1", port=0):
        self.service = service
        #: Count of redacted internal failures and the last one's
        #: ``"Type: message"`` (operator-side; never sent on the wire).
        self.errors = 0
        self.last_error = None
        self._error_lock = monitored_lock(SERVER_ERROR)
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self):
                channel = _PushChannel(self.wfile)
                try:
                    for raw in self.rfile:
                        raw = raw.strip()
                        if not raw:
                            continue
                        response = outer.handle_request(raw, channel=channel)
                        channel.send(response)
                        if response.get("bye"):
                            # shutdown() blocks until serve_forever
                            # returns, so it must run off the handler
                            # thread.
                            threading.Thread(
                                target=outer._server.shutdown, daemon=True
                            ).start()
                            return
                finally:
                    outer._close_channel(channel)

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _Handler)
        self.address = self._server.server_address
        self._thread = None

    # ------------------------------------------------------------------

    def handle_request(self, raw, channel=None):
        """Decode one request line and dispatch it; never raises.

        ``channel`` is the caller's :class:`_PushChannel` when the
        request arrived over a real connection; ``subscribe`` needs it
        to deliver push frames and is rejected without one.  Every
        response frame carries the server's ``proto`` version.
        """
        response = self._dispatch(raw, channel)
        response.setdefault("proto", PROTO_VERSION)
        return response

    def _dispatch(self, raw, channel):
        try:
            payload = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
            announced = payload.get("proto", PROTO_VERSION)
            if announced != PROTO_VERSION:
                return proto_mismatch_response(announced)
            op = payload.get("op")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "hello":
                return {"ok": True, "hello": "repro", "proto": PROTO_VERSION}
            if op == "query":
                return self._op_query(payload)
            if op == "subscribe":
                return self._op_subscribe(payload, channel)
            if op == "unsubscribe":
                return self._op_unsubscribe(payload, channel)
            if op == "insert":
                return self._op_insert(payload)
            if op == "delete":
                deleted = self.service.delete(payload["poi_id"])
                return {"ok": True, "deleted": bool(deleted)}
            if op == "digest":
                counts = {poi_id: count for poi_id, count in payload["counts"]}
                self.service.digest(int(payload["epoch"]), counts)
                return {"ok": True, "digested": len(counts)}
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}
            if op == "health":
                return {"ok": True, "health": self.service.health()}
            if op == "scrub":
                checked = self.service.scrub_tick(payload.get("budget"))
                return {"ok": True, "nodes_checked": checked}
            if op == "shutdown":
                return {"ok": True, "bye": True}
            raise ValueError("unknown op %r" % (op,))
        except ServiceOverloadedError as exc:
            return {
                "ok": False,
                "code": "overloaded",
                "error": str(exc),
                "retry_after": exc.retry_after,
            }
        except RequestTimeoutError as exc:
            return {"ok": False, "code": "timeout", "error": str(exc)}
        except WorkerCrashError as exc:
            return {"ok": False, "code": "crashed", "error": str(exc)}
        except ServiceClosedError as exc:
            return {"ok": False, "code": "closed", "error": str(exc)}
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return {"ok": False, "code": "bad-request", "error": str(exc)}
        except Exception as exc:  # keep the connection alive on any failure
            degraded = self._degraded_response(exc)
            if degraded is not None:
                return degraded
            return self._internal_error(exc)

    @staticmethod
    def _degraded_response(exc):
        """Map a strict-policy degradation to its wire error, or None.

        The import is lazy: this module is imported by ``repro.cluster``
        transitively (via the service package), so a top-level import of
        the cluster's resilience types would cycle.
        """
        from repro.cluster.resilience import ClusterDegradedError

        if not isinstance(exc, ClusterDegradedError):
            return None
        return {
            "ok": False,
            "code": "degraded",
            "error": str(exc),
            "missed_shards": list(exc.missed_shards),
            "coverage": exc.coverage,
            "score_bound": exc.score_bound,
        }

    def _internal_error(self, exc):
        """Redact an unexpected failure: stable wire message, details kept
        server-side (RT005 — internal exception text never reaches remote
        clients)."""
        with self._error_lock:
            self.errors += 1
            self.last_error = "%s: %s" % (type(exc).__name__, exc)
        return {
            "ok": False,
            "code": "error",
            "error": self.INTERNAL_ERROR_MESSAGE,
        }

    def _op_query(self, payload):
        query = _parse_query(payload)
        timeout = payload.get("timeout")
        request = self.service.submit(query, timeout=timeout)
        wait = None
        if request.deadline is not None:
            wait = (
                timeout if timeout is not None else self.service.config.default_timeout
            ) + 1.0
        rows = request.result(wait)
        # Every answer satisfies the Answer protocol; the wire keeps the
        # established "degraded" field name for the inverse of `exact`.
        response = {
            "ok": True,
            "results": _result_rows(rows.rows),
            "batch_size": request.batch_size,
            "cost": request.cost.as_dict(),
            "latency": request.latency,
            "degraded": not rows.exact,
        }
        if response["degraded"]:
            response["missed_shards"] = list(rows.missed_shards)
            response["coverage"] = rows.coverage
            response["score_bound"] = rows.score_bound
        return response

    def _op_insert(self, payload):
        point = payload["point"]
        aggregates = {
            int(epoch): value for epoch, value in payload.get("aggregates") or []
        }
        poi = POI(payload["poi_id"], point[0], point[1])
        self.service.insert(poi, aggregates)
        return {"ok": True, "inserted": payload["poi_id"]}

    # -- standing subscriptions ----------------------------------------

    @staticmethod
    def _update_frame(update):
        """The wire shape shared by the initial response and push frames."""
        frame = {
            "subscription": update.subscription_id,
            "seq": update.seq,
            "window": update.window.describe(),
            "results": _result_rows(update.answer.rows),
            "deltas": [delta.describe() for delta in update.deltas],
            "degraded": update.degraded,
        }
        if update.degraded:
            frame["missed_shards"] = list(update.answer.missed_shards)
            frame["coverage"] = update.answer.coverage
            frame["score_bound"] = update.answer.score_bound
        return frame

    def _op_subscribe(self, payload, channel):
        if channel is None:
            raise ValueError(
                "subscribe requires a connection to push updates on"
            )
        point = payload["point"]
        semantics = IntervalSemantics(payload.get("semantics", "intersects"))

        def sink(update, _channel=channel):
            _channel.send(dict(self._update_frame(update), push="update"))

        subscription, initial = self.service.subscribe(
            (float(point[0]), float(point[1])),
            int(payload["window"]),
            k=int(payload.get("k", 10)),
            alpha0=float(payload.get("alpha0", 0.3)),
            semantics=semantics,
            sink=sink,
        )
        channel.subscriptions[subscription.id] = subscription
        response = {"ok": True}
        response.update(self._update_frame(initial))
        return response

    def _op_unsubscribe(self, payload, channel):
        sub_id = payload["subscription"]
        handle = (channel.subscriptions if channel is not None else {}).pop(
            sub_id, None
        )
        if handle is None:
            return {"ok": True, "unsubscribed": False}
        removed = self.service.unsubscribe(handle)
        return {"ok": True, "unsubscribed": bool(removed)}

    def _close_channel(self, channel):
        """Tear down a connection: unsubscribe everything it registered."""
        channel.closed = True
        for handle in list(channel.subscriptions.values()):
            try:
                self.service.unsubscribe(handle)
            except (RuntimeError, ServiceClosedError):
                # Racing a service shutdown: the registry is already
                # closed, so there is nothing left to tear down.
                continue
        channel.subscriptions.clear()

    # ------------------------------------------------------------------

    def start(self):
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-service-tcp", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self):
        self._server.serve_forever()

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
