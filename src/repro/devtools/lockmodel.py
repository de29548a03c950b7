"""The canonical lock model: one declaration of every engine lock.

This is the single place the repository's lock hierarchy is written
down.  Everything else derives from it: the RT008/RT009/RT010 rules
(:mod:`repro.devtools.rules`), the runtime
:class:`~repro.devtools.watchdog.LockOrderWatchdog`, the
``repro lint --lock-graph`` artifact, and the table in
``docs/DEVTOOLS.md``.

Hierarchy
---------
Ranks ascend from outermost to innermost: a thread holding a lock may
only acquire locks of strictly greater rank.  The order below is the
ISSUE's canonical chain (service RW → shard → breaker → registry →
push) with the fan-out gate above it and the leaf locks below:

==================  ====  =========================================
lock                rank  guards
==================  ====  =========================================
``advance-gate``    0     subscription fan-out rounds (serialises
                          evaluate→deliver end-to-end; protects no
                          engine state, so foreign callbacks may run
                          under it — the one lock with that licence)
``service-rw``      10    the service's tree (readers/writer)
``recovery``        20    online shard-recovery cutover
``routing``         25    the coordinator's routing table — shard
                          plan + shard list + guards vs a live
                          reshard cutover (readers/writer; the write
                          side drains and replays WAL tails over
                          sockets and fsyncs the committing manifest,
                          hence the socket/wal/fsync allowances)
``shard-rw``        30    one shard's tree (readers/writer)
``breaker``         40    circuit-breaker + guard counters
``registry``        50    subscription-registry state
``push``            60    one server push channel (terminal: the
                          socket write itself happens under it, by
                          design — nothing may be acquired inside)
``conn``            65    one coordinator->worker connection (frames
                          one request/response pair onto the wire;
                          socket I/O happens under it by design)
``queue-cond``      70    the service's request queue
``counter``         80    coordinator counters
``stats``           85    service stats counters
``server-error``    86    server error counters
``rw-cond``         90    ReadWriteLock internals
``watchdog``        95    the lock-order watchdog's own edge set
                          (the witness watches everything, so its
                          lock must be the innermost leaf)
==================  ====  =========================================

Blocking allowances (RT009)
---------------------------
The documented WAL-before-apply contract *requires* the WAL append and
fsync to happen under the exclusive lock — that is what makes crash
recovery exact — so calls into :mod:`repro.reliability` and
:mod:`repro.storage` are exempt from the no-blocking-under-lock rule.
The push lock additionally allows socket writes: it exists to frame
one message at a time onto the wire, and nothing else may ever be
acquired under it.
"""

from __future__ import annotations

import ast

__all__ = [
    "ADVANCE_GATE",
    "BLOCKING_ALLOWED_MODULES",
    "BREAKER",
    "CONN",
    "COUNTER",
    "HIERARCHY",
    "LOCKS",
    "LockDecl",
    "PUSH",
    "QUEUE_COND",
    "RANK",
    "RECOVERY",
    "REGISTRY",
    "ROUTING",
    "RW_COND",
    "SERVER_ERROR",
    "SERVICE_RW",
    "SHARD_RW",
    "STATS",
    "WATCHDOG",
    "classify_site",
    "render_graph_dot",
    "render_graph_json",
]

from repro.devtools.callgraph import LockSite

ADVANCE_GATE = "advance-gate"
SERVICE_RW = "service-rw"
RECOVERY = "recovery"
ROUTING = "routing"
SHARD_RW = "shard-rw"
BREAKER = "breaker"
REGISTRY = "registry"
PUSH = "push"
CONN = "conn"
QUEUE_COND = "queue-cond"
COUNTER = "counter"
STATS = "stats"
SERVER_ERROR = "server-error"
RW_COND = "rw-cond"
WATCHDOG = "watchdog"


class LockDecl:
    """One declared lock: rank, kind, and its documented licences."""

    __slots__ = ("name", "rank", "kind", "reentrant", "blocking_allowed",
                 "foreign_callbacks_allowed", "guards")

    def __init__(self, name: str, rank: int, kind: str, guards: str,
                 reentrant: bool = False,
                 blocking_allowed: frozenset[str] = frozenset(),
                 foreign_callbacks_allowed: bool = False) -> None:
        self.name = name
        self.rank = rank
        #: ``"gate"`` / ``"rw"`` / ``"mutex"`` / ``"rlock"`` / ``"condition"``.
        self.kind = kind
        self.guards = guards
        self.reentrant = reentrant
        #: Blocking-operation kinds permitted while held (RT009).
        self.blocking_allowed = blocking_allowed
        #: May observer/subscriber callbacks run while held (RT010)?
        self.foreign_callbacks_allowed = foreign_callbacks_allowed

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "rank": self.rank,
            "kind": self.kind,
            "guards": self.guards,
            "reentrant": self.reentrant,
            "blocking_allowed": sorted(self.blocking_allowed),
            "foreign_callbacks_allowed": self.foreign_callbacks_allowed,
        }


HIERARCHY: tuple[LockDecl, ...] = (
    LockDecl(
        ADVANCE_GATE, 0, "gate",
        "subscription fan-out rounds (evaluate -> record -> deliver)",
        foreign_callbacks_allowed=True,
    ),
    LockDecl(SERVICE_RW, 10, "rw", "the service's tree (readers/writer)",
             blocking_allowed=frozenset({"wal"})),
    LockDecl(RECOVERY, 20, "mutex", "online shard-recovery cutover",
             blocking_allowed=frozenset({"wal"})),
    LockDecl(ROUTING, 25, "rw",
             "the coordinator's routing table (plan + shard list + "
             "guards vs live reshard cutover; the write side drains and "
             "replays WAL tails over worker sockets and fsyncs the "
             "manifest that commits the cutover)",
             blocking_allowed=frozenset({"fsync", "socket", "wal"})),
    LockDecl(SHARD_RW, 30, "rw", "one shard's tree (readers/writer)",
             blocking_allowed=frozenset({"wal"})),
    LockDecl(BREAKER, 40, "mutex", "circuit-breaker state + guard counters"),
    LockDecl(REGISTRY, 50, "rlock", "subscription-registry state",
             reentrant=True),
    LockDecl(PUSH, 60, "mutex", "one server push channel (terminal)",
             blocking_allowed=frozenset({"socket"})),
    LockDecl(CONN, 65, "mutex",
             "one coordinator->worker connection (frames one framed "
             "request/response pair onto the wire)",
             blocking_allowed=frozenset({"socket"})),
    LockDecl(QUEUE_COND, 70, "condition", "the service's request queue"),
    LockDecl(COUNTER, 80, "mutex", "coordinator counters"),
    LockDecl(STATS, 85, "mutex", "service stats counters"),
    LockDecl(SERVER_ERROR, 86, "mutex", "server error counters"),
    LockDecl(RW_COND, 90, "condition", "ReadWriteLock internals"),
    LockDecl(WATCHDOG, 95, "mutex",
             "the lock-order watchdog's witnessed-edge set (innermost "
             "leaf: the witness runs under every other lock)"),
)

LOCKS: dict[str, LockDecl] = {decl.name: decl for decl in HIERARCHY}
RANK: dict[str, int] = {decl.name: decl.rank for decl in HIERARCHY}

#: Calls into these modules are exempt from RT009: the WAL-before-apply
#: and checkpoint/recovery paths *must* fsync under the exclusive lock.
BLOCKING_ALLOWED_MODULES: tuple[str, ...] = (
    "repro.reliability.",
    "repro.storage.",
)


# ---------------------------------------------------------------------------
# Acquisition-site classification
# ---------------------------------------------------------------------------

#: Bare ``with self.<attr>:`` sites: (module prefix, attribute) -> lock.
_ATTR_SITES: tuple[tuple[str, str, str], ...] = (
    ("repro.continuous", "_advance_gate", ADVANCE_GATE),
    ("repro.continuous", "_mutex", REGISTRY),
    ("repro.service.stats", "_mutex", STATS),
    ("repro.service.server", "_error_lock", SERVER_ERROR),
    ("repro.service.server", "_lock", PUSH),
    ("repro.service.service", "_queue_cond", QUEUE_COND),
    ("repro.service.locks", "_cond", RW_COND),
    ("repro.cluster.resilience", "_lock", BREAKER),
    ("repro.cluster.coordinator", "_counter_lock", COUNTER),
    ("repro.cluster.coordinator", "_recovery_lock", RECOVERY),
    ("repro.cluster.remote", "_lock", CONN),
    ("repro.cluster.remote", "_counter_lock", COUNTER),
    ("repro.cluster.reshard", "_counter_lock", COUNTER),
    ("repro.devtools.watchdog", "_edge_lock", WATCHDOG),
)

_KIND_MODES: dict[str, str] = {
    "gate": "exclusive",
    "mutex": "exclusive",
    "rlock": "exclusive",
    "condition": "exclusive",
}

_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond", "gate", "sem")


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _looks_lockish(name: str | None) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


def classify_site(module: str, expr: ast.expr) -> LockSite | None:
    """Classify one ``with`` context expression against the lock model.

    Returns a named :class:`~repro.devtools.callgraph.LockSite` for a
    declared acquisition site, an *unnamed* one (``name is None``) for
    an expression that looks like a lock but is not declared — RT008
    reports those, keeping the model exhaustive — and ``None`` for
    non-lock context managers (files, executors, ...).
    """
    # ``with <recv>.read_locked():`` / ``.write_locked():``
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("read_locked", "write_locked")):
        mode = "write" if expr.func.attr == "write_locked" else "read"
        receiver = ast.dump(expr.func.value)
        if module.startswith("repro.service"):
            return LockSite(SERVICE_RW, mode, "rw", receiver)
        if module.startswith("repro.cluster"):
            # The coordinator's routing table is its ``_routing`` lock
            # (taken by the coordinator and by a live reshard); every
            # other RW lock in the cluster layer guards one shard's tree
            # — in process or inside a worker.
            if _terminal_name(expr.func.value) == "_routing":
                return LockSite(ROUTING, mode, "rw", receiver)
            return LockSite(SHARD_RW, mode, "rw", receiver)
        if module.startswith("repro.continuous"):
            # The registry advances under the *service's* lock, handed
            # in by the caller (``advance(lock=...)``).
            return LockSite(SERVICE_RW, mode, "rw", receiver)
        return LockSite(None, mode, "rw", receiver)
    # ``with self.<attr>:`` (plain mutex / rlock / condition / gate)
    terminal = _terminal_name(expr)
    if isinstance(expr, (ast.Attribute, ast.Name)):
        for prefix, attr, name in _ATTR_SITES:
            if terminal == attr and module.startswith(prefix):
                decl = LOCKS[name]
                return LockSite(name, _KIND_MODES.get(decl.kind, "exclusive"),
                                decl.kind, ast.dump(expr))
        if _looks_lockish(terminal):
            return LockSite(None, "exclusive", "mutex", ast.dump(expr))
    return None


# ---------------------------------------------------------------------------
# Lock-graph rendering (the ``repro lint --lock-graph`` artifact)
# ---------------------------------------------------------------------------


def render_graph_json(edges: list[dict[str, object]]) -> dict[str, object]:
    """The machine-readable lock graph: declared nodes + derived edges."""
    return {
        "version": 1,
        "nodes": [decl.as_dict() for decl in HIERARCHY],
        "edges": edges,
        "acyclic": all(bool(edge.get("ok")) for edge in edges),
    }


def render_graph_dot(edges: list[dict[str, object]]) -> str:
    """The same graph as Graphviz DOT, ranked top-down by hierarchy."""
    lines = [
        "digraph lock_order {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for decl in HIERARCHY:
        lines.append(
            '  "%s" [label="%s\\nrank %d (%s)"];'
            % (decl.name, decl.name, decl.rank, decl.kind)
        )
    for edge in edges:
        ok = bool(edge.get("ok"))
        style = "solid" if ok else "bold, color=red"
        lines.append(
            '  "%s" -> "%s" [style="%s", label="%s"];'
            % (edge["src"], edge["dst"], style, edge.get("site", ""))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
