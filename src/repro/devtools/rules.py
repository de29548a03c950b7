"""The project's lint rules: the invariants a generic linter cannot know.

Each rule encodes one discipline this repository's correctness arguments
rest on — the service's lock protocol, the WAL-before-apply contract,
``-O``-proof invariant checks, float-comparison hygiene in the numeric
hot paths, exception hygiene on the reliability surface, guarded shard
dispatch, one durable whole-file write (RT011), and the whole-program
concurrency rules: lock ordering against the canonical hierarchy
(RT008), no blocking operations under exclusive locks (RT009), and no
foreign callbacks under engine locks (RT010).  RT006 (warn-stacklevel)
was retired with the last ``warnings.warn`` call; its id is not reused.
The rule-by-rule rationale (with the paper/WAL/lock invariant each
protects) lives in ``docs/DEVTOOLS.md``.

Per-file rules are pure functions of one
:class:`~repro.devtools.engine.FileContext`; the concurrency rules are
:class:`~repro.devtools.engine.ProgramRule` subclasses sharing one
interprocedural pass (:class:`LockFlow`) over the
:class:`~repro.devtools.callgraph.Program`.  Registration happens at
import time through the :func:`~repro.devtools.engine.rule` decorator.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.callgraph import (
    CallSite,
    ClassInfo,
    FunctionSummary,
    HeldLock,
    iter_lambda_thunk_calls,
)
from repro.devtools.engine import (
    FileContext,
    Finding,
    ProgramContext,
    ProgramRule,
    Rule,
    call_name,
    rule,
)
from repro.devtools.lockmodel import (
    BLOCKING_ALLOWED_MODULES,
    LOCKS,
    RANK,
    classify_site,
)

#: Tree/TIA mutations that require the exclusive side of the service lock.
LOCKED_MUTATORS = frozenset(
    {"insert_poi", "delete_poi", "digest_epoch", "replace_all"}
)
#: Query entry points that require at least the shared side.
LOCKED_READS = frozenset({"knnta_search", "sequential_scan"})
#: Tree query methods that require it when called on a ``tree``
#: attribute (``self.tree.query(...)``, ``shard.tree.query_batch(...)``).
TREE_READS = frozenset({"query", "query_batch"})
#: Tree mutations that must ride the WAL inside the service layer.
WAL_MUTATORS = frozenset({"insert_poi", "delete_poi", "digest_epoch"})
#: Shard-tree operations that cross a fault-domain boundary in the
#: cluster layer; each must run inside a ShardGuard thunk (RT007).
SHARD_DISPATCH_METHODS = frozenset(
    {
        "insert_poi",
        "delete_poi",
        "digest_epoch",
        "bulk_load",
        "global_epoch_max",
        "max_aggregate_bound",
        "query_batch",
    }
)

#: Shard-endpoint methods (``repro.cluster.coordinator.ShardEndpoint``)
#: the coordinator dispatches through a ShardGuard (RT007).  The
#: lifecycle steps ``checkpoint``, ``adopt`` and ``close`` are not
#: dispatch and stay unchecked (docs/DEVTOOLS.md).
ENDPOINT_DISPATCH_METHODS = frozenset(
    {
        "batch",
        "insert",
        "delete",
        "digest",
        "contains",
        "describe",
        "scrub",
        "reopen",
    }
)
#: The far side of the guard: the guard itself, and the worker server a
#: worker endpoint talks to, which calls its own ``Shard``'s methods.
_GUARD_EXEMPT_MODULES = ("repro.cluster.resilience", "repro.cluster.workers")

#: Attribute names that hold foreign callables: observer, subscriber
#: and transition callbacks (RT010).
CALLBACK_ATTRS = frozenset(
    {"sink", "on_transition", "on_event", "_on_event", "callback",
     "_callback", "observer"}
)
#: Name fragments marking collections of callbacks (RT010 loop targets).
_CALLBACK_COLLECTION_FRAGMENTS = ("observer", "sink")

#: Receiver-name fragments for thread-join detection (RT009): only
#: ``<thread-ish>.join(...)`` counts, so ``", ".join(...)`` stays clean.
_THREADISH_FRAGMENTS = ("thread", "worker", "proc")
#: Receiver-name fragments for future-result detection (RT009).
_FUTUREISH_FRAGMENTS = ("future", "pending")
#: Receiver-name fragments for socket-write detection (RT009).
_SOCKETISH_FRAGMENTS = ("wfile", "sock")


# ---------------------------------------------------------------------------
# The shared interprocedural lock-flow pass (RT008 / RT009 / RT010)
# ---------------------------------------------------------------------------


class LockFlow:
    """Everything the concurrency rules derive from the call graph.

    Computed once per :class:`~repro.devtools.engine.ProgramContext`
    (the engine's cache makes the three rules share it):

    * ``summaries`` — per-function call/acquisition records with the
      lexically-held lock stack, classified against the lock model;
    * ``may_acquire`` — transitive lock names each function may take;
    * ``blocking`` — transitive blocking footprint (RT009), with calls
      into the allowlisted WAL/storage modules exempt;
    * ``called_with`` — the lock context a function may *inherit* from
      its callers (RT010's existential propagation).
    """

    def __init__(self, context: ProgramContext) -> None:
        self.program = context.program
        self.summaries = self.program.summaries(classify_site)
        self.may_acquire = self.program.transitive_acquisitions(self.summaries)
        self.module_paths = {
            module.name: module.path
            for module in self.program.modules.values()
        }
        self.blocking = self._blocking_fixpoint()
        self.called_with = self._context_fixpoint()

    def path_of(self, module: str) -> str:
        return self.module_paths.get(module, module)

    # -- RT009: blocking footprint -------------------------------------------

    def _allowlisted(self, module: str) -> bool:
        return module.startswith(BLOCKING_ALLOWED_MODULES)

    def direct_blocking_kind(self, site: CallSite) -> str | None:
        """The blocking kind of one call expression, if any."""
        func = site.node.func
        if isinstance(func, ast.Name):
            if func.id in ("sleep", "fsync"):
                return func.id
            if func.id == "wait":
                return "wait"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver = _terminal_of(func.value)
        if attr == "sleep":
            return "sleep"
        if attr == "fsync":
            return "fsync"
        if attr in ("sendall", "recv", "recv_into", "accept", "connect"):
            return "socket"
        if attr in ("write", "flush") and _name_has(receiver,
                                                    _SOCKETISH_FRAGMENTS):
            return "socket"
        if attr == "join" and _name_has(receiver, _THREADISH_FRAGMENTS):
            return "join"
        if attr == "result" and _name_has(receiver, _FUTUREISH_FRAGMENTS):
            return "wait"
        if attr in ("wait", "wait_for"):
            # ``cond.wait()`` under ``with cond:`` *releases* the held
            # condition while waiting — the one blocking call that is
            # the point of holding the lock.
            receiver_dump = ast.dump(func.value)
            for held in site.held:
                if held.kind == "condition" and held.receiver == receiver_dump:
                    return None
            return "wait"
        return None

    def _blocking_fixpoint(self) -> dict[str, set[tuple[str, str]]]:
        """``key -> {(kind, origin key)}``, propagated through the graph."""
        footprint: dict[str, set[tuple[str, str]]] = {}
        for key, summary in self.summaries.items():
            direct: set[tuple[str, str]] = set()
            if not self._allowlisted(summary.function.module):
                for site in summary.calls:
                    if site.in_lambda or site.via_thunk:
                        continue
                    kind = self.direct_blocking_kind(site)
                    if kind is not None:
                        direct.add((kind, key))
            footprint[key] = direct
        changed = True
        while changed:
            changed = False
            for key, summary in self.summaries.items():
                mine = footprint[key]
                before = len(mine)
                for site in summary.calls:
                    if site.in_lambda or site.callee is None:
                        continue
                    callee = self.summaries.get(site.callee)
                    if callee is None:
                        continue
                    if self._allowlisted(callee.function.module):
                        continue  # the documented WAL-before-apply path
                    mine |= footprint.get(site.callee, set())
                if len(mine) != before:
                    changed = True
        return footprint

    # -- RT010: inherited lock context ---------------------------------------

    @staticmethod
    def _restricted_locks(held: tuple[HeldLock, ...]) -> set[str]:
        """Held locks under which foreign callbacks must not run."""
        names: set[str] = set()
        for lock in held:
            if not lock.exclusive():
                continue
            decl = LOCKS.get(lock.name)
            if decl is not None and decl.foreign_callbacks_allowed:
                continue
            names.add(lock.name)
        return names

    def _context_fixpoint(self) -> dict[str, set[str]]:
        """``key -> locks possibly held at some call site`` (existential)."""
        context: dict[str, set[str]] = {key: set() for key in self.summaries}
        changed = True
        while changed:
            changed = False
            for key, summary in self.summaries.items():
                inherited = context[key]
                for site in summary.calls:
                    if site.in_lambda or site.callee is None:
                        continue
                    target = context.get(site.callee)
                    if target is None:
                        continue
                    incoming = self._restricted_locks(site.held) | inherited
                    if not incoming <= target:
                        target |= incoming
                        changed = True
        return context


def lock_flow(context: ProgramContext) -> LockFlow:
    """The shared pass, computed once per lint run."""
    cached = context.cache.get("lockflow")
    if isinstance(cached, LockFlow):
        return cached
    flow = LockFlow(context)
    context.cache["lockflow"] = flow
    return flow


def _terminal_of(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _name_has(name: str | None, fragments: tuple[str, ...]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in fragments)


@rule
class LockDisciplineRule(ProgramRule):
    """RT001: service-layer tree access must hold the right lock side.

    ``insert_poi``/``delete_poi``/``digest_epoch`` and TIA repair
    (``replace_all``) reshape the structure the best-first search is
    concurrently descending; they must be lexically dominated by
    ``write_locked()``.  Query entry points (``knnta_search``,
    ``sequential_scan``, ``CollectiveProcessor(...).run``, and
    ``query``/``query_batch`` on a ``tree`` attribute) need at least
    ``read_locked()``.  A call inside a helper passes when every
    resolvable call site of that helper (transitively, across modules
    — the shared whole-program pass) holds the required lock.
    """

    rule_id = "RT001"
    name = "lock-discipline"
    rationale = (
        "the TAR-tree has no internal synchronisation; Property 1 and the "
        "best-first search are only correct under the service's "
        "readers-writer lock protocol"
    )

    def applies_to(self, module: str) -> bool:
        # The cluster coordinator holds one lock per shard and owes each
        # shard tree the exact same protocol the service owes its tree;
        # the continuous layer's queries run under the same locks.
        return module.startswith(
            ("repro.service", "repro.cluster", "repro.continuous")
        )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        flow = lock_flow(context)
        callsites: dict[str, list[tuple[str, str]]] = {}
        candidates: list[tuple[str, ast.Call, str, str, FunctionSummary]] = []
        for key, summary in flow.summaries.items():
            in_scope = self.applies_to(summary.function.module)
            for site in summary.calls:
                if site.callee is not None:
                    callsites.setdefault(site.callee, []).append(
                        (key, site.state)
                    )
                if site.via_thunk or not in_scope:
                    continue
                name = call_name(site.node)
                if name is None:
                    continue
                if name in LOCKED_MUTATORS and isinstance(site.node.func,
                                                          ast.Attribute):
                    if site.state != "write":
                        candidates.append((key, site.node, "write", name,
                                           summary))
                elif self._is_read_entry(site.node, name) \
                        and site.state == "none":
                    candidates.append((key, site.node, "read", name, summary))
        for key, call, required, name, summary in candidates:
            if self._dominated(key, required, callsites, frozenset({key})):
                continue
            fname = summary.function.name
            if required == "write":
                message = (
                    "%s() mutates shared tree state; it must run inside "
                    "'with ...write_locked():' (directly, or with every "
                    "call site of %s() write-locked)" % (name, fname)
                )
            else:
                message = (
                    "%s() reads shared tree state; it must run inside "
                    "'with ...read_locked():' (or under the write lock)"
                    % (name,)
                )
            yield self.finding_at(
                flow.path_of(summary.function.module), call, message
            )

    @staticmethod
    def _is_read_entry(call: ast.Call, name: str) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return name in LOCKED_READS
        if not isinstance(func, ast.Attribute):
            return False
        if name in TREE_READS:
            # ``self.tree`` / ``shard.tree``; a local ``tree`` name (the
            # subscription registry's) stays out of scope.
            return isinstance(func.value, ast.Attribute) and func.value.attr == "tree"
        if name == "run":
            return any(
                isinstance(node, ast.Name) and node.id == "CollectiveProcessor"
                for node in ast.walk(func.value)
            )
        return False

    def _dominated(
        self,
        key: str,
        required: str,
        callsites: dict[str, list[tuple[str, str]]],
        seen: frozenset[str],
    ) -> bool:
        """Does every resolvable call chain into ``key`` hold the lock?"""
        sites = callsites.get(key)
        if not sites:
            return False
        for caller, state in sites:
            if state == "write" or (required == "read" and state == "read"):
                continue
            if caller in seen:
                return False
            if not self._dominated(caller, required, callsites,
                                   seen | {caller}):
                return False
        return True


@rule
class WalBeforeApplyRule(Rule):
    """RT002: service-layer mutations must route through the ingest.

    The WAL-before-apply contract (PR 2) makes crash recovery exact:
    every logical mutation is framed into the mutation WAL before tree
    state changes.  Service code therefore calls
    ``self.ingest.insert/delete/digest``; mutating the tree directly is
    legal only in the documented standalone branch — the body of an
    ``if <obj>.ingest is None:`` guard.
    """

    rule_id = "RT002"
    name = "wal-before-apply"
    rationale = (
        "a tree mutation that bypasses CheckpointedIngest never reaches "
        "the WAL, so a crash silently loses it and recover() replays a "
        "diverged history"
    )

    def applies_to(self, module: str) -> bool:
        # Routed cluster mutations carry the same contract per shard:
        # each goes through the owning shard's ingest when one exists.
        # The continuous layer must never mutate the tree at all.
        return module.startswith(
            ("repro.service", "repro.cluster", "repro.continuous")
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for call, guarded in self._mutator_calls(context.tree.body, False):
            if guarded:
                continue
            yield self.finding(
                context,
                call,
                "%s() mutates the tree directly; route it through the "
                "attached CheckpointedIngest, or guard the standalone "
                "path with 'if ....ingest is None:'" % (call_name(call),),
            )

    def _mutator_calls(
        self, stmts: list[ast.stmt], guarded: bool
    ) -> Iterator[tuple[ast.Call, bool]]:
        for stmt in stmts:
            if isinstance(stmt, ast.If) and self._is_standalone_guard(stmt.test):
                yield from self._mutator_calls(stmt.body, True)
                yield from self._mutator_calls(stmt.orelse, guarded)
                continue
            yield from self._scan_children(stmt, guarded)

    def _scan_children(
        self, node: ast.AST, guarded: bool
    ) -> Iterator[tuple[ast.Call, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from self._mutator_calls([child], guarded)
            elif isinstance(child, ast.expr):
                for inner in ast.walk(child):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in WAL_MUTATORS
                    ):
                        yield inner, guarded
            else:
                # withitem / excepthandler / match_case wrappers: recurse
                # so their statement suites keep guard tracking.
                yield from self._scan_children(child, guarded)

    @staticmethod
    def _is_standalone_guard(test: ast.expr) -> bool:
        return (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "ingest"
        )


@rule
class NoBareAssertRule(Rule):
    """RT003: runtime invariants must not rely on ``assert``.

    CI's ``python -O`` leg strips every ``assert`` statement, so an
    invariant guarded only by one is unchecked exactly where the
    optimised build runs.  Raise an explicit exception (``raise
    AssertionError(...)`` keeps the contract) or gate the check on a
    debug flag.
    """

    rule_id = "RT003"
    name = "no-bare-assert"
    rationale = (
        "python -O strips assert statements, so -O CI legs silently skip "
        "any invariant they guard"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    context,
                    node,
                    "assert is stripped under python -O; raise an explicit "
                    "exception instead",
                )


@rule
class FloatEqualityRule(Rule):
    """RT004: no ``==``/``!=`` on float expressions in the numeric core.

    ``spatial.geometry`` and ``core.costmodel`` feed the kNNTA bound
    arithmetic, and the numeric hot paths added since PR 4 — the packed
    node frames and the resilience scoring — carry the same hazard: an
    exact float comparison there encodes an accidental tolerance of
    zero.  Compare with :func:`math.isclose` or an explicit epsilon.
    ``__eq__``/``__ne__``/``__hash__`` bodies are exempt — value types
    intentionally define exact equality.
    """

    rule_id = "RT004"
    name = "float-equality"
    rationale = (
        "exact float equality in the geometry/cost-model hot paths turns "
        "rounding noise into wrong pruning decisions"
    )

    _EXEMPT = frozenset({"__eq__", "__ne__", "__hash__"})
    #: Attributes that are floats by construction in this codebase —
    #: ranked scores and score bounds (QueryResult.score et al.).
    _FLOAT_ATTRS = frozenset({"score", "score_bound"})

    def applies_to(self, module: str) -> bool:
        return module in (
            "repro.spatial.geometry",
            "repro.core.costmodel",
            "repro.core.frames",
            "repro.cluster.resilience",
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from self._scan(context, context.tree.body)

    def _scan(self, context: FileContext,
              stmts: list[ast.stmt]) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name in self._EXEMPT:
                    continue
                yield from self._scan(context, stmt.body)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan(context, stmt.body)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Compare) and self._is_float_equality(node):
                    yield self.finding(
                        context,
                        node,
                        "float equality comparison; use math.isclose or an "
                        "explicit epsilon",
                    )

    def _is_float_equality(self, node: ast.Compare) -> bool:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return False
        return any(
            self._float_like(operand)
            for operand in [node.left, *node.comparators]
        )

    def _float_like(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Attribute):
            return node.attr in self._FLOAT_ATTRS
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._float_like(node.left) or self._float_like(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._float_like(node.operand)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "float":
                return True
            return (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "math"
            )
        return False


@rule
class ExceptionHygieneRule(Rule):
    """RT005: broad handlers on the reliability surface must not swallow.

    ``except Exception`` in :mod:`repro.reliability` / :mod:`repro.service`
    sits exactly where corruption and crash bugs surface; a handler
    there must re-raise, use the caught exception (report/record it), or
    log it.  A deliberate swallow carries an allow comment so the
    decision is visible in review.
    """

    rule_id = "RT005"
    name = "exception-hygiene"
    rationale = (
        "a swallowed exception on the reliability path converts detectable "
        "corruption into silent divergence"
    )

    _LOG_ATTRS = frozenset(
        {"debug", "info", "warning", "warn", "error", "exception", "critical"}
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith(("repro.reliability", "repro.service"))

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles_responsibly(node):
                continue
            yield self.finding(
                context,
                node,
                "broad except swallows the exception; re-raise it, record "
                "or log it, or carry an explicit allow comment",
            )

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        names = (
            [type_node] if not isinstance(type_node, ast.Tuple) else type_node.elts
        )
        return any(
            isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
            for name in names
        )

    def _handles_responsibly(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._LOG_ATTRS
            ):
                return True
        return False


@rule
class GuardedShardDispatchRule(ProgramRule):
    """RT007: cluster shard dispatch must go through the ShardGuard.

    Every operation that crosses a fault-domain boundary must execute
    inside a guard thunk handed to ``ShardGuard.call``; that wrapper
    owns the timeout, retry/classification, and circuit breaker that
    keep one failing shard from hanging or crashing the whole
    scatter-gather.  Two shapes count as dispatch: a call to a shard
    endpoint's dispatch method (``ENDPOINT_DISPATCH_METHODS`` on
    anything but ``self``, in the cluster layer) — the coordinator's
    only way to reach a shard on either transport — and a shard-tree
    operation (routed mutations, bulk loads, bound refreshes and
    ``query_batch`` on a ``.tree``, ``knnta_search``/``sequential_scan``,
    ``CollectiveProcessor(...).run``).  A dispatch in a helper passes
    when the helper itself is a guard thunk or every resolvable call
    chain into it (across modules — the shared whole-program pass)
    starts from one.  Endpoint implementations — classes defining
    every dispatch method — are the far side of the guard, like the
    guard module itself and the worker server.
    """

    rule_id = "RT007"
    name = "guarded-shard-dispatch"
    rationale = (
        "a shard-tree call outside ShardGuard.call bypasses the per-shard "
        "timeout and circuit breaker, so one sick shard can hang or crash "
        "every query instead of degrading with a bound certificate"
    )

    def applies_to(self, module: str) -> bool:
        # Everything in the cluster layer but the far side of the guard —
        # and the continuous layer, which serves subscriptions straight
        # off cluster trees — must dispatch through it.
        return (
            module.startswith(("repro.cluster", "repro.continuous"))
            and module not in _GUARD_EXEMPT_MODULES
        )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        flow = lock_flow(context)
        lambda_calls: set[int] = set()
        guard_roots: set[str] = set()
        for module in context.program.modules.values():
            lambda_calls.update(iter_lambda_thunk_calls(module.tree))
        callsites: dict[str, list[str]] = {}
        candidates: list[tuple[str, ast.Call, str, FunctionSummary]] = []
        for key, summary in flow.summaries.items():
            module = summary.function.module
            in_scope = self.applies_to(module) and not _is_endpoint(
                summary.function.class_info
            )
            for site in summary.calls:
                if site.via_thunk:
                    if site.callee is not None:
                        guard_roots.add(site.callee)
                    continue
                if site.callee is not None:
                    callsites.setdefault(site.callee, []).append(key)
                if not in_scope:
                    continue
                name = call_name(site.node)
                if name is None:
                    continue
                if self._is_dispatch(site.node, name, module):
                    candidates.append((key, site.node, name, summary))
        for key, call, name, summary in candidates:
            if id(call) in lambda_calls:
                continue
            if key in guard_roots:
                continue
            if self._dominated(key, guard_roots, callsites, frozenset({key})):
                continue
            yield self.finding_at(
                flow.path_of(summary.function.module),
                call,
                "%s() dispatches to a shard outside ShardGuard.call; wrap "
                "it in a guard thunk (directly, or with every call site of "
                "%s() inside one)" % (name, summary.function.name),
            )

    @staticmethod
    def _is_dispatch(call: ast.Call, name: str, module: str) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return name in LOCKED_READS
        if isinstance(func, ast.Attribute):
            if (func.attr in ENDPOINT_DISPATCH_METHODS
                    and module.startswith("repro.cluster")):
                # ``self.query(...)`` is the coordinator's own public API;
                # the endpoints it dispatches to are never ``self``.
                return not _is_self(func.value)
            if func.attr == "run":
                return any(
                    isinstance(node, ast.Name)
                    and node.id == "CollectiveProcessor"
                    for node in ast.walk(func.value)
                )
            if func.attr in SHARD_DISPATCH_METHODS:
                # Only calls through a shard tree (``<obj>.tree.m(...)``)
                # cross the fault domain; ``self.insert_poi`` etc. are the
                # coordinator's own public wrappers.
                return (
                    isinstance(func.value, ast.Attribute)
                    and func.value.attr == "tree"
                )
        return False

    def _dominated(
        self,
        key: str,
        guard_roots: set[str],
        callsites: dict[str, list[str]],
        seen: frozenset[str],
    ) -> bool:
        """Does every resolvable call chain into ``key`` start from a
        guard thunk?"""
        sites = callsites.get(key)
        if not sites:
            return False
        for caller in sites:
            if caller in guard_roots:
                continue
            if caller in seen:
                return False
            if not self._dominated(caller, guard_roots, callsites,
                                   seen | {caller}):
                return False
        return True


def _is_endpoint(info: ClassInfo | None) -> bool:
    """Does ``info`` implement every shard-endpoint dispatch method?"""
    return info is not None and ENDPOINT_DISPATCH_METHODS <= info.methods.keys()


def _is_self(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id == "self"
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "super"
    )

@rule
class LockOrderRule(ProgramRule):
    """RT008: nested lock acquisitions must descend the hierarchy.

    The canonical order lives in :mod:`repro.devtools.lockmodel` (and
    nowhere else).  This rule derives every (held → acquired) edge the
    call graph can see — lexical nesting plus calls into functions
    that transitively acquire — and reports: rank ascents, cycles in
    the derived graph, re-acquisition of non-reentrant locks, and
    lock-like acquisition sites the model does not declare (the model
    must stay exhaustive).  Unresolvable dynamic calls contribute no
    edges: coverage degrades, false certainties never appear.
    """

    rule_id = "RT008"
    name = "lock-order"
    rationale = (
        "two threads nesting the same locks in different orders deadlock; "
        "one global strictly-descending hierarchy makes that impossible "
        "by construction"
    )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        flow = lock_flow(context)
        edges: dict[tuple[str, str], tuple[str, ast.AST, str]] = {}
        for key, summary in flow.summaries.items():
            path = flow.path_of(summary.function.module)
            for expr in summary.unknown_sites:
                yield self.finding_at(
                    path, expr,
                    "acquisition site is not declared in the lock model "
                    "(repro.devtools.lockmodel); every engine lock must "
                    "carry a canonical name and rank",
                )
            for acq in summary.acquisitions:
                name = acq.site.name
                if name is None:
                    continue
                for held in acq.held_before:
                    edges.setdefault(
                        (held.name, name), (path, acq.node, "acquired here")
                    )
            for site in summary.calls:
                if site.in_lambda or site.callee is None or not site.held:
                    continue
                for inner in sorted(flow.may_acquire.get(site.callee, ())):
                    for held in site.held:
                        edges.setdefault(
                            (held.name, inner),
                            (path, site.node,
                             "via %s()" % _short_key(site.callee)),
                        )
        context.cache["lock_edges"] = [
            {
                "src": src,
                "dst": dst,
                "ok": not self._violates(src, dst),
                "site": "%s:%d" % (path, getattr(node, "lineno", 0)),
                "via": via,
            }
            for (src, dst), (path, node, via) in sorted(edges.items())
        ]
        for (src, dst), (path, node, via) in sorted(edges.items()):
            if src == dst:
                decl = LOCKS.get(src)
                if decl is not None and decl.reentrant:
                    continue
                yield self.finding_at(
                    path, node,
                    "re-acquisition of non-reentrant lock '%s' (%s); "
                    "nesting it deadlocks" % (src, via),
                )
            elif RANK.get(src, -1) > RANK.get(dst, 1 << 30):
                yield self.finding_at(
                    path, node,
                    "lock-order violation: '%s' (rank %d) is held while "
                    "acquiring '%s' (rank %d, %s); the hierarchy requires "
                    "strictly descending ranks — see "
                    "repro.devtools.lockmodel" % (
                        src, RANK[src], dst, RANK[dst], via,
                    ),
                )
        yield from self._cycle_findings(edges)

    @staticmethod
    def _violates(src: str, dst: str) -> bool:
        if src == dst:
            decl = LOCKS.get(src)
            return decl is None or not decl.reentrant
        return RANK.get(src, -1) > RANK.get(dst, 1 << 30)

    def _cycle_findings(
        self, edges: dict[tuple[str, str], tuple[str, ast.AST, str]]
    ) -> Iterator[Finding]:
        graph: dict[str, set[str]] = {}
        for src, dst in edges:
            if src != dst:
                graph.setdefault(src, set()).add(dst)
        seen: set[str] = set()

        def visit(node: str, trail: tuple[str, ...]) -> tuple[str, ...] | None:
            if node in trail:
                return trail[trail.index(node):] + (node,)
            if node in seen:
                return None
            seen.add(node)
            for neighbour in sorted(graph.get(node, ())):
                cycle = visit(neighbour, trail + (node,))
                if cycle is not None:
                    return cycle
            return None

        for start in sorted(graph):
            cycle = visit(start, ())
            if cycle is not None:
                path, node, _via = edges[(cycle[0], cycle[1])]
                yield self.finding_at(
                    path, node,
                    "derived lock graph has a cycle: %s; a cycle means two "
                    "threads can deadlock regardless of ranks"
                    % " -> ".join(cycle),
                )
                return


@rule
class NoBlockingUnderLockRule(ProgramRule):
    """RT009: no blocking operations while holding an exclusive lock.

    Sleeps, fsyncs, socket sends/receives, thread joins and future
    waits under an exclusive lock convert one slow peer into a stalled
    engine — every reader and writer queues behind the holder.  The
    shared read side is exempt by design (queries block under it: that
    is what shared access is for).  Two documented allowances, both
    declared in the lock model: the WAL-before-apply and
    checkpoint/recovery paths (calls into :mod:`repro.reliability` /
    :mod:`repro.storage` — durability *requires* fsync under the
    exclusive lock), and the push lock's socket write (it exists to
    frame one message onto the wire; it is a terminal lock).
    """

    rule_id = "RT009"
    name = "no-blocking-under-lock"
    rationale = (
        "a blocking call under an exclusive lock turns one slow I/O peer "
        "into a whole-engine stall; the WAL path is the one documented "
        "exception"
    )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        flow = lock_flow(context)
        reported: set[tuple[int, str, str]] = set()
        for key, summary in flow.summaries.items():
            module = summary.function.module
            if module.startswith(BLOCKING_ALLOWED_MODULES):
                continue
            path = flow.path_of(module)
            for site in summary.calls:
                if site.in_lambda:
                    continue
                exclusive = [h for h in site.held if h.exclusive()]
                if not exclusive:
                    continue
                kinds: list[tuple[str, str | None]] = []
                direct = self.direct_kind(flow, site)
                if direct is not None:
                    kinds.append((direct, None))
                if site.callee is not None:
                    callee = flow.summaries.get(site.callee)
                    if callee is not None and not callee.function.module \
                            .startswith(BLOCKING_ALLOWED_MODULES):
                        for kind, origin in sorted(
                                flow.blocking.get(site.callee, ())):
                            kinds.append((kind, origin))
                for kind, origin in kinds:
                    blocked = [
                        h.name for h in exclusive
                        if kind not in LOCKS[h.name].blocking_allowed
                    ] if all(h.name in LOCKS for h in exclusive) else [
                        h.name for h in exclusive
                    ]
                    if not blocked:
                        continue
                    marker = (id(site.node), kind, ",".join(blocked))
                    if marker in reported:
                        continue
                    reported.add(marker)
                    where = "" if origin is None else (
                        " (via %s())" % _short_key(origin)
                    )
                    yield self.finding_at(
                        path, site.node,
                        "blocking operation (%s)%s while holding exclusive "
                        "lock(s) %s; move the blocking work outside the "
                        "lock or add a documented allowance in the lock "
                        "model" % (kind, where, ", ".join(sorted(set(blocked)))),
                    )

    @staticmethod
    def direct_kind(flow: LockFlow, site: CallSite) -> str | None:
        return flow.direct_blocking_kind(site)


@rule
class NoForeignCallbackUnderLockRule(ProgramRule):
    """RT010: foreign callbacks run on a snapshot, outside engine locks.

    Observer, subscriber and transition callbacks execute arbitrary
    user code: invoked under an engine lock, that code re-entering the
    engine (an unsubscribe from inside a sink, a health probe from a
    breaker transition) either deadlocks or acquires against the
    hierarchy.  Collect the callbacks under the lock, release it, then
    fire.  The fan-out gate is the one declared exception
    (``foreign_callbacks_allowed``): it protects no engine state, and
    callbacks re-entering through it only ever acquire lower-ranked
    locks.  The core tree's mutation-observer protocol is out of scope
    — its receivers are lock-aware by contract (they may touch only
    their own leaf locks).
    """

    rule_id = "RT010"
    name = "no-foreign-callback-under-lock"
    rationale = (
        "a user callback under an engine lock makes every subscriber a "
        "potential deadlock: re-entering the engine from the callback "
        "acquires against the hierarchy"
    )

    def applies_to(self, module: str) -> bool:
        return module.startswith(
            ("repro.service", "repro.cluster", "repro.continuous")
        )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        flow = lock_flow(context)
        for key, summary in flow.summaries.items():
            if not self.applies_to(summary.function.module):
                continue
            path = flow.path_of(summary.function.module)
            callback_names = self._callback_locals(summary.function.node)
            inherited = flow.called_with.get(key, set())
            for site in summary.calls:
                if site.in_lambda or site.via_thunk:
                    continue
                if not self._is_callback_call(site.node, callback_names):
                    continue
                held = LockFlow._restricted_locks(site.held) | inherited
                if not held:
                    continue
                yield self.finding_at(
                    path, site.node,
                    "foreign callback invoked under engine lock(s) %s; "
                    "collect callbacks under the lock, release it, then "
                    "fire on the snapshot" % ", ".join(sorted(held)),
                )

    @staticmethod
    def _callback_locals(fn_node: ast.AST) -> set[str]:
        """Local names bound to callback attributes or observer loops."""
        names: set[str] = set()
        for node in ast.walk(fn_node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in CALLBACK_ATTRS):
                names.add(node.targets[0].id)
            elif isinstance(node, ast.For) and isinstance(node.target,
                                                          ast.Name):
                for inner in ast.walk(node.iter):
                    terminal = _terminal_of(inner) if isinstance(
                        inner, (ast.Attribute, ast.Name)) else None
                    if _name_has(terminal, _CALLBACK_COLLECTION_FRAGMENTS):
                        names.add(node.target.id)
                        break
        return names

    @staticmethod
    def _is_callback_call(call: ast.Call, callback_names: set[str]) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in callback_names
        if isinstance(func, ast.Attribute):
            return func.attr in CALLBACK_ATTRS
        return False


@rule
class DurableWriteOnlyRule(Rule):
    """RT011: only ``durable_write`` replaces a file.

    :func:`repro.reliability.wal.durable_write` is the program's one
    whole-file write: a temp file of its own, fsynced, renamed over the
    target, then the directory fsynced.  An ``os.replace`` or
    ``os.rename`` anywhere else (or either name imported from ``os``)
    is a second way to replace a file, one that can skip those steps.
    """

    rule_id = "RT011"
    name = "durable-write-only"
    rationale = (
        "a rename outside durable_write can skip the fsyncs that make a "
        "replaced file survive a crash"
    )

    _RENAMES = frozenset({"replace", "rename"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        exempt: set[int] = set()
        if context.module == "repro.reliability.wal":
            for stmt in context.tree.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "durable_write":
                    exempt.update(id(node) for node in ast.walk(stmt))
        for node in ast.walk(context.tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                renames = any(alias.name in self._RENAMES for alias in node.names)
            else:
                renames = (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._RENAMES
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"
                )
            if renames:
                yield self.finding(
                    context,
                    node,
                    "files are replaced only by "
                    "repro.reliability.wal.durable_write; write through it "
                    "instead of renaming here",
                )


def _short_key(key: str) -> str:
    """``repro.service.service.QueryService.digest`` → ``QueryService.digest``."""
    parts = key.split(".")
    for index, part in enumerate(parts):
        if part and part[0].isupper():
            return ".".join(parts[index:])
    return parts[-1] if parts else key
