"""Whole-program call graph over ``src/repro`` for the lint engine.

PR 4's rules resolved calls per file: ``f(...)`` and ``self.f(...)``
against the names defined in the same module.  That cannot see a lock
acquired in :mod:`repro.continuous.registry` on behalf of a caller in
:mod:`repro.service.service` — exactly the cross-module nesting the
concurrency rules (RT008–RT010) exist to police.  This module builds
one shared interprocedural view:

* a :class:`Program` over every parsed file — modules, classes (with
  base links), functions (methods and nested functions included);
* best-effort static call resolution (:meth:`Program.resolve_call`):
  local names, ``self.m(...)`` through the enclosing class and its
  resolvable bases, ``from repro.x import f``, ``import repro.x as y``
  aliases, constructor calls, and one level of attribute typing
  (``self._registry = SubscriptionRegistry(tree)`` in ``__init__``
  makes ``self._registry.advance(...)`` resolvable);
* per-function :class:`FunctionSummary` values recording every call
  site and lock acquisition with the lexically-held lock stack, via a
  pluggable lock-site classifier (the canonical classifier lives in
  :mod:`repro.devtools.lockmodel`).

Anything dynamic — ``getattr``, callables stored in untyped
attributes, duck-typed parameters — resolves to ``None``
(*unknown*).  Unknown calls contribute **no** edges: the concurrency
rules only ever report violations built from edges the graph actually
found, so dynamism degrades analysis coverage, never correctness.

One deliberate modelling exception: ``<guard>.call(kind, thunk)``
(the :class:`~repro.cluster.resilience.ShardGuard` dispatch) records a
call edge to ``thunk`` when the thunk is a resolvable local function —
the guard invokes it, and the locks held at the ``.call`` site are
held around that invocation.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Acquisition",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "FunctionSummary",
    "HeldLock",
    "LockSite",
    "ModuleInfo",
    "Program",
    "build_program",
]


class LockSite:
    """One classified ``with`` acquisition: which lock, which mode.

    ``name is None`` means the expression *looks like* a lock (an
    attribute named ``..._lock``/``_mutex``/... or a
    ``read_locked()``/``write_locked()`` call) but matches no declared
    acquisition site — the lock model is meant to be exhaustive, so
    RT008 reports such sites instead of silently guessing a rank.
    """

    __slots__ = ("name", "mode", "kind", "receiver")

    def __init__(self, name: str | None, mode: str, kind: str,
                 receiver: str) -> None:
        self.name = name
        #: ``"read"`` / ``"write"`` (rw locks) or ``"exclusive"``.
        self.mode = mode
        #: ``"rw"`` / ``"mutex"`` / ``"rlock"`` / ``"condition"`` / ``"gate"``.
        self.kind = kind
        #: ``ast.dump`` of the receiver expression — the same-receiver
        #: test that exempts ``cond.wait()`` under ``with cond:``.
        self.receiver = receiver


#: The classifier signature: ``(module, with-item expression) -> site``.
Classifier = Callable[[str, ast.expr], "LockSite | None"]


class HeldLock:
    """One entry of the lexically-held lock stack at a program point."""

    __slots__ = ("name", "mode", "kind", "receiver")

    def __init__(self, name: str, mode: str, kind: str, receiver: str) -> None:
        self.name = name
        self.mode = mode
        self.kind = kind
        self.receiver = receiver

    def exclusive(self) -> bool:
        """Does holding this entry exclude every other holder?"""
        return self.mode != "read"


class Acquisition:
    """One lock acquisition site inside a function body."""

    __slots__ = ("site", "node", "held_before")

    def __init__(self, site: LockSite, node: ast.expr,
                 held_before: tuple[HeldLock, ...]) -> None:
        self.site = site
        self.node = node
        self.held_before = held_before


class CallSite:
    """One call expression with its resolution and lock context.

    ``in_lambda`` marks calls inside ``lambda`` bodies: they run when
    the lambda does, not where it is written, so the lock-context rules
    skip them (the dominance rules keep them for per-file parity).
    ``via_thunk`` marks the synthetic guard-thunk edge described in the
    module docs.
    """

    __slots__ = ("node", "callee", "held", "state", "in_lambda", "via_thunk")

    def __init__(self, node: ast.Call, callee: str | None,
                 held: tuple[HeldLock, ...], state: str,
                 in_lambda: bool = False, via_thunk: bool = False) -> None:
        self.node = node
        self.callee = callee
        self.held = held
        #: RT001-compatible syntactic state: ``"none"``/``"read"``/
        #: ``"write"`` from the innermost ``read_locked``/``write_locked``.
        self.state = state
        self.in_lambda = in_lambda
        self.via_thunk = via_thunk


class FunctionSummary:
    """Everything the concurrency rules need about one function body."""

    __slots__ = ("function", "acquisitions", "calls", "unknown_sites")

    def __init__(self, function: FunctionInfo) -> None:
        self.function = function
        self.acquisitions: list[Acquisition] = []
        self.calls: list[CallSite] = []
        #: Lock-like ``with`` sites the classifier could not name.
        self.unknown_sites: list[ast.expr] = []


class FunctionInfo:
    """One function or method (nested functions included)."""

    __slots__ = ("key", "module", "name", "node", "class_info", "parent",
                 "local_defs", "_var_types")

    def __init__(self, key: str, module: str, name: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 class_info: "ClassInfo | None",
                 parent: "FunctionInfo | None") -> None:
        self.key = key
        self.module = module
        self.name = name
        self.node = node
        self.class_info = class_info
        self.parent = parent
        #: Functions defined directly in this body: ``name -> key``.
        self.local_defs: dict[str, str] = {}
        self._var_types: dict[str, tuple[str, str]] | None = None


class ClassInfo:
    """One class: methods, base references, and typed ``self`` attributes."""

    __slots__ = ("name", "module", "node", "bases", "methods", "attr_types")

    def __init__(self, name: str, module: str, node: ast.ClassDef) -> None:
        self.name = name
        self.module = module
        self.node = node
        #: Base-class references as written (resolved lazily by name).
        self.bases: list[str] = []
        #: method name -> function key.
        self.methods: dict[str, str] = {}
        #: ``self.<attr>`` assignments in ``__init__`` whose value is a
        #: resolvable constructor call: ``attr -> (module, class name)``.
        self.attr_types: dict[str, tuple[str, str]] = {}


class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    __slots__ = ("name", "path", "tree", "import_aliases", "from_imports",
                 "functions", "classes")

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        #: ``import a.b as c`` -> ``{"c": "a.b"}``; ``import a.b`` -> ``{"a": "a"}``.
        self.import_aliases: dict[str, str] = {}
        #: ``from m import x as y`` -> ``{"y": ("m", "x")}``.
        self.from_imports: dict[str, tuple[str, str]] = {}
        #: Module-level function name -> key.
        self.functions: dict[str, str] = {}
        self.classes: dict[str, ClassInfo] = {}


class Program:
    """The whole-program view: modules, functions, resolution, summaries."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._summaries: dict[str, FunctionSummary] = {}
        self._summarised_with: Classifier | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_module(self, name: str, path: str, tree: ast.Module) -> None:
        module = ModuleInfo(name, path, tree)
        self.modules[name] = module
        self._collect_imports(module)
        self._collect_scope(module, tree.body, prefix=name, class_info=None,
                            parent=None)

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.import_aliases[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    module.from_imports[bound] = (node.module, alias.name)

    def _collect_scope(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        prefix: str,
        class_info: ClassInfo | None,
        parent: FunctionInfo | None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = "%s.%s" % (prefix, stmt.name)
                while key in self.functions:  # redefinition / same name
                    key += "'"
                info = FunctionInfo(key, module.name, stmt.name, stmt,
                                    class_info, parent)
                self.functions[key] = info
                if parent is not None:
                    parent.local_defs[stmt.name] = key
                elif class_info is not None:
                    class_info.methods.setdefault(stmt.name, key)
                else:
                    module.functions.setdefault(stmt.name, key)
                self._collect_scope(module, stmt.body, key, class_info, info)
            elif isinstance(stmt, ast.ClassDef):
                info_c = ClassInfo(stmt.name, module.name, stmt)
                for base in stmt.bases:
                    if isinstance(base, ast.Name):
                        info_c.bases.append(base.id)
                module.classes.setdefault(stmt.name, info_c)
                self._collect_scope(module, stmt.body,
                                    "%s.%s" % (prefix, stmt.name),
                                    info_c, None)
                self._collect_attr_types(module, info_c)

    def _collect_attr_types(self, module: ModuleInfo, info: ClassInfo) -> None:
        init_key = info.methods.get("__init__")
        if init_key is None:
            return
        init = self.functions[init_key]
        for stmt in ast.walk(init.node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            value = stmt.value
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)):
                ref = self._class_ref(module, value.func.id)
                if ref is not None:
                    info.attr_types[target.attr] = ref

    # ------------------------------------------------------------------
    # Name / call resolution
    # ------------------------------------------------------------------

    def _class_ref(self, module: ModuleInfo, name: str) -> tuple[str, str] | None:
        """Resolve ``name`` to a class reference visible in ``module``."""
        if name in module.classes:
            return (module.name, name)
        imported = module.from_imports.get(name)
        if imported is not None:
            src, orig = imported
            source = self.modules.get(src)
            if source is not None and orig in source.classes:
                return (src, orig)
        return None

    def class_info(self, ref: tuple[str, str]) -> ClassInfo | None:
        module = self.modules.get(ref[0])
        if module is None:
            return None
        return module.classes.get(ref[1])

    def lookup_method(self, info: ClassInfo, name: str,
                      _seen: frozenset[str] = frozenset()) -> str | None:
        """``name`` on ``info`` or (transitively) a resolvable base."""
        if name in info.methods:
            return info.methods[name]
        marker = "%s.%s" % (info.module, info.name)
        if marker in _seen:
            return None
        module = self.modules.get(info.module)
        if module is None:
            return None
        for base in info.bases:
            ref = self._class_ref(module, base)
            if ref is None:
                continue
            base_info = self.class_info(ref)
            if base_info is None:
                continue
            found = self.lookup_method(base_info, name, _seen | {marker})
            if found is not None:
                return found
        return None

    def _var_types_of(self, fn: FunctionInfo) -> dict[str, tuple[str, str]]:
        """Local ``x = ClassName(...)`` / ``x = self._attr`` inference."""
        if fn._var_types is not None:
            return fn._var_types
        module = self.modules[fn.module]
        types: dict[str, tuple[str, str]] = {}
        for stmt in ast.walk(fn.node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            name = stmt.targets[0].id
            value = stmt.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                ref = self._class_ref(module, value.func.id)
                if ref is not None:
                    types[name] = ref
            elif (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and fn.class_info is not None):
                ref = fn.class_info.attr_types.get(value.attr)
                if ref is not None:
                    types[name] = ref
        fn._var_types = types
        return types

    def resolve_name(self, fn: FunctionInfo, name: str) -> str | None:
        """A bare ``name(...)`` call: scope chain, module, imports, classes."""
        scope: FunctionInfo | None = fn
        while scope is not None:
            if name in scope.local_defs:
                return scope.local_defs[name]
            scope = scope.parent
        module = self.modules.get(fn.module)
        if module is None:
            return None
        if name in module.functions:
            return module.functions[name]
        imported = module.from_imports.get(name)
        if imported is not None:
            src, orig = imported
            source = self.modules.get(src)
            if source is not None:
                if orig in source.functions:
                    return source.functions[orig]
                if orig in source.classes:
                    return source.classes[orig].methods.get("__init__")
            return None
        if name in module.classes:
            return module.classes[name].methods.get("__init__")
        return None

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """The called function's key, or ``None`` (unknown — no edge)."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name(fn, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and fn.class_info is not None:
                found = self.lookup_method(fn.class_info, func.attr)
                if found is not None:
                    return found
                # Per-file parity with the PR-4 rules: ``self.f(...)``
                # falls back to a module-level ``def f`` of that name.
                module = self.modules.get(fn.module)
                return None if module is None else module.functions.get(func.attr)
            module = self.modules.get(fn.module)
            if module is None:
                return None
            alias = module.import_aliases.get(base.id)
            if alias is not None:
                target = self.modules.get(alias)
                return None if target is None else target.functions.get(func.attr)
            imported = module.from_imports.get(base.id)
            if imported is not None:
                # ``from repro.continuous import registry`` — a module.
                candidate = "%s.%s" % imported
                target = self.modules.get(candidate)
                return None if target is None else target.functions.get(func.attr)
            var_ref = self._var_types_of(fn).get(base.id)
            if var_ref is not None:
                info = self.class_info(var_ref)
                return None if info is None else self.lookup_method(info, func.attr)
            class_ref = self._class_ref(module, base.id)
            if class_ref is not None:
                info = self.class_info(class_ref)
                return None if info is None else self.lookup_method(info, func.attr)
            return None
        if (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and fn.class_info is not None):
            ref = fn.class_info.attr_types.get(base.attr)
            if ref is not None:
                info = self.class_info(ref)
                return None if info is None else self.lookup_method(info, func.attr)
        return None

    # ------------------------------------------------------------------
    # Lock-context summaries
    # ------------------------------------------------------------------

    def summaries(self, classify: Classifier | None = None
                  ) -> dict[str, FunctionSummary]:
        """Per-function summaries; computed once per classifier."""
        if self._summaries and self._summarised_with is classify:
            return self._summaries
        self._summaries = {}
        self._summarised_with = classify
        for key, fn in self.functions.items():
            summary = FunctionSummary(fn)
            self._walk_block(fn, fn.node.body, (), "none", summary, classify)
            self._summaries[key] = summary
        return self._summaries

    def _walk_block(self, fn: FunctionInfo, body: Sequence[ast.stmt],
                    held: tuple[HeldLock, ...], state: str,
                    summary: FunctionSummary,
                    classify: Classifier | None) -> None:
        for stmt in body:
            self._walk_stmt(fn, stmt, held, state, summary, classify)

    def _walk_stmt(self, fn: FunctionInfo, stmt: ast.stmt,
                   held: tuple[HeldLock, ...], state: str,
                   summary: FunctionSummary,
                   classify: Classifier | None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # separate FunctionInfo / scope
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner_held = held
            inner_state = state
            for item in stmt.items:
                # Calls in the context expression run before acquisition.
                self._scan_expr(fn, item.context_expr, inner_held, inner_state,
                                summary, False)
                if item.optional_vars is not None:
                    self._scan_expr(fn, item.optional_vars, inner_held,
                                    inner_state, summary, False)
                mode = _rw_mode(item.context_expr)
                if mode == "write":
                    inner_state = "write"
                elif mode == "read" and inner_state != "write":
                    inner_state = "read"
                if classify is None:
                    continue
                site = classify(fn.module, item.context_expr)
                if site is None:
                    continue
                if site.name is None:
                    summary.unknown_sites.append(item.context_expr)
                    continue
                summary.acquisitions.append(
                    Acquisition(site, item.context_expr, inner_held)
                )
                inner_held = inner_held + (
                    HeldLock(site.name, site.mode, site.kind, site.receiver),
                )
            self._walk_block(fn, stmt.body, inner_held, inner_state, summary,
                             classify)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._walk_stmt(fn, child, held, state, summary, classify)
            elif isinstance(child, ast.expr):
                self._scan_expr(fn, child, held, state, summary, False)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                for inner in ast.iter_child_nodes(child):
                    if isinstance(inner, ast.stmt):
                        self._walk_stmt(fn, inner, held, state, summary,
                                        classify)
                    elif isinstance(inner, ast.expr):
                        self._scan_expr(fn, inner, held, state, summary, False)

    def _scan_expr(self, fn: FunctionInfo, expr: ast.expr,
                   held: tuple[HeldLock, ...], state: str,
                   summary: FunctionSummary, in_lambda: bool) -> None:
        if isinstance(expr, ast.Lambda):
            self._scan_expr(fn, expr.body, held, state, summary, True)
            return
        if isinstance(expr, ast.Call):
            callee = self.resolve_call(fn, expr)
            summary.calls.append(
                CallSite(expr, callee, held, state, in_lambda=in_lambda)
            )
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "call"):
                for arg in expr.args:
                    if isinstance(arg, ast.Name):
                        thunk = self.resolve_name(fn, arg.id)
                        if thunk is not None:
                            summary.calls.append(CallSite(
                                expr, thunk, held, state,
                                in_lambda=in_lambda, via_thunk=True,
                            ))
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(fn, child, held, state, summary, in_lambda)
            elif isinstance(child, (ast.comprehension, ast.keyword)):
                for inner in ast.iter_child_nodes(child):
                    if isinstance(inner, ast.expr):
                        self._scan_expr(fn, inner, held, state, summary,
                                        in_lambda)

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------

    def transitive_acquisitions(
        self, summaries: dict[str, FunctionSummary]
    ) -> dict[str, set[str]]:
        """Fixpoint: which lock names each function may acquire, deeply.

        Unknown callees contribute nothing — coverage degrades, edges
        never appear from thin air.
        """
        may: dict[str, set[str]] = {
            key: {acq.site.name for acq in summary.acquisitions
                  if acq.site.name is not None}
            for key, summary in summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for key, summary in summaries.items():
                mine = may[key]
                before = len(mine)
                for site in summary.calls:
                    if site.in_lambda or site.callee is None:
                        continue
                    mine |= may.get(site.callee, set())
                if len(mine) != before:
                    changed = True
        return may


def build_program(contexts: Iterable[object]) -> Program:
    """A :class:`Program` from parsed file contexts.

    ``contexts`` is any iterable of objects with ``path``, ``module``
    and ``tree`` attributes (the engine's ``FileContext`` values).
    """
    program = Program()
    for context in contexts:
        program.add_module(
            getattr(context, "module"),
            getattr(context, "path"),
            getattr(context, "tree"),
        )
    return program


def _rw_mode(expr: ast.expr) -> str | None:
    """``"read"``/``"write"`` for ``...read_locked()``/``...write_locked()``."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr == "write_locked":
            return "write"
        if expr.func.attr == "read_locked":
            return "read"
    return None


def iter_lambda_thunk_calls(tree: ast.Module) -> Iterator[int]:
    """``id()`` of every Call inside a lambda passed to ``<x>.call(...)``.

    RT007 treats those as guarded dispatch (the guard invokes the
    lambda); kept here so both the rule and its tests share one
    definition.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call"):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                for inner in ast.walk(arg):
                    if isinstance(inner, ast.Call):
                        yield id(inner)
