"""The project lint engine: rule registry, dispatch, suppressions, reports.

The engine is deliberately small and dependency-free: rules are plain
classes over :mod:`ast`, registered with the :func:`rule` decorator, and
dispatched once per file through a shared :class:`FileContext` (parsed
tree, source lines, module name, suppression comments).  It exists
because this repository has invariants a generic linter cannot know —
which calls need the service's write lock, which mutations must ride the
WAL — and those are exactly the invariants the paper's correctness
arguments rest on (see ``docs/DEVTOOLS.md`` for the rule-by-rule
rationale).

Rules come in two shapes.  Per-file rules (:class:`Rule`) see one
:class:`FileContext` at a time.  Whole-program rules
(:class:`ProgramRule`) run once per lint invocation over a
:class:`ProgramContext` — every parsed file plus the shared
interprocedural call graph from :mod:`repro.devtools.callgraph` —
which is what lets the concurrency rules (RT001, RT007–RT010) follow
a call from :mod:`repro.service.service` into
:mod:`repro.continuous.registry` and see the locks acquired on the
far side.

Suppressions
------------
A finding is silenced by an allow comment **on the same physical line**
as the finding::

    tree.insert_poi(poi)  # repro: allow[RT001]

Several ids may share one comment (``# repro: allow[RT001, RT005]``).
Every allow comment must actually suppress something: a comment that
matches no finding is itself reported as :data:`META_UNUSED` so stale
suppressions cannot accumulate.  Files that fail to parse are reported
as :data:`META_PARSE_ERROR`.

Reporters
---------
:func:`render_text` prints one ``path:line:col: ID message`` row per
finding plus a summary line; :func:`render_json` emits a stable
machine-readable document (``version`` is bumped on any shape change)
for CI annotation tooling.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from typing import IO, Iterable, Iterator, Sequence, TypeVar

from repro.devtools.callgraph import Program, build_program

#: Meta finding id: an allow comment that suppressed nothing.
META_UNUSED = "RT000"
#: Meta finding id: the file could not be parsed.
META_PARSE_ERROR = "RT900"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")
_RULE_ID_RE = re.compile(r"^[A-Z]{2}\d{3}$")


class Finding:
    """One rule violation: where it is and what discipline it breaks."""

    __slots__ = ("rule_id", "path", "line", "col", "message")

    def __init__(self, rule_id: str, path: str, line: int, col: int,
                 message: str) -> None:
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __repr__(self) -> str:
        return "Finding(%s at %s:%d:%d)" % (
            self.rule_id, self.path, self.line, self.col,
        )


class Suppression:
    """One ``# repro: allow[...]`` comment and whether it earned its keep."""

    __slots__ = ("line", "rule_ids", "used")

    def __init__(self, line: int, rule_ids: tuple[str, ...]) -> None:
        self.line = line
        self.rule_ids = rule_ids
        self.used: set[str] = set()


class FileContext:
    """Everything a per-file rule may inspect about one file."""

    __slots__ = ("path", "module", "tree", "source", "suppressions")

    def __init__(self, path: str, module: str, tree: ast.Module,
                 source: str, suppressions: list[Suppression]) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.source = source
        self.suppressions = suppressions


class ProgramContext:
    """Everything a whole-program rule may inspect: all parsed files.

    ``program`` is the shared interprocedural call graph
    (:class:`~repro.devtools.callgraph.Program`) every program rule
    works from — built once per lint run, not per rule.  ``cache`` is
    a scratch mapping rules use to share derived analyses (the
    RT008/RT009/RT010 lock-flow pass runs once and is read three
    times).
    """

    __slots__ = ("files", "program", "cache")

    def __init__(self, files: list[FileContext]) -> None:
        self.files = files
        self.program: Program = build_program(files)
        self.cache: dict[str, object] = {}


class Rule:
    """Base class for lint rules; subclasses set the class attributes.

    ``rule_id`` is the stable id findings carry (``RTnnn``); ``name`` is
    a short kebab-case label and ``rationale`` one sentence on which
    project invariant the rule protects (both surface in ``--help`` and
    the docs).  :meth:`applies_to` gates dispatch by dotted module name;
    :meth:`check` yields :class:`Finding` values.
    """

    rule_id = ""
    name = ""
    rationale = ""

    def applies_to(self, module: str) -> bool:
        return True

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            self.rule_id,
            context.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


class ProgramRule(Rule):
    """A rule that runs once over the whole program, not per file.

    Subclasses implement :meth:`check_program`; :meth:`applies_to`
    still gates which modules the rule *reports in* (the engine uses
    it in single-file mode, and rules use it internally to scope their
    candidate set — call edges may cross into any module either way).
    """

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError(
            "%s is a whole-program rule; use check_program" % self.rule_id
        )

    def check_program(self, context: ProgramContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            self.rule_id,
            path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


_RULES: dict[str, Rule] = {}

_R = TypeVar("_R", bound="type[Rule]")


def rule(cls: _R) -> _R:
    """Class decorator registering one :class:`Rule` subclass."""
    instance = cls()
    if not _RULE_ID_RE.match(instance.rule_id):
        raise ValueError("rule id %r is not of the form AB123" % instance.rule_id)
    if instance.rule_id in _RULES:
        raise ValueError("duplicate rule id %r" % instance.rule_id)
    _RULES[instance.rule_id] = instance
    return cls


def registered_rules() -> dict[str, Rule]:
    """The registry: ``{rule_id: rule instance}`` (a copy)."""
    return dict(_RULES)


def rule_ids() -> list[str]:
    """Every selectable rule id, meta ids included, sorted."""
    return sorted(_RULES) + [META_UNUSED, META_PARSE_ERROR]


# ---------------------------------------------------------------------------
# File discovery and per-file dispatch
# ---------------------------------------------------------------------------


def module_name(path: str) -> str:
    """Dotted module name for ``path``, anchored at a ``repro`` component.

    ``.../src/repro/service/service.py`` maps to
    ``repro.service.service``; fixture trees laid out as
    ``<tmpdir>/repro/...`` resolve the same way, which is what lets the
    rule tests exercise module-scoped rules on temporary files.  A path
    with no ``repro`` component falls back to its bare stem.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    anchor = None
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            anchor = index
    if anchor is None:
        return stem
    dotted = parts[anchor:-1]
    if stem != "__init__":
        dotted = dotted + [stem]
    return ".".join(dotted)


def _parse_suppressions(source: str) -> list[Suppression]:
    suppressions = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            matches = list(_ALLOW_RE.finditer(token.string))
            if not matches:
                continue
            # One comment may carry several groups and several ids per
            # group (an ``allow[RT008,RT009]`` list); collapse to one
            # Suppression with the ids deduplicated in order, so each
            # id is tracked (and RT000-reported when unused) exactly
            # once per line.
            ids: list[str] = []
            for match in matches:
                for part in match.group(1).split(","):
                    part = part.strip()
                    if part and part not in ids:
                        ids.append(part)
            suppressions.append(Suppression(token.start[0], tuple(ids)))
    except tokenize.TokenError:
        pass  # the ast parse reports the real problem
    return suppressions


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under ``paths`` (sorted, hidden dirs skipped)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _parse_file(path: str) -> "FileContext | Finding":
    """Parse one file into a context, or the RT900 finding."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            META_PARSE_ERROR,
            path,
            exc.lineno or 1,
            (exc.offset or 0) + 1,
            "file does not parse: %s" % exc.msg,
        )
    return FileContext(
        path, module_name(path), tree, source, _parse_suppressions(source)
    )


def lint_file(path: str, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run ``rules`` (default: all registered) over one file.

    Whole-program rules see a one-file program here — the form the
    rule fixtures use; ``lint_paths`` runs them over everything at
    once.
    """
    if rules is None:
        rules = _RULES.values()
    parsed = _parse_file(path)
    if isinstance(parsed, Finding):
        return [parsed]
    context = parsed
    findings = []
    program_context: ProgramContext | None = None
    for candidate in rules:
        if not candidate.applies_to(context.module):
            continue
        if isinstance(candidate, ProgramRule):
            if program_context is None:
                program_context = ProgramContext([context])
            produced: Iterable[Finding] = candidate.check_program(program_context)
        else:
            produced = candidate.check(context)
        for finding in produced:
            if not _suppressed(context, finding):
                findings.append(finding)
    findings.extend(_unused_suppressions(context))
    return findings


def _suppressed(context: FileContext, finding: Finding) -> bool:
    for suppression in context.suppressions:
        if suppression.line == finding.line and finding.rule_id in suppression.rule_ids:
            suppression.used.add(finding.rule_id)
            return True
    return False


def _unused_suppressions(context: FileContext) -> Iterator[Finding]:
    for suppression in context.suppressions:
        if not suppression.rule_ids:
            yield Finding(
                META_UNUSED, context.path, suppression.line, 1,
                "empty allow[] comment suppresses nothing; list rule ids "
                "or remove it",
            )
            continue
        for rule_id in suppression.rule_ids:
            if rule_id in suppression.used:
                continue
            if rule_id in _RULES:
                message = (
                    "unused suppression: no %s finding on this line; "
                    "remove the allow comment" % rule_id
                )
            else:
                message = (
                    "unknown rule id %r in allow comment (known: %s)"
                    % (rule_id, ", ".join(sorted(_RULES)))
                )
            yield Finding(META_UNUSED, context.path, suppression.line, 1, message)


def lint_paths(
    paths: Sequence[str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    artifacts: dict[str, object] | None = None,
) -> tuple[list[Finding], int]:
    """Lint every Python file under ``paths``.

    ``select`` restricts to the given rule ids; ``ignore`` drops ids
    from whatever is selected (meta findings included).  Returns the
    sorted findings and the number of files checked.  Unknown ids raise
    ``ValueError`` — the CLI maps that to its usage exit code.

    ``artifacts``, when a dict is passed, receives side products of the
    whole-program pass — currently ``"lock_edges"``, the derived
    lock-order edges RT008 computed (for ``repro lint --lock-graph``).
    """
    known = set(rule_ids())
    selected = set(known if select is None else select)
    ignored = set(ignore) if ignore else set()
    for rule_id in (selected | ignored) - known:
        raise ValueError("unknown rule id %r (known: %s)"
                         % (rule_id, ", ".join(sorted(known))))
    active = selected - ignored
    rules = [r for rule_id, r in sorted(_RULES.items()) if rule_id in active]
    file_rules = [r for r in rules if not isinstance(r, ProgramRule)]
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]
    findings = []
    contexts: list[FileContext] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        parsed = _parse_file(path)
        if isinstance(parsed, Finding):
            if parsed.rule_id in active:
                findings.append(parsed)
            continue
        contexts.append(parsed)
    by_path = {context.path: context for context in contexts}
    for context in contexts:
        for candidate in file_rules:
            if not candidate.applies_to(context.module):
                continue
            for finding in candidate.check(context):
                if not _suppressed(context, finding):
                    findings.append(finding)
    if program_rules and contexts:
        program_context = ProgramContext(contexts)
        for candidate in program_rules:
            for finding in candidate.check_program(program_context):
                owner = by_path.get(finding.path)
                if owner is None or not _suppressed(owner, finding):
                    findings.append(finding)
        if artifacts is not None:
            artifacts["lock_edges"] = program_context.cache.get(
                "lock_edges", []
            )
    for context in contexts:
        for finding in _unused_suppressions(context):
            if finding.rule_id in active:
                findings.append(finding)
    findings = [f for f in findings if f.rule_id in active]
    findings.sort(key=Finding.sort_key)
    return findings, files_checked


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def render_text(findings: Sequence[Finding], files_checked: int,
                out: IO[str]) -> None:
    """The human report: one row per finding plus a summary line."""
    for finding in findings:
        print(
            "%s:%d:%d: %s %s"
            % (finding.path, finding.line, finding.col, finding.rule_id,
               finding.message),
            file=out,
        )
    if findings:
        print(
            "%d finding(s) in %d file(s) checked" % (len(findings), files_checked),
            file=out,
        )
    else:
        print("clean: %d file(s) checked" % files_checked, file=out)


def render_json(findings: Sequence[Finding], files_checked: int,
                out: IO[str]) -> None:
    """The machine report; ``version`` guards the shape for CI tooling."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload = {
        "version": 1,
        "files_checked": files_checked,
        "counts": {key: counts[key] for key in sorted(counts)},
        "findings": [finding.as_dict() for finding in findings],
    }
    json.dump(payload, out, indent=2, sort_keys=False)
    out.write("\n")


# ---------------------------------------------------------------------------
# Shared AST helper
# ---------------------------------------------------------------------------


def call_name(node: ast.Call) -> str | None:
    """The called name: ``f`` for ``f(...)``, ``m`` for ``obj.m(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
