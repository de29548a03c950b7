"""Project-specific static analysis (``python -m repro lint``).

The devtools package is the repository's correctness tooling: an
AST-based lint engine (:mod:`repro.devtools.engine`) plus the rules
(:mod:`repro.devtools.rules`) that encode invariants a generic linter
cannot know — the service's readers-writer lock protocol (RT001), the
WAL-before-apply contract (RT002), ``-O``-proof invariant checks
(RT003), float-comparison hygiene in the numeric core (RT004),
exception hygiene on the reliability surface (RT005), guarded shard
dispatch (RT007), and the whole-program concurrency rules: lock ordering
against the canonical hierarchy (RT008), no blocking under exclusive
locks (RT009) and no foreign callbacks under engine locks (RT010).
The concurrency rules share one interprocedural pass over the
cross-module call graph (:mod:`repro.devtools.callgraph`); the
hierarchy itself is declared once in :mod:`repro.devtools.lockmodel`
and witnessed at runtime by
:class:`repro.devtools.watchdog.LockOrderWatchdog`
(``REPRO_LOCK_WATCHDOG=1``).  ``docs/DEVTOOLS.md`` documents every
rule and the suppression syntax (``# repro: allow[RT001]``, or
``# repro: allow[RT008,RT009]`` for several rules on one line).

The package is import-light on purpose (stdlib only) so ``repro lint``
runs anywhere the tests run, including the dependency-free CI legs.
"""

from repro.devtools import rules  # noqa: F401  (registers the rules)
from repro.devtools.engine import (
    META_PARSE_ERROR,
    META_UNUSED,
    FileContext,
    Finding,
    ProgramContext,
    ProgramRule,
    Rule,
    lint_file,
    lint_paths,
    registered_rules,
    render_json,
    render_text,
    rule,
    rule_ids,
)
from repro.devtools.lockmodel import (
    HIERARCHY,
    render_graph_dot,
    render_graph_json,
)
from repro.devtools.watchdog import (
    LockOrderViolation,
    LockOrderWatchdog,
)

__all__ = [
    "Finding",
    "FileContext",
    "ProgramContext",
    "ProgramRule",
    "Rule",
    "rule",
    "rule_ids",
    "registered_rules",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "META_UNUSED",
    "META_PARSE_ERROR",
    "HIERARCHY",
    "render_graph_json",
    "render_graph_dot",
    "LockOrderWatchdog",
    "LockOrderViolation",
]
