"""The promised public surface of the ``repro`` package."""

import inspect
import math
import os
import subprocess
import sys

import pytest

import repro


# The full promised surface: a change here is an API change and needs a
# matching entry in repro.__init__ (and usually a docs update).
EXPECTED_EXPORTS = [
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


def test_all_matches_module_contents():
    assert sorted(repro.__all__) == sorted(EXPECTED_EXPORTS)
    for name in EXPECTED_EXPORTS:
        assert hasattr(repro, name), name


def test_query_entry_point_signatures():
    # Every query entry point takes one KNNTAQuery value (a batch, a
    # sequence of them); the tree's two take per-call access stats and
    # inclusive score cutoffs (a cluster's running k-th score: one for a
    # single query, one per rider for a batch).
    assert list(inspect.signature(repro.TARTree.query).parameters) == [
        "self",
        "query",
        "normalizer",
        "stats",
        "cutoff",
    ]
    assert list(inspect.signature(repro.TARTree.query_batch).parameters) == [
        "self",
        "queries",
        "normalizers",
        "stats",
        "cutoffs",
    ]
    robust = inspect.signature(repro.TARTree.robust_query)
    assert list(robust.parameters)[:2] == ["self", "query"]
    assert list(inspect.signature(repro.knnta_search).parameters)[:2] == [
        "tree",
        "query",
    ]
    assert list(inspect.signature(repro.robust_knnta).parameters)[:2] == [
        "tree",
        "query",
    ]
    assert list(inspect.signature(repro.sequential_scan).parameters)[:2] == [
        "tree",
        "query",
    ]


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_distribution_metadata_matches_the_package():
    # Build metadata left beside the sources (a stale src/repro.egg-info)
    # would report another version and Python floor than the package.
    from importlib import metadata

    found = {d.version for d in metadata.distributions() if d.name == "repro"}
    assert found <= {repro.__version__}, found


def test_subpackages_importable():
    import repro.analysis
    import repro.cli
    import repro.datasets
    import repro.skyline
    import repro.spatial
    import repro.storage
    import repro.temporal

    assert callable(repro.cli.main)
    assert callable(repro.datasets.make)


def test_import_does_not_load_scipy():
    # Only CostModel needs scipy; every process that imports repro (a
    # shard worker above all) would otherwise pay its import time and
    # memory.
    source = os.path.dirname(os.path.dirname(repro.__file__))
    probe = (
        "import sys, repro, repro.cluster.workers; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=source),
    )
    assert result.stdout.strip() == "[]"


class TestDevtoolsSurface:
    """The static-analysis toolchain is public API (docs/DEVTOOLS.md)."""

    EXPECTED = [
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

    def test_exports(self):
        import repro.devtools

        assert sorted(repro.devtools.__all__) == sorted(self.EXPECTED)
        for name in self.EXPECTED:
            assert hasattr(repro.devtools, name), name

    def test_rule_registry_covers_documented_ids(self):
        import repro.devtools

        assert repro.devtools.rule_ids() == [
            "RT001",
            "RT002",
            "RT003",
            "RT004",
            "RT005",
            "RT007",
            "RT008",
            "RT009",
            "RT010",
            "RT011",
            repro.devtools.META_UNUSED,
            repro.devtools.META_PARSE_ERROR,
        ]

    def test_stdlib_only(self):
        # The lint engine must keep running on the dependency-free CI
        # legs: its own modules may import only the stdlib and each
        # other (checked statically — importing the package at runtime
        # always executes repro/__init__, which pulls in numpy).
        import ast

        import repro.devtools

        package_dir = os.path.dirname(
            os.path.abspath(repro.devtools.__file__)
        )
        for filename in sorted(os.listdir(package_dir)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(package_dir, filename)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    roots = [(node.module or "").split(".")[0]]
                else:
                    continue
                for root in roots:
                    assert root not in {"numpy", "scipy"}, (
                        "%s imports %s" % (filename, root)
                    )
                    if root == "repro":
                        module = getattr(node, "module", None) or ""
                        assert module.startswith("repro.devtools"), (
                            "%s imports outside repro.devtools: %s"
                            % (filename, module)
                        )


class TestTypedDistribution:
    def test_py_typed_marker_ships_with_the_package(self):
        # PEP 561: the marker must live inside the package directory...
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        marker = os.path.join(package_dir, "py.typed")
        assert os.path.exists(marker)

    def test_py_typed_marker_is_declared_as_package_data(self):
        # ...and be declared in pyproject so wheels include it.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as handle:
            pyproject = handle.read()
        assert "[tool.setuptools.package-data]" in pyproject
        assert 'repro = ["py.typed"]' in pyproject


def test_every_public_callable_has_a_docstring():
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(repro, name)
        assert getattr(obj, "__doc__", None), "%s lacks a docstring" % name


class TestInputHardening:
    def test_poi_rejects_nan_coordinates(self):
        with pytest.raises(ValueError):
            repro.POI("p", float("nan"), 1.0)

    def test_poi_rejects_infinite_coordinates(self):
        with pytest.raises(ValueError):
            repro.POI("p", 1.0, math.inf)

    def test_rect_rejects_nan_bounds(self):
        from repro.spatial.geometry import Rect

        with pytest.raises(ValueError):
            Rect((float("nan"), 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            Rect((0.0, 0.0), (1.0, float("nan")))
