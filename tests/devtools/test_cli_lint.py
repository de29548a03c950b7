"""The ``repro lint`` command and the shipped tree's self-check."""

import io
import json
import os
import time

from repro.cli import main
from repro.devtools.engine import _parse_suppressions

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestShippedTreeSelfCheck:
    def test_lint_src_is_clean(self):
        code, text = run(["lint", SRC])
        assert code == 0, text
        assert text.startswith("clean:")

    def test_lint_src_stays_inside_the_wall_clock_budget(self):
        # The whole-program pass (call graph + lock flow) must stay
        # cheap enough to run on every push; CI holds the same 30s line.
        start = time.monotonic()
        code, _ = run(["lint", SRC])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 30.0, "lint took %.1fs (budget: 30s)" % elapsed

    def test_no_lock_or_wal_suppressions_shipped(self):
        # The acceptance bar for RT001/RT002 is zero allow comments: the
        # lock and WAL disciplines hold structurally, not by exemption.
        # The engine's tokenizer-based parser is used so syntax examples
        # in docstrings do not count.
        offenders = []
        for dirpath, dirnames, filenames in os.walk(SRC):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                for suppression in _parse_suppressions(source):
                    if {"RT001", "RT002"} & set(suppression.rule_ids):
                        offenders.append("%s:%d" % (path, suppression.line))
        assert offenders == []


class TestLintCommand:
    def write_fixture(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("def f(x):\n    assert x\n")
        return tmp_path

    def test_findings_exit_1_with_rows(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(["lint", str(root)])
        assert code == 1
        assert "RT003" in text
        assert "1 finding(s)" in text

    def test_json_format_is_machine_readable(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(["lint", str(root), "--format", "json"])
        assert code == 1
        payload = json.loads(text)
        assert payload["version"] == 1
        assert payload["counts"] == {"RT003": 1}
        assert payload["findings"][0]["rule"] == "RT003"

    def test_select_and_ignore(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, _ = run(["lint", str(root), "--select", "RT004"])
        assert code == 0
        code, _ = run(["lint", str(root), "--ignore", "RT003"])
        assert code == 0
        code, text = run(["lint", str(root), "--select", "RT003,RT004"])
        assert code == 1

    def test_unknown_rule_id_exits_2(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(["lint", str(root), "--select", "RT999"])
        assert code == 2
        assert "unknown rule id" in text

    def test_missing_path_exits_2(self, tmp_path):
        code, text = run(["lint", str(tmp_path / "nope")])
        assert code == 2
        assert "no such path" in text

    def test_single_file_argument(self, tmp_path):
        root = self.write_fixture(tmp_path)
        target = root / "repro" / "core" / "mod.py"
        code, text = run(["lint", str(target)])
        assert code == 1
        assert "RT003" in text


class TestLockGraph:
    def write_fixture(self, tmp_path, ascend=False):
        outer = "self._mutex" if ascend else "self._advance_gate"
        inner = "self._advance_gate" if ascend else "self._mutex"
        path = tmp_path / "repro" / "continuous" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "class Registry:\n"
            "    def nest(self):\n"
            "        with %s:\n"
            "            with %s:\n"
            "                pass\n" % (outer, inner)
        )
        return tmp_path

    def test_dot_output_and_exit_0_when_acyclic(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(["lint", str(root), "--lock-graph"])
        assert code == 0
        assert text.startswith("digraph lock_order {")
        assert '"advance-gate" -> "registry"' in text

    def test_json_output_carries_nodes_and_edges(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(
            ["lint", str(root), "--lock-graph", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["acyclic"] is True
        names = [node["name"] for node in payload["nodes"]]
        assert "advance-gate" in names and "registry" in names
        (edge,) = payload["edges"]
        assert (edge["src"], edge["dst"], edge["ok"]) == (
            "advance-gate", "registry", True
        )

    def test_violating_edge_exits_1_and_is_marked(self, tmp_path):
        root = self.write_fixture(tmp_path, ascend=True)
        code, text = run(
            ["lint", str(root), "--lock-graph", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["acyclic"] is False
        (edge,) = payload["edges"]
        assert (edge["src"], edge["dst"], edge["ok"]) == (
            "registry", "advance-gate", False
        )

    def test_lock_graph_requires_the_rt008_pass(self, tmp_path):
        root = self.write_fixture(tmp_path)
        code, text = run(
            ["lint", str(root), "--lock-graph", "--select", "RT003"]
        )
        assert code == 2
        assert "RT008" in text
        code, text = run(
            ["lint", str(root), "--lock-graph", "--ignore", "RT008"]
        )
        assert code == 2

    def test_shipped_tree_graph_is_acyclic(self):
        code, text = run(
            ["lint", SRC, "--lock-graph", "--format", "json"]
        )
        assert code == 0, text
        payload = json.loads(text)
        assert payload["acyclic"] is True
        assert payload["edges"], "the engine nests locks somewhere"
        for edge in payload["edges"]:
            assert edge["ok"] is True, edge
