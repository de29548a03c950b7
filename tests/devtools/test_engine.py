"""Engine mechanics: suppressions, meta findings, selection, reporters."""

import io
import json

import pytest

from repro.devtools import (
    META_PARSE_ERROR,
    META_UNUSED,
    lint_paths,
    registered_rules,
    render_json,
    render_text,
    rule_ids,
)
from repro.devtools.engine import module_name

from tests.devtools.conftest import rule_ids_of


class TestModuleNames:
    def test_anchored_at_the_last_repro_component(self, tmp_path):
        path = tmp_path / "repro" / "service" / "service.py"
        assert module_name(str(path)) == "repro.service.service"

    def test_init_maps_to_the_package(self, tmp_path):
        path = tmp_path / "repro" / "service" / "__init__.py"
        assert module_name(str(path)) == "repro.service"

    def test_unanchored_path_falls_back_to_the_stem(self, tmp_path):
        assert module_name(str(tmp_path / "scratch.py")) == "scratch"


class TestSuppressions:
    def test_same_line_allow_comment_silences_the_finding(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            def f(x):
                assert x  # repro: allow[RT003]
            """,
        )
        assert findings == []

    def test_allow_comment_on_another_line_does_not_apply(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            # repro: allow[RT003]
            def f(x):
                assert x
            """,
        )
        assert set(rule_ids_of(findings)) == {"RT003", META_UNUSED}

    def test_one_comment_may_carry_several_ids(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def f(tree, poi):
                tree.insert_poi(poi)  # repro: allow[RT001, RT002]
            """,
        )
        assert findings == []

    def test_unused_suppression_is_reported(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            x = 1  # repro: allow[RT003]
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]
        assert "unused suppression" in findings[0].message

    def test_unknown_rule_id_in_comment_is_reported(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            x = 1  # repro: allow[XX123]
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]
        assert "unknown rule id" in findings[0].message

    def test_multi_id_comment_silences_two_rules_on_one_line(self, lint_source):
        # RT008 (rank ascent at the inner acquisition) and RT009 (sleep
        # under the exclusive locks) land on the same physical line; one
        # allow list covers both.
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            import time

            class Registry:
                def bad(self):
                    with self._mutex:
                        with self._advance_gate: time.sleep(0.1)  # repro: allow[RT008, RT009]
            """,
        )
        assert findings == []

    def test_unused_ids_in_a_multi_id_comment_report_per_id(self, lint_source):
        # RT008 fires and is suppressed; RT009 does not fire on the line,
        # so that id alone comes back as RT000.
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._mutex:
                        with self._advance_gate:  # repro: allow[RT008, RT009]
                            pass
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]
        assert "no RT009 finding" in findings[0].message

    def test_empty_allow_comment_is_reported(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            x = 1  # repro: allow[]
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]
        assert "empty allow[]" in findings[0].message

    def test_several_allow_groups_on_one_line_collapse(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            def f(x):
                assert x  # repro: allow[RT003]  # repro: allow[RT005]
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]
        assert "no RT005 finding" in findings[0].message

    def test_duplicate_ids_in_one_comment_report_once(self, lint_source):
        findings = lint_source(
            "repro/core/mod.py",
            """
            x = 1  # repro: allow[RT003, RT003]
            """,
        )
        assert rule_ids_of(findings) == [META_UNUSED]


class TestParseErrors:
    def test_syntax_error_yields_the_meta_finding(self, lint_source):
        findings = lint_source("repro/core/broken.py", "def f(:\n")
        assert rule_ids_of(findings) == [META_PARSE_ERROR]


class TestSelection:
    def write_fixture(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("def f(x):\n    assert x\n")
        return tmp_path

    def test_select_restricts_to_the_given_rules(self, tmp_path):
        root = self.write_fixture(tmp_path)
        findings, files = lint_paths([str(root)], select=["RT003"])
        assert rule_ids_of(findings) == ["RT003"]
        assert files == 1
        findings, _ = lint_paths([str(root)], select=["RT004"])
        assert findings == []

    def test_ignore_drops_rules(self, tmp_path):
        root = self.write_fixture(tmp_path)
        findings, _ = lint_paths([str(root)], ignore=["RT003"])
        assert findings == []

    def test_unknown_ids_raise(self, tmp_path):
        root = self.write_fixture(tmp_path)
        with pytest.raises(ValueError):
            lint_paths([str(root)], select=["RT999"])
        with pytest.raises(ValueError):
            lint_paths([str(root)], ignore=["bogus"])

    def test_pycache_and_hidden_dirs_are_skipped(self, tmp_path):
        root = self.write_fixture(tmp_path)
        for skipped in ("__pycache__", ".hidden"):
            side = root / "repro" / skipped
            side.mkdir()
            (side / "junk.py").write_text("assert True\n")
        findings, files = lint_paths([str(root)])
        assert files == 1
        assert len(findings) == 1


class TestReporters:
    def findings(self, tmp_path):
        path = tmp_path / "repro" / "core" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("def f(x):\n    assert x\n")
        return lint_paths([str(tmp_path)])

    def test_text_report_rows_and_summary(self, tmp_path):
        findings, files = self.findings(tmp_path)
        out = io.StringIO()
        render_text(findings, files, out)
        text = out.getvalue()
        assert "mod.py:2:5: RT003" in text
        assert "1 finding(s) in 1 file(s) checked" in text

    def test_text_report_clean_summary(self):
        out = io.StringIO()
        render_text([], 7, out)
        assert out.getvalue() == "clean: 7 file(s) checked\n"

    def test_json_report_shape_is_stable(self, tmp_path):
        findings, files = self.findings(tmp_path)
        out = io.StringIO()
        render_json(findings, files, out)
        payload = json.loads(out.getvalue())
        assert sorted(payload) == ["counts", "files_checked", "findings", "version"]
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"RT003": 1}
        (row,) = payload["findings"]
        assert sorted(row) == ["col", "line", "message", "path", "rule"]
        assert row["rule"] == "RT003"
        assert row["line"] == 2


class TestRegistry:
    def test_all_ten_project_rules_are_registered(self):
        # Eleven ids were issued; RT006 (warn-stacklevel) was retired
        # with the last warnings.warn call and is not reused.
        assert sorted(registered_rules()) == [
            "RT001", "RT002", "RT003", "RT004", "RT005", "RT007",
            "RT008", "RT009", "RT010", "RT011",
        ]

    def test_rule_ids_include_the_meta_ids(self):
        ids = rule_ids()
        assert META_UNUSED in ids
        assert META_PARSE_ERROR in ids

    def test_every_rule_documents_itself(self):
        for rule in registered_rules().values():
            assert rule.name
            assert rule.rationale
            assert rule.__doc__
