"""Deep invariant validators: clean trees pass, damage is reported."""

import random

import pytest

from repro import POI, TARTree
from repro.reliability.validate import validate_against_dataset, validate_tree
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock


def build_tree(pois=80, seed=1, **kwargs):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (50.0, 50.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=10.0,
        tia_backend="memory",
        **kwargs,
    )
    for i in range(pois):
        history = {e: rng.randrange(1, 7) for e in range(10) if rng.random() < 0.5}
        tree.insert_poi(POI(i, rng.random() * 50, rng.random() * 50), history)
    return tree


def first_internal_entry(tree):
    assert not tree.root.is_leaf, "tree too small to have internal entries"
    return tree.root.entries[0]


class TestValidateTree:
    def test_clean_tree_passes_with_coverage(self):
        tree = build_tree()
        report = validate_tree(tree)
        assert report.ok
        assert report.checked_pois == len(tree)
        assert report.checked_nodes == tree.node_count()
        assert "no violations" in report.summary()

    def test_max_invariant_violation_detected(self):
        tree = build_tree()
        entry = first_internal_entry(tree)
        entry.tia.replace_all({0: 1})  # lie about the children's maxima
        report = validate_tree(tree)
        assert not report.ok
        assert "max-invariant" in report.codes()

    def test_raised_internal_tia_also_detected(self):
        # Property 1 only needs an upper bound, but the repo maintains
        # *exact* per-epoch maxima; inflation must be flagged too.
        tree = build_tree()
        entry = first_internal_entry(tree)
        inflated = dict(entry.tia.items())
        inflated[0] = inflated.get(0, 0) + 1000
        entry.tia.replace_all(inflated)
        assert "max-invariant" in validate_tree(tree).codes()

    def test_stale_mbr_detected(self):
        tree = build_tree()
        entry = first_internal_entry(tree)
        entry.mbr = Rect((0.0, 0.0), (49.0, 49.0)).union(entry.mbr)
        report = validate_tree(tree)
        assert "mbr" in report.codes()

    def test_size_bookkeeping_violation(self):
        tree = build_tree()
        victim = next(iter(tree.poi_ids()))
        del tree._pois[victim]
        report = validate_tree(tree)
        assert not report.ok
        assert "size" in report.codes() or "unknown-poi" in report.codes()

    def test_broken_parent_pointer(self):
        tree = build_tree()
        child = tree.root.entries[0].child
        child.parent = None
        assert "parent-pointer" in validate_tree(tree).codes()

    def test_summary_caps_output(self):
        tree = build_tree()
        for entry in tree.root.entries:
            entry.tia.replace_all({0: 1})
        report = validate_tree(tree)
        text = report.summary(limit=1)
        assert "and %d more" % (len(report.violations) - 1) in text

    def test_raise_if_failed(self):
        tree = build_tree()
        first_internal_entry(tree).tia.replace_all({0: 1})
        with pytest.raises(AssertionError):
            validate_tree(tree).raise_if_failed()

    def test_check_invariants_delegates(self):
        # The tree method must keep raising on damage (even under -O).
        tree = build_tree()
        tree.check_invariants()
        first_internal_entry(tree).tia.replace_all({0: 1})
        with pytest.raises(AssertionError):
            tree.check_invariants()


class TestValidateAgainstDataset:
    def test_built_tree_matches_its_dataset(self, small_dataset):
        tree = TARTree.build(small_dataset, tia_backend="memory")
        report = validate_against_dataset(tree, small_dataset)
        assert report.ok
        assert report.checked_pois == len(tree)

    def test_lagging_tree_reports_missing_history(self, small_dataset):
        # Index a 60% prefix of the history; the tree's TIAs then lag the
        # full data set -- recoverable, so only "missing-history".
        tree = TARTree.build(small_dataset.snapshot(0.6), tia_backend="memory")
        report = validate_against_dataset(tree, small_dataset)
        assert not report.ok
        assert report.codes() == ["missing-history"]

    def test_caught_up_tree_passes(self, small_dataset):
        from repro.datasets.streaming import catch_up

        tree = TARTree.build(small_dataset.snapshot(0.6), tia_backend="memory")
        catch_up(tree, small_dataset)
        assert validate_against_dataset(tree, small_dataset).ok

    def test_tampered_history_is_a_mismatch(self, small_dataset):
        tree = TARTree.build(small_dataset, tia_backend="memory")
        poi_id = next(iter(tree.poi_ids()))
        tia = tree.poi_tia(poi_id)
        history = dict(tia.items())
        epoch = next(iter(history))
        history[epoch] += 5  # over-count: not recoverable lag
        tia.replace_all(history)
        report = validate_against_dataset(tree, small_dataset)
        assert "history-mismatch" in report.codes()

    def test_foreign_poi_reported(self, small_dataset):
        tree = TARTree.build(small_dataset, tia_backend="memory")
        tree.insert_poi(POI("ghost", *next(iter(small_dataset.positions.values()))))
        report = validate_against_dataset(tree, small_dataset)
        assert "foreign-poi" in report.codes()

    def test_merge_with_structural_report(self, small_dataset):
        tree = TARTree.build(small_dataset, tia_backend="memory")
        merged = validate_tree(tree).extend(
            validate_against_dataset(tree, small_dataset)
        )
        assert merged.ok
        # Both passes check the same POIs; each counts once.
        assert merged.checked_pois == len(tree)
