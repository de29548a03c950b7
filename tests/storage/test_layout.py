"""A tree snapshot stores the node layout and reopens exactly that tree."""

import json
import random

import pytest

from repro.core.query import KNNTAQuery
from repro.storage.serialize import (
    CorruptSnapshotError,
    _crc_json,
    load_tree,
    save_tree,
)
from repro.temporal.epochs import TimeInterval

from .conftest import bulk_built, insert_built


def layout(tree):
    """Every node breadth-first: its level, then per entry the leaf id
    (or None) and the grouping rect, MBR and per-epoch maxima."""
    nodes = []
    order = [tree.root]
    for node in order:
        entries = []
        for entry in node.entries:
            entries.append(
                (
                    entry.item if entry.child is None else None,
                    entry.rect.lows,
                    entry.rect.highs,
                    entry.mbr.lows,
                    entry.mbr.highs,
                    tuple(entry.tia.items()),
                )
            )
            if entry.child is not None:
                order.append(entry.child)
        nodes.append((node.level, entries))
    return nodes


def reload(tree, tmp_path, name="tree.json"):
    path = tmp_path / name
    save_tree(tree, path)
    return load_tree(path)


class TestLayoutIdentity:
    def test_bulk_built_tree_reloads_node_for_node(self, bulk_tree, tmp_path):
        reloaded = reload(bulk_tree, tmp_path)
        assert reloaded.height == 3
        assert layout(reloaded) == layout(bulk_tree)
        reloaded.check_invariants()

    def test_mutated_tree_reloads_node_for_node(self, mutated_tree, tmp_path):
        # Re-deriving z from the histories would move these leaves.
        moved = [
            poi_id
            for poi_id in mutated_tree.poi_ids()
            if mutated_tree.strategy.leaf_rect(mutated_tree.poi(poi_id), mutated_tree)
            != next(
                entry.rect
                for entry in mutated_tree._leaf_of[poi_id].entries
                if entry.item == poi_id
            )
        ]
        assert moved
        reloaded = reload(mutated_tree, tmp_path)
        assert layout(reloaded) == layout(mutated_tree)
        assert list(reloaded.poi_ids()) == list(mutated_tree.poi_ids())
        reloaded.check_invariants()


@pytest.mark.parametrize(
    "build",
    [
        lambda: bulk_built("integral3d"),
        lambda: bulk_built("spatial"),
        # IND-agg cannot be bulk loaded.
        lambda: insert_built("aggregate"),
    ],
    ids=["integral3d", "spatial", "aggregate"],
)
def test_reloaded_tree_makes_the_same_node_accesses(build, tmp_path):
    tree = build()
    reloaded = reload(tree, tmp_path)
    rng = random.Random(11)
    for _ in range(40):
        start = rng.uniform(0.0, 10.0)
        query = KNNTAQuery(
            (rng.random() * 100, rng.random() * 100),
            TimeInterval(start, start + rng.uniform(1.0, 6.0)),
            k=rng.choice((1, 5, 10)),
            alpha0=rng.random(),
        )
        costs = []
        for candidate in (tree, reloaded):
            before = candidate.stats.snapshot()
            answer = candidate.query(query)
            accesses = candidate.stats.diff(before).as_dict()
            costs.append(
                (
                    [(row.poi_id, row.score) for row in answer],
                    accesses["rtree_internal"],
                    accesses["rtree_leaf"],
                )
            )
        assert costs[0] == costs[1]


class TestStructuralChecks:
    """A ``nodes`` section with a valid CRC but inconsistent content."""

    @pytest.fixture()
    def snapshot(self, bulk_tree, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(bulk_tree, path)
        return path

    @staticmethod
    def tamper(path, edit):
        payload = json.loads(path.read_text())
        nodes = payload["sections"]["nodes"]
        edit(nodes)
        payload["checksums"]["nodes"] = _crc_json(nodes)
        path.write_text(json.dumps(payload))

    @staticmethod
    def first_leaf(nodes):
        return next(node for node in nodes if node[0] == 0)

    def refused(self, path, match):
        with pytest.raises(CorruptSnapshotError, match=match) as excinfo:
            load_tree(path)
        assert excinfo.value.section == "nodes"

    def test_poi_placed_twice(self, snapshot):
        def edit(nodes):
            members = self.first_leaf(nodes)[1]
            members[1][0] = members[0][0]

        self.tamper(snapshot, edit)
        self.refused(snapshot, "already placed")

    def test_poi_missing(self, snapshot):
        self.tamper(snapshot, lambda nodes: self.first_leaf(nodes)[1].pop())
        self.refused(snapshot, "in no leaf")

    def test_node_over_capacity(self, snapshot):
        def edit(nodes):
            leaf = self.first_leaf(nodes)
            leaf[1] = leaf[1] * 2

        self.tamper(snapshot, edit)
        self.refused(snapshot, "holds at most 17")

    def test_child_at_the_wrong_level(self, snapshot):
        def edit(nodes):
            # A level-1 node relabelled level 2 now links leaves.
            next(node for node in nodes if node[0] == 1)[0] = 2

        self.tamper(snapshot, edit)
        self.refused(snapshot, "at level 2 links node .* at level 0")
