"""Packed node frames: coherence, invalidation and bit-identical answers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import POI, TARTree, TimeInterval
from repro.core.collective import CollectiveProcessor
from repro.core.frames import FrameStore, build_frame
from repro.core.knnta import knnta_browse, knnta_search
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import AggregateKind, IntervalSemantics


def build_tree(n=120, seed=0, node_size=None, aggregate_kind=AggregateKind.SUM):
    rng = random.Random(seed)
    kwargs = {} if node_size is None else {"node_size": node_size}
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        aggregate_kind=aggregate_kind,
        **kwargs,
    )
    for i in range(n):
        history = {
            e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4
        }
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    return tree


def all_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        for entry in node.entries:
            if entry.child is not None:
                stack.append(entry.child)


def warm_frames(tree):
    for node in all_nodes(tree):
        assert tree.frames.frame(node) is not None


def fresh_frame(tree, node):
    return build_frame(node, tree.aggregate_kind is not AggregateKind.MAX)


def assert_frames_byte_equal(tree):
    """Every served frame matches a fresh object-layer build, byte for byte."""
    for node in all_nodes(tree):
        packed = tree.frames.frame(node)
        fresh = fresh_frame(tree, node)
        assert packed.coords.tobytes() == fresh.coords.tobytes()
        assert packed.epochs == fresh.epochs
        assert packed.table.typecode == fresh.table.typecode
        assert packed.table.tobytes() == fresh.table.tobytes()
        assert packed.count == len(node.entries)


def count_builds(monkeypatch):
    """Count ``build_frame`` calls from here on; returns the counter."""
    import repro.core.frames as frames_module

    builds = []
    original = frames_module.build_frame

    def counting(*args):
        builds.append(args[0])
        return original(*args)

    monkeypatch.setattr(frames_module, "build_frame", counting)
    return builds


def make_query(rng, tree, k=10):
    return KNNTAQuery(
        (rng.random() * 100, rng.random() * 100),
        TimeInterval(rng.randrange(0, 6), rng.randrange(6, 13)),
        k=k,
        alpha0=rng.choice([0.1, 0.3, 0.5, 0.9]),
        semantics=rng.choice(
            [IntervalSemantics.INTERSECTS, IntervalSemantics.CONTAINED]
        ),
    )


def answers_both_paths(tree, query):
    packed = list(knnta_search(tree, query))
    tree.frames.enabled = False
    try:
        plain = list(knnta_search(tree, query))
    finally:
        tree.frames.enabled = True
    return packed, plain


class TestInvalidationPerMutationKind:
    """Satellite: every mutation kind leaves served frames byte-equal
    to a freshly computed object-path build."""

    def test_insert(self):
        tree = build_tree(seed=1)
        warm_frames(tree)
        rng = random.Random(2)
        for i in range(200, 215):
            tree.insert_poi(
                POI(i, rng.random() * 100, rng.random() * 100), {3: 4}
            )
            assert_frames_byte_equal(tree)

    def test_delete(self):
        tree = build_tree(seed=3)
        warm_frames(tree)
        rng = random.Random(4)
        for poi_id in rng.sample(range(120), 30):
            assert tree.delete_poi(poi_id)
            assert_frames_byte_equal(tree)

    def test_digest(self):
        tree = build_tree(seed=5)
        warm_frames(tree)
        rng = random.Random(6)
        for epoch in range(12, 18):
            counts = {
                poi_id: rng.randrange(1, 7)
                for poi_id in rng.sample(range(120), 25)
            }
            tree.digest_epoch(epoch, counts)
            assert_frames_byte_equal(tree)

    def test_split_and_forced_reinsert(self):
        # A small node size forces overflow handling — both the R*
        # forced-reinsertion pass and genuine splits — while frames for
        # the pre-overflow shape are warm.
        tree = build_tree(n=8, seed=7, node_size=256)
        rng = random.Random(8)
        for i in range(100, 160):
            warm_frames(tree)
            tree.insert_poi(
                POI(i, rng.random() * 100, rng.random() * 100),
                {e: rng.randrange(1, 5) for e in range(0, 12, 3)},
            )
            assert_frames_byte_equal(tree)
        assert sum(1 for _ in all_nodes(tree)) > 3  # splits really happened

    def test_scrubber_style_inplace_repair(self):
        # replace_all on an internal TIA (the scrubber's repair) must
        # invalidate the owning node's frame via its stamp.
        tree = build_tree(seed=9)
        warm_frames(tree)
        node = tree.root
        entry = node.entries[0]
        if entry.child is None:
            pytest.skip("tree too small to have an internal entry")
        entry.tia.replace_all({0: 999})
        node.stamp += 1
        frame = tree.frames.frame(node)
        fresh = fresh_frame(tree, node)
        assert frame.table.tobytes() == fresh.table.tobytes()
        assert list(frame.aggregates(0, 1))[0] == 999


class TestStampsAndObservers:
    """Frames follow the node stamps alone: no mutation observer clears
    them, so a write rebuilds only the frames of the nodes it stamped."""

    @pytest.mark.parametrize("write", ["insert", "delete", "digest"])
    def test_write_rebuilds_only_the_frames_it_stamped(self, write, monkeypatch):
        tree = build_tree(n=300, seed=10)
        served = {node: tree.frames.frame(node) for node in all_nodes(tree)}
        stamps = {node: node.stamp for node in served}
        if write == "insert":
            tree.insert_poi(POI(999, 1.0, 1.0), {0: 1})
        elif write == "delete":
            assert tree.delete_poi(7)
        else:
            tree.digest_epoch(12, {0: 3, 1: 2})
        builds = count_builds(monkeypatch)
        nodes = list(all_nodes(tree))
        untouched = [
            node for node in nodes if stamps.get(node, -1) == node.stamp
        ]
        assert untouched, "the write stamped every node"
        for node in untouched:
            assert tree.frames.frame(node) is served[node]
        assert builds == []
        for node in nodes:
            tree.frames.frame(node)
        assert len(builds) == len(nodes) - len(untouched)
        assert_frames_byte_equal(tree)

    def test_stamp_catches_missed_invalidation(self):
        # Nothing clears a node's frame slot on a write: the per-node
        # stamp alone must force a rebuild instead of serving the stale
        # frame.
        tree = build_tree(seed=12)
        warm_frames(tree)
        leaf = tree._leaf_of[0]
        stale = leaf.frame
        tree.digest_epoch(12, {0: 5})
        assert leaf.frame is stale  # the stale frame survived...
        assert_frames_byte_equal(tree)  # ...but is never served

    def test_wrap_tias_disables_permanently(self):
        tree = build_tree(seed=13)
        warm_frames(tree)
        tree.wrap_tias(lambda tia: tia)
        assert not tree.frames.enabled
        assert all(node.frame is None for node in all_nodes(tree))
        assert tree.frames.frame(tree.root) is None
        rng = random.Random(14)
        query = make_query(rng, tree)
        assert list(knnta_search(tree, query))  # object path still answers

    def test_disabled_store_reprs(self):
        tree = build_tree(n=5, seed=15)
        assert "enabled=True" in repr(tree.frames)
        frame = tree.frames.frame(tree.root)
        assert "entries=" in repr(frame)


class TestBitIdenticalAnswers:
    @pytest.mark.parametrize(
        "aggregate_kind", [AggregateKind.SUM, AggregateKind.MAX]
    )
    def test_search_matches_object_path(self, aggregate_kind):
        tree = build_tree(seed=16, aggregate_kind=aggregate_kind)
        rng = random.Random(17)
        for _ in range(25):
            packed, plain = answers_both_paths(tree, make_query(rng, tree))
            assert packed == plain  # full-tuple equality: ids, scores, order

    def test_browse_matches_object_path(self):
        tree = build_tree(seed=18)
        rng = random.Random(19)
        query = make_query(rng, tree, k=1)
        browse = knnta_browse(tree, query)
        got = [next(browse) for _ in range(40)]
        tree.frames.enabled = False
        try:
            plain_browse = knnta_browse(tree, query)
            expected = [next(plain_browse) for _ in range(40)]
        finally:
            tree.frames.enabled = True
        assert got == expected

    def test_collective_matches_object_path(self):
        tree = build_tree(seed=20)
        rng = random.Random(21)
        queries = [make_query(rng, tree) for _ in range(12)]
        packed = CollectiveProcessor(tree).run(queries)
        tree.frames.enabled = False
        try:
            plain = CollectiveProcessor(tree).run(queries)
        finally:
            tree.frames.enabled = True
        for got, expected in zip(packed, plain):
            assert list(got) == list(expected)

    def test_mutation_stream_stays_bit_identical(self):
        """40 mixed mutations, packed vs object answers after each."""
        tree = build_tree(seed=22)
        rng = random.Random(23)
        next_id = 1000
        next_epoch = 12
        for step in range(40):
            op = rng.choice(["insert", "delete", "digest", "digest"])
            if op == "insert":
                tree.insert_poi(
                    POI(next_id, rng.random() * 100, rng.random() * 100),
                    {e: rng.randrange(1, 6) for e in range(0, 12, 2)},
                )
                next_id += 1
            elif op == "delete":
                candidates = [p for p in tree.poi_ids()]
                tree.delete_poi(rng.choice(candidates))
            else:
                counts = {
                    poi_id: rng.randrange(1, 6)
                    for poi_id in rng.sample(list(tree.poi_ids()), 10)
                }
                tree.digest_epoch(next_epoch, counts)
                next_epoch += 1
            packed, plain = answers_both_paths(tree, make_query(rng, tree))
            assert packed == plain, "diverged at mutation step %d" % step

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mutations=st.lists(
            st.sampled_from(["insert", "delete", "digest"]), max_size=6
        ),
    )
    def test_property_random_streams(self, seed, mutations):
        rng = random.Random(seed)
        tree = build_tree(n=60, seed=seed)
        next_id, next_epoch = 500, 12
        for op in mutations:
            if op == "insert":
                tree.insert_poi(
                    POI(next_id, rng.random() * 100, rng.random() * 100),
                    {rng.randrange(12): rng.randrange(1, 9)},
                )
                next_id += 1
            elif op == "delete":
                tree.delete_poi(rng.choice(list(tree.poi_ids())))
            else:
                tree.digest_epoch(
                    next_epoch, {rng.choice(list(tree.poi_ids())): 2}
                )
                next_epoch += 1
        assert_frames_byte_equal(tree)
        packed, plain = answers_both_paths(tree, make_query(rng, tree))
        assert packed == plain


class TestFrameStoreBasics:
    def test_frames_build_lazily_into_their_nodes(self):
        tree = build_tree(n=30, seed=24)
        assert all(node.frame is None for node in all_nodes(tree))
        frame = tree.frames.frame(tree.root)
        assert frame is not None and tree.root.frame is frame
        assert tree.frames.frame(tree.root) is frame
        assert all(
            node.frame is None for node in all_nodes(tree) if node is not tree.root
        )

    def test_bulk_load_resets_the_store(self):
        from repro import datasets

        data = datasets.make("NYC", scale=0.02, seed=7)
        tree = TARTree.build(data, bulk=True)
        # build() ends in a consistent state: serving works immediately
        end = tree.current_time
        query = KNNTAQuery((0.4, 0.6), TimeInterval(end - 28, end), k=5)
        packed, plain = answers_both_paths(tree, query)
        assert packed == plain

    def test_store_is_per_tree(self):
        a = build_tree(n=10, seed=25)
        b = build_tree(n=10, seed=26)
        assert isinstance(a.frames, FrameStore)
        assert a.frames is not b.frames
        a.frames.frame(a.root)
        assert b.root.frame is None
