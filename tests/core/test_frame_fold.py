"""The packed frames' window fold equals ``BaseTIA.aggregate``.

A frame row covers only the epochs its node stores, so every window is
mapped onto those columns before the fold; these properties pin the
fold to the TIA's own aggregate for every history shape and window
position, every aggregate kind and every cell typecode — and check that
a node whose cells fit no typecode, or that is too sparse for a frame,
is answered on the object path, and that a frame is sized by the epochs
its node stores, not by their values.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import POI, TARTree, TimeInterval
from repro.core.collective import CollectiveProcessor
from repro.core.frames import MAX_CELLS_PER_ITEM, EpochRow, build_frame
from repro.core.query import KNNTAQuery
from repro.spatial.geometry import Rect
from repro.spatial.rstar import Entry, Node
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import AggregateKind, IntervalSemantics, MemoryTIA
from tests.core.test_frames import all_nodes, answers_both_paths, build_tree

KINDS = [AggregateKind.COUNT, AggregateKind.SUM, AggregateKind.MAX]
CLOCK = EpochClock(0.0, 1.0)
#: Epoch ``e`` covers ``[e, e + 1)``, so CONTAINED over ``[a, b]`` is
#: exactly the epochs ``a .. b - 1``: a window ``[a, b)``.
CONTAINED = IntervalSemantics.CONTAINED

values = st.integers(min_value=1, max_value=20)
#: One entry's history, by shape: none, one record, a record at epoch
#: 0, a dense run, or sparse records over a wide span.
histories = st.one_of(
    st.just({}),
    st.builds(lambda e, v: {e: v}, st.integers(0, 60), values),
    st.dictionaries(st.integers(0, 6), values, min_size=1).map(
        lambda h: {0: 1, **h}
    ),
    st.tuples(st.integers(0, 40), st.integers(1, 25), st.lists(values, max_size=25)).map(
        lambda t: {t[0] + i: v for i, v in enumerate(t[2][: t[1]])}
    ),
    st.dictionaries(st.integers(0, 200), values, max_size=6),
)


def make_node(rows):
    node = Node(level=0)
    for i, history in enumerate(rows):
        tia = MemoryTIA()
        tia.replace_all(history)
        point = Rect.from_point((float(i), float(i)))
        node.entries.append(Entry(point, item=i, mbr=point, tia=tia))
    return node


def folded(frame, start, stop):
    span = CLOCK.epoch_range(TimeInterval(start, stop), CONTAINED)
    return list(frame.aggregates(span.start, span.stop))


def expected(node, start, stop, kind):
    interval = TimeInterval(start, stop)
    return [
        entry.tia.aggregate(CLOCK, interval, CONTAINED, kind)
        for entry in node.entries
    ]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(histories, min_size=1, max_size=6),
    kind=st.sampled_from(KINDS),
    start=st.integers(0, 230),
    length=st.integers(0, 230),
)
def test_fold_equals_the_tia_aggregate(rows, kind, start, length):
    """Windows before, after, straddling and inside the frame's span,
    and empty ones, all fold to ``BaseTIA.aggregate``."""
    node = make_node(rows)
    frame = build_frame(node, kind is not AggregateKind.MAX)
    assert folded(frame, start, start + length) == expected(
        node, start, start + length, kind
    )


@pytest.mark.parametrize("kind", KINDS)
def test_fold_at_the_edges_of_the_span(kind):
    node = make_node([{5: 3, 9: 4}, {7: 2}, {}])
    frame = build_frame(node, kind is not AggregateKind.MAX)
    assert frame.epochs == [5, 7, 9]
    for start in range(0, 13):
        for stop in range(start, 14):
            assert folded(frame, start, stop) == expected(node, start, stop, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "cell, typecode",
    [(2**16 - 1, "H"), (2**16, "I"), (2**32 - 1, "I"), (2**32, "q"), (2**63 - 1, "q")],
)
def test_large_cells_promote_the_typecode_and_stay_exact(kind, cell, typecode):
    node = make_node([{3: cell}, {1: 1, 3: 1}])
    frame = build_frame(node, kind is not AggregateKind.MAX)
    assert frame.table.typecode == typecode
    for start in range(0, 5):
        for stop in range(start, 6):
            assert folded(frame, start, stop) == expected(node, start, stop, kind)


def test_a_prefix_promotes_the_typecode():
    """COUNT/SUM rows hold prefix sums, so the row total decides."""
    node = make_node([{0: 2**15, 1: 2**15}])
    assert build_frame(node, True).table.typecode == "I"
    assert build_frame(node, False).table.typecode == "H"


@pytest.mark.parametrize(
    "rows, prefix",
    [
        ([{0: 2**63}], True),
        ([{0: 2**63}], False),
        ([{0: 2**62, 4: 2**62}], True),
    ],
)
def test_a_cell_beyond_the_widest_typecode_leaves_no_table(rows, prefix):
    assert build_frame(make_node(rows), prefix).table is None


@pytest.mark.parametrize(
    "kind, huge",
    [(kind, {0: 2**63}) for kind in KINDS]
    # MAX rows hold no prefix sums, so only COUNT/SUM overflow this way.
    + [(kind, {2: 2**62, 5: 2**62}) for kind in KINDS[:2]],
)
def test_a_node_beyond_the_widest_typecode_is_answered_on_the_object_path(
    kind, huge
):
    tree = build_tree(n=80, seed=0, node_size=512, aggregate_kind=kind)
    tree.insert_poi(POI("huge", 50.0, 50.0), huge)
    leaf = tree._leaf_of["huge"]
    assert tree.frames.frame(leaf) is None
    assert tree.frames.frame(leaf) is None  # remembered, not rebuilt per call
    for alpha0 in (0.1, 0.5, 0.9):
        query = KNNTAQuery((40.0, 60.0), TimeInterval(0, 12), k=10, alpha0=alpha0)
        packed, plain = answers_both_paths(tree, query)
        assert packed == plain
        assert "huge" in [row.poi_id for row in packed]


@pytest.mark.parametrize("kind", KINDS)
def test_a_frame_is_sized_by_the_epochs_stored_not_their_values(kind):
    node = make_node([{0: 1, 10**9: 1}, {3: 2}, {}])
    prefix = kind is not AggregateKind.MAX
    frame = build_frame(node, prefix)
    assert frame.epochs == [0, 3, 10**9]
    assert len(frame.table) == 3 * (3 + prefix)
    for start, stop in [(0, 1), (0, 4), (1, 10**9), (2, 10**9 + 1), (10**9, 10**9 + 7)]:
        assert folded(frame, start, stop) == expected(node, start, stop, kind)


def distant_queries(far):
    windows = [(0, 12), (6, far + 1), (0, far + 9), (far, far + 9)]
    return [
        KNNTAQuery((45.0, 55.0), TimeInterval(start, stop), k=6, alpha0=alpha0)
        for start, stop in windows
        for alpha0 in (0.05, 0.5)
    ]


def collective_both_paths(tree, queries):
    packed = [list(rows) for rows in CollectiveProcessor(tree).run(queries)]
    tree.frames.enabled = False
    try:
        plain = [list(rows) for rows in CollectiveProcessor(tree).run(queries)]
    finally:
        tree.frames.enabled = True
    return packed, plain


@pytest.mark.parametrize("kind", KINDS)
def test_a_distant_epoch_is_answered_bit_identically_on_every_path(kind):
    """A history ``{0: 1, 10**9: 1}`` and a digest of a distant epoch
    cost each frame on their path a column, not a row per epoch between:
    the single-query search and the collective processor answer exactly
    as the object path does."""
    far = 10**9
    tree = build_tree(n=80, seed=5, node_size=512, aggregate_kind=kind)
    tree.insert_poi(POI("far", 50.0, 50.0), {0: 1, far: 1})
    tree.digest_epoch(far + 4, {"far": 3, 7: 2})
    for node in all_nodes(tree):
        frame = tree.frames.frame(node)
        records = sum(len(entry.tia) for entry in node.entries)
        assert len(frame.epochs) <= records
        assert len(frame.table) <= len(node.entries) * (records + 1)
    queries = distant_queries(far)
    for query in queries:
        packed, plain = answers_both_paths(tree, query)
        assert packed == plain
    packed, plain = collective_both_paths(tree, queries)
    assert packed == plain
    assert any("far" in [row.poi_id for row in rows] for rows in packed)


def sparse_rows(count, records):
    """``count`` histories of ``records`` epochs each, no epoch shared."""
    return [
        {records * i + j: 1 + (i + j) % 3 for j in range(records)}
        for i in range(count)
    ]


@pytest.mark.parametrize("prefix", [True, False])
def test_a_node_too_sparse_for_a_frame_gets_no_table(prefix):
    """A table holds at most ``MAX_CELLS_PER_ITEM`` cells per record or
    entry its node stores.  40 entries with ``records`` unshared epochs
    each cross that bound between 3 and 5 records (at exactly 4 for MAX
    rows, whose table then holds 32 cells per item); past it the node
    keeps its columns but no table."""
    outcomes = set()
    for records in range(1, 8):
        frame = build_frame(make_node(sparse_rows(40, records)), prefix)
        cells = 40 * (40 * records + prefix)
        fits = cells <= MAX_CELLS_PER_ITEM * (40 * records + 40)
        assert len(frame.epochs) == 40 * records
        assert (frame.table is not None) == fits
        if fits:
            assert len(frame.table) == cells
        outcomes.add(fits)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind", KINDS)
def test_a_sparse_node_is_answered_on_the_object_path(kind):
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=2400.0,
        aggregate_kind=kind,
        node_size=2048,
    )
    rng = random.Random(9)
    for i, history in enumerate(sparse_rows(200, 12)):
        tree.insert_poi(POI(i, rng.random() * 100, rng.random() * 100), history)
    sparse = [node for node in all_nodes(tree) if tree.frames.frame(node) is None]
    assert sparse and all(node.is_leaf for node in sparse)
    for start, stop in [(0, 2400), (100, 900), (1200, 1201), (2390, 2500)]:
        for alpha0 in (0.1, 0.6):
            query = KNNTAQuery(
                (30.0, 60.0), TimeInterval(start, stop), k=8, alpha0=alpha0
            )
            packed, plain = answers_both_paths(tree, query)
            assert packed == plain


@pytest.mark.parametrize("kind", KINDS)
def test_the_tree_bound_follows_every_write(kind):
    """``max_aggregate_bound`` folds a cached row of the global maxima;
    every write that moves them is seen by the next bound."""
    tree = build_tree(n=60, seed=8, aggregate_kind=kind)

    def walked(start, stop):
        maxima = tree.global_epoch_max()
        values = [maxima.get(epoch, 0) for epoch in range(start, stop)]
        return max(values, default=0) if kind is AggregateKind.MAX else sum(values)

    def check():
        for start, stop in [(0, 12), (3, 4), (5, 30), (20, 21), (0, 0)]:
            bound = tree.max_aggregate_bound(TimeInterval(start, stop), CONTAINED)
            assert bound == walked(start, stop)

    check()
    tree.insert_poi(POI("peak", 10.0, 10.0), {2: 400, 25: 9})
    check()
    tree.digest_epoch(20, {"peak": 500, 3: 2})
    check()
    assert tree.delete_poi("peak")
    check()
    tree.refresh_aggregate_dimension()
    check()


@pytest.mark.parametrize("kind", KINDS)
def test_a_digest_past_every_frame_keeps_untouched_frames_and_answers(kind):
    tree = build_tree(n=80, seed=3, node_size=512, aggregate_kind=kind)
    served = {node: tree.frames.frame(node) for node in all_nodes(tree)}
    stamps = {node: node.stamp for node in served}
    beyond = max(frame.epochs[-1] for frame in served.values() if frame.epochs) + 5
    tree.digest_epoch(beyond, {1: 30, 2: 5})
    untouched = [node for node in all_nodes(tree) if node.stamp == stamps[node]]
    assert untouched
    for node in untouched:
        assert tree.frames.frame(node) is served[node]
    for start in (0, 8, beyond, beyond + 1):
        query = KNNTAQuery(
            (30.0, 70.0), TimeInterval(start, beyond + 1), k=8, alpha0=0.3
        )
        packed, plain = answers_both_paths(tree, query)
        assert packed == plain


@settings(max_examples=200, deadline=None)
@given(
    maxima=st.dictionaries(st.integers(0, 200), st.integers(1, 2**70), max_size=8),
    kind=st.sampled_from(KINDS),
    start=st.integers(0, 230),
    length=st.integers(0, 60),
)
def test_epoch_row_fold_equals_a_window_walk(maxima, kind, start, length):
    walked = [maxima.get(epoch, 0) for epoch in range(start, start + length)]
    want = max(walked, default=0) if kind is AggregateKind.MAX else sum(walked)
    assert EpochRow(maxima).fold(start, start + length, kind) == want


@pytest.mark.parametrize("kind", KINDS)
def test_an_epoch_row_holds_one_slot_per_stored_epoch(kind):
    row = EpochRow({0: 1, 10**9: 4, 10**18: 2})
    assert len(row.epochs) == len(row.values) == 3
    assert row.fold(0, 10**18 + 1, kind) == (4 if kind is AggregateKind.MAX else 7)
    assert row.fold(1, 10**9, kind) == 0
    assert row.fold(10**9, 10**9 + 1, kind) == 4
