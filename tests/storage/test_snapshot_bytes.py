"""The bytes of a tree snapshot: what is written and what is checksummed.

``save_tree`` writes exactly what ``json.dump`` would, and each section's
stored CRC-32 is the CRC of its canonical ``json.dumps`` encoding, so
snapshots written by earlier builds keep loading.  ``tree-v3.json`` was
written by such a build from :func:`saved_tree`'s tree.
"""

import io
import json
import os
import random
import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import POI, KNNTAQuery, TARTree, TimeInterval
from repro.spatial.geometry import Rect
from repro.storage.serialize import _crc_json, _tree_sections, load_tree, save_tree
from repro.temporal.epochs import EpochClock
from repro.temporal.tia import IntervalSemantics

FIXTURE = os.path.join(os.path.dirname(__file__), "tree-v3.json")


def canonical_crc(value):
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(encoded.encode("utf-8"))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e-300, 5e-324])
    | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(json_values)
@example([])
@example([[]])
@example(-0.0)
@example([-0.0, 1e-300])
@example({"b": [1, "é"], "a": {"ß": -0.0}})
@example(["naïve", "日本", "\U0001f600", {"κ": []}])
def test_crc_json_is_the_crc_of_the_canonical_encoding(value):
    assert _crc_json(value) == canonical_crc(value)


def saved_tree():
    """The tree ``tree-v3.json`` holds: bulk-loaded, then mutated.

    Some ids are non-ASCII strings and one POI sits at ``x = -0.0``, so
    the stored checksums cover escaped text and a negative zero.
    """
    rng = random.Random(21)
    tree = TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        strategy="integral3d",
        node_size=512,
        tia_backend="memory",
    )
    rows = []
    for index in range(80):
        poi_id = "café-%d" % index if index % 5 == 0 else index
        history = {e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4}
        rows.append((POI(poi_id, rng.random() * 100, rng.random() * 100), history))
    rows.append((POI("zero-x", -0.0, 50.0), {3: 2}))
    tree.bulk_load(rows)
    for poi_id in (1, 2, "café-10"):
        tree.delete_poi(poi_id)
    for index in range(5):
        tree.insert_poi(
            POI("new-%d" % index, rng.random() * 100, rng.random() * 100),
            {11: rng.randrange(1, 9)},
        )
    tree.digest_epoch(12, {poi_id: rng.randrange(1, 20) for poi_id in (3, 4, "café-0")})
    return tree


def probe_queries():
    rng = random.Random(5)
    queries = []
    for _ in range(24):
        queries.append(
            KNNTAQuery(
                (rng.random() * 100, rng.random() * 100),
                rng.choice([TimeInterval(0, 13), TimeInterval(3, 9), TimeInterval(10, 13)]),
                k=rng.choice([1, 5, 10]),
                alpha0=rng.choice([0.05, 0.3, 0.7, 0.95]),
                semantics=rng.choice(list(IntervalSemantics)),
            )
        )
    return queries


def rows_of(answer):
    return [tuple(row) for row in answer]


class TestSnapshotFromAnEarlierBuild:
    def test_loads_and_answers_like_the_tree_it_was_saved_from(self):
        original = saved_tree()
        loaded = load_tree(FIXTURE)
        loaded.check_invariants()
        assert len(loaded) == len(original)
        assert set(loaded.poi_ids()) == set(original.poi_ids())
        for query in probe_queries():
            assert rows_of(loaded.query(query)) == rows_of(original.query(query))

    def test_resaves_to_the_same_bytes(self, tmp_path):
        path = tmp_path / "tree.json"
        save_tree(load_tree(FIXTURE), path)
        with open(FIXTURE, "rb") as committed, open(path, "rb") as resaved:
            assert resaved.read() == committed.read()


def test_save_writes_json_dump_bytes(bulk_tree, mutated_tree, tmp_path):
    for tree in (bulk_tree, mutated_tree):
        sections = _tree_sections(tree)
        expected = io.StringIO()
        json.dump(
            {
                "version": 3,
                "sections": sections,
                "checksums": {name: canonical_crc(body) for name, body in sections.items()},
            },
            expected,
        )
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        assert path.read_text() == expected.getvalue()
