"""Trees whose saved node layout the storage tests reload."""

import random

import pytest

from repro import POI, TARTree
from repro.spatial.geometry import Rect
from repro.temporal.epochs import EpochClock


def new_tree(strategy="integral3d"):
    # 512-byte nodes (17 entries in 3-D, 24 in 2-D) give a few hundred
    # POIs three levels.
    return TARTree(
        world=Rect((0.0, 0.0), (100.0, 100.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=12.0,
        strategy=strategy,
        node_size=512,
        tia_backend="memory",
    )


def random_pois(rng, ids):
    for poi_id in ids:
        history = {e: rng.randrange(1, 9) for e in range(12) if rng.random() < 0.4}
        yield POI(poi_id, rng.random() * 100, rng.random() * 100), history


def bulk_built(strategy="integral3d"):
    tree = new_tree(strategy)
    tree.bulk_load(list(random_pois(random.Random(3), range(600))))
    return tree


def insert_built(strategy="integral3d"):
    tree = new_tree(strategy)
    for poi, history in random_pois(random.Random(4), range(400)):
        tree.insert_poi(poi, history)
    return tree


def mutated():
    """Insert-built, then inserts, deletes and digests interleaved.

    The digests move every touched POI's mean rate, so the integral-3D
    ``z`` its leaf entry was placed at no longer matches a recomputed
    one.
    """
    rng = random.Random(5)
    tree = insert_built()
    for poi_id in range(0, 400, 7):
        tree.delete_poi(poi_id)
    for epoch in range(12, 16):
        tree.digest_epoch(
            epoch,
            {poi_id: rng.randrange(1, 40) for poi_id in rng.sample(list(tree.poi_ids()), 80)},
        )
        for poi, history in random_pois(rng, range(1000 + 20 * epoch, 1020 + 20 * epoch)):
            tree.insert_poi(poi, history)
    for poi_id in range(3, 400, 11):
        tree.delete_poi(poi_id)
    return tree


@pytest.fixture(scope="module")
def bulk_tree():
    return bulk_built()


@pytest.fixture(scope="module")
def mutated_tree():
    return mutated()
