"""Shared fixtures: a small synthetic LBSN, trees for every strategy."""

import pytest

from repro import TARTree, datasets
from repro.datasets.workload import generate_queries


@pytest.fixture(scope="session")
def small_dataset():
    """A small NYC-like data set (fast to index, 31 effective POIs; a
    4-shard cluster over it has single-leaf shards)."""
    return datasets.make("NYC", scale=0.02, seed=7)


@pytest.fixture(scope="session")
def medium_dataset():
    """A GS-like data set with a heavier tail (177 effective POIs; a
    4-shard cluster over it has two-level shards)."""
    return datasets.make("GS", scale=0.1, seed=11)


@pytest.fixture(scope="session")
def tar_tree(small_dataset):
    """Integral-3D TAR-tree over the small data set (paged TIAs)."""
    tree = TARTree.build(small_dataset, strategy="integral3d")
    tree.check_invariants()
    return tree


@pytest.fixture(scope="session")
def spatial_tree(small_dataset):
    tree = TARTree.build(small_dataset, strategy="spatial")
    tree.check_invariants()
    return tree


@pytest.fixture(scope="session")
def aggregate_tree(small_dataset):
    tree = TARTree.build(small_dataset, strategy="aggregate")
    tree.check_invariants()
    return tree


@pytest.fixture(scope="session")
def all_trees(tar_tree, spatial_tree, aggregate_tree):
    return {
        "integral3d": tar_tree,
        "spatial": spatial_tree,
        "aggregate": aggregate_tree,
    }


@pytest.fixture(scope="session")
def workload(small_dataset):
    return generate_queries(small_dataset, n_queries=25, k=10, alpha0=0.3, seed=3)
