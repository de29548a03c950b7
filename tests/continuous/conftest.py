"""Fixtures for the continuous-subscription tests.

The session-scoped ``small_dataset`` comes from the root conftest; the
trees here are function-scoped because subscription tests mutate them
(digests, inserts, deletes) while sliding their windows.
"""

import pytest

from repro import TARTree
from repro.datasets.streaming import epoch_stream


@pytest.fixture
def half_tree(small_dataset):
    """A tree holding the leading 70% of the data set's history.

    The tail stays in ``small_dataset``, ready to be replayed one epoch
    at a time with :func:`replay` — the canonical driver for a sliding
    window.  (70%, not 50%: the effective-POI threshold needs most of a
    POI's history before it clears, and a 4-POI tree tests nothing.)
    """
    return TARTree.build(small_dataset.snapshot(0.7))


def replay(tree, dataset, limit=None, poi_ids=None):
    """Yield ``(epoch, counts)`` digests past the tree's current time.

    ``poi_ids`` restricts the stream (default: the tree's POIs).
    """
    stream = epoch_stream(
        dataset,
        tree.clock,
        start_time=tree.current_time,
        poi_ids=list(tree.poi_ids()) if poi_ids is None else poi_ids,
    )
    for count, (epoch, counts) in enumerate(stream):
        if limit is not None and count >= limit:
            return
        yield epoch, counts
