"""Epoch streaming and tree catch-up."""

import pytest

from repro import TARTree, TimeInterval, datasets
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.core.scan import sequential_scan
from repro.datasets.streaming import catch_up, epoch_stream
from repro.temporal.epochs import EpochClock


@pytest.fixture(scope="module")
def data():
    return datasets.make("LA", scale=0.03, seed=17)


class TestEpochStream:
    def test_stream_covers_all_checkins(self, data):
        clock = EpochClock(data.t0, 7.0)
        effective = data.effective_poi_ids()
        streamed = sum(
            sum(counts.values()) for _, counts in epoch_stream(data, clock)
        )
        expected = sum(data.checkin_times[p].size for p in effective)
        assert streamed == expected

    def test_stream_is_epoch_ordered(self, data):
        clock = EpochClock(data.t0, 7.0)
        epochs = [epoch for epoch, _ in epoch_stream(data, clock)]
        assert epochs == sorted(epochs)

    def test_time_window_restricts_epochs(self, data):
        clock = EpochClock(data.t0, 7.0)
        start = data.t0 + 100
        end = data.t0 + 200
        for epoch, _ in epoch_stream(data, clock, start_time=start, end_time=end):
            ts, te = clock.bounds(epoch)
            assert te > start - 7.0
            assert ts <= end

    def test_poi_subset(self, data):
        clock = EpochClock(data.t0, 7.0)
        subset = data.effective_poi_ids()[:3]
        for _, counts in epoch_stream(data, clock, poi_ids=subset):
            assert set(counts) <= set(subset)

    def test_inverted_range_is_explicitly_empty(self, data):
        clock = EpochClock(data.t0, 7.0)
        stream = epoch_stream(
            data, clock, start_time=data.t0 + 50, end_time=data.t0
        )
        assert list(stream) == []

    def test_stream_does_no_work_until_pulled(self, data):
        # A subscription driver may hold a stream open indefinitely;
        # creating one must not regroup anything up front.
        calls = []

        class Spy:
            def epoch_counts(self, clock, poi_ids=None):
                calls.append(poi_ids)
                return data.epoch_counts(clock, poi_ids)

        clock = EpochClock(data.t0, 7.0)
        stream = epoch_stream(Spy(), clock, start_time=data.t0,
                              end_time=data.tc)
        assert calls == []  # generator: nothing ran yet
        next(stream)
        assert len(calls) == 1
        stream.close()

    def test_lazy_grouping_matches_eager_regroup(self, data):
        clock = EpochClock(data.t0, 7.0)
        eager = {}
        for poi_id, epochs in data.epoch_counts(clock).items():
            for epoch, count in epochs.items():
                eager.setdefault(epoch, {})[poi_id] = count
        streamed = dict(epoch_stream(data, clock))
        assert streamed == eager

    def test_early_termination_is_clean(self, data):
        import itertools

        clock = EpochClock(data.t0, 7.0)
        stream = epoch_stream(data, clock)
        head = list(itertools.islice(stream, 2))
        stream.close()  # abandoning the generator must not raise
        assert len(head) == 2
        assert head[0][0] < head[1][0]


class TestCatchUp:
    def test_catch_up_reconciles_exactly(self, data):
        tree = TARTree.build(data.snapshot(0.5), until_time=data.tc)
        digested = catch_up(tree, data)
        assert digested > 0
        tree.check_invariants()
        reference = data.epoch_counts(tree.clock, list(tree.poi_ids()))
        for poi_id, epochs in reference.items():
            assert dict(tree.poi_tia(poi_id).items()) == epochs

    def test_catch_up_is_idempotent(self, data):
        tree = TARTree.build(data.snapshot(0.5), until_time=data.tc)
        catch_up(tree, data)
        assert catch_up(tree, data) == 0

    def test_queries_after_catch_up_match_scan(self, data):
        tree = TARTree.build(data.snapshot(0.5), until_time=data.tc)
        catch_up(tree, data)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(data.t0, data.tc), k=10)
        bfs = [round(r.score, 9) for r in knnta_search(tree, query)]
        scan = [round(r.score, 9) for r in sequential_scan(tree, query)]
        assert bfs == scan

    def test_max_kind_rejected(self, data):
        tree = TARTree.build(data.snapshot(0.5), until_time=data.tc,
                             aggregate_kind="max")
        with pytest.raises(ValueError):
            catch_up(tree, data)


class TestBrowse:
    def test_browse_matches_search_prefixes(self, data):
        import itertools

        from repro.core.knnta import knnta_browse

        tree = TARTree.build(data)
        query = KNNTAQuery((30.0, 30.0), TimeInterval(0, 300), k=1)
        browsed = list(itertools.islice(knnta_browse(tree, query), 25))
        searched = knnta_search(tree, query._replace(k=25))
        assert [round(r.score, 10) for r in browsed] == [
            round(r.score, 10) for r in searched
        ]

    def test_browse_exhausts_to_full_ranking(self, data):
        from repro.core.knnta import knnta_browse

        tree = TARTree.build(data.snapshot(0.4), until_time=data.tc)
        query = KNNTAQuery((70.0, 10.0), TimeInterval(0, 300), k=1)
        browsed = list(knnta_browse(tree, query))
        assert len(browsed) == len(tree)
        full = knnta_search(tree, query._replace(k=len(tree)))
        assert [r.poi_id for r in browsed] == [r.poi_id for r in full]

    def test_browse_charges_io_lazily(self, data):
        from repro.core.knnta import knnta_browse

        # Small nodes give the tree enough structure for laziness to show.
        tree = TARTree.build(data, node_size=256)
        query = KNNTAQuery((50.0, 50.0), TimeInterval(0, 300), k=1)
        snap = tree.stats.snapshot()
        iterator = knnta_browse(tree, query)
        next(iterator)
        few = tree.stats.diff(snap).rtree_nodes
        list(iterator)  # exhaust: every node ends up accessed exactly once
        everything = tree.stats.diff(snap).rtree_nodes
        assert few < tree.node_count()
        assert few <= everything == tree.node_count()
