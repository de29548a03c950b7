"""The ordered top-k delta model."""

from repro import DeltaKind, QueryResult, RankedAnswer, TopKDelta
from repro.continuous import WindowUpdate, diff_topk, window_state
from repro.temporal.epochs import EpochClock


def row(poi_id, score):
    return QueryResult(poi_id, score, score, 1.0 - score)


class TestDiffTopk:
    def test_identical_rows_produce_no_deltas(self):
        rows = [row("a", 0.1), row("b", 0.2)]
        assert diff_topk(rows, rows) == ()

    def test_score_change_without_rank_change_is_silent(self):
        old = [row("a", 0.1), row("b", 0.2)]
        new = [row("a", 0.15), row("b", 0.6)]
        assert diff_topk(old, new) == ()

    def test_enter_carries_the_new_rank_and_row(self):
        new = [row("a", 0.1), row("b", 0.2)]
        deltas = diff_topk([], new)
        assert [d.kind for d in deltas] == [DeltaKind.ENTER, DeltaKind.ENTER]
        assert [(d.poi_id, d.rank, d.old_rank) for d in deltas] == [
            ("a", 0, None),
            ("b", 1, None),
        ]
        assert deltas[0].row == new[0]

    def test_leave_carries_the_old_rank_only(self):
        deltas = diff_topk([row("a", 0.1), row("b", 0.2)], [row("a", 0.1)])
        assert deltas == (TopKDelta(DeltaKind.LEAVE, "b", None, 1, None),)

    def test_moves_report_both_ranks(self):
        old = [row("a", 0.1), row("b", 0.2)]
        new = [row("b", 0.05), row("a", 0.1)]
        deltas = diff_topk(old, new)
        assert [(d.kind, d.poi_id, d.old_rank, d.rank) for d in deltas] == [
            (DeltaKind.MOVE, "b", 1, 0),
            (DeltaKind.MOVE, "a", 0, 1),
        ]

    def test_leaves_first_then_ascending_new_rank(self):
        old = [row("a", 0.1), row("b", 0.2), row("c", 0.3)]
        new = [row("c", 0.05), row("d", 0.1), row("a", 0.4)]
        kinds = [(d.kind, d.poi_id) for d in diff_topk(old, new)]
        assert kinds == [
            (DeltaKind.LEAVE, "b"),
            (DeltaKind.MOVE, "c"),
            (DeltaKind.ENTER, "d"),
            (DeltaKind.MOVE, "a"),
        ]

    def test_replaying_deltas_reconstructs_the_new_ranking(self):
        old = [row("a", 0.1), row("b", 0.2), row("c", 0.3), row("d", 0.4)]
        new = [row("e", 0.01), row("c", 0.02), row("a", 0.5)]
        state = {r.poi_id: rank for rank, r in enumerate(old)}
        for delta in diff_topk(old, new):
            if delta.kind is DeltaKind.LEAVE:
                del state[delta.poi_id]
            else:
                state[delta.poi_id] = delta.rank
        assert sorted(state, key=state.get) == [r.poi_id for r in new]

    def test_describe_shapes(self):
        enter, = diff_topk([], [row("a", 0.25)])
        assert enter.describe() == {
            "kind": "enter",
            "poi_id": "a",
            "rank": 0,
            "score": 0.25,
        }
        leave, = diff_topk([row("a", 0.25)], [])
        assert leave.describe() == {
            "kind": "leave",
            "poi_id": "a",
            "old_rank": 0,
        }


class TestWindowUpdate:
    def make(self, answer):
        window = window_state(EpochClock(0.0, 7.0), 70.0, 3)
        return WindowUpdate(1, 0, window, answer, ())

    def test_exact_answer_is_not_degraded(self):
        update = self.make(RankedAnswer([row("a", 0.1)]))
        assert update.exact is True
        assert update.degraded is False

    def test_non_exact_answer_is_degraded(self):
        class Fake:
            rows = ()
            exact = False

        update = self.make(Fake())
        assert update.exact is False
        assert update.degraded is True
