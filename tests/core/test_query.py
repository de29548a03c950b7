"""Query/result value types and the normaliser."""

import pytest

from repro.core.query import (
    Answer,
    KNNTAQuery,
    Normalizer,
    QueryResult,
    RankedAnswer,
)
from repro.temporal.epochs import TimeInterval
from repro.temporal.tia import IntervalSemantics


class TestKNNTAQuery:
    def test_defaults(self):
        query = KNNTAQuery((1.0, 2.0), TimeInterval(0, 7))
        assert query.k == 10
        assert query.alpha0 == 0.3
        assert query.alpha1 == pytest.approx(0.7)
        assert query.semantics is IntervalSemantics.INTERSECTS

    def test_alpha1_complements_alpha0(self):
        query = KNNTAQuery((0, 0), TimeInterval(0, 1), alpha0=0.25)
        assert query.alpha1 == 0.75

    def test_validate_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNNTAQuery((0, 0), TimeInterval(0, 1), k=0).validate()

    @pytest.mark.parametrize("alpha0", [0.0, 1.0, -0.2, 1.5])
    def test_validate_rejects_degenerate_weights(self, alpha0):
        with pytest.raises(ValueError):
            KNNTAQuery((0, 0), TimeInterval(0, 1), alpha0=alpha0).validate()

    def test_validate_accepts_paper_defaults(self):
        KNNTAQuery((0, 0), TimeInterval(0, 1), k=10, alpha0=0.3).validate()

    def test_hashable_for_grouping(self):
        a = KNNTAQuery((1.0, 2.0), TimeInterval(0, 7), 10, 0.3)
        b = KNNTAQuery((1.0, 2.0), TimeInterval(0, 7), 10, 0.3)
        assert a == b
        assert hash(a) == hash(b)


class TestQueryResult:
    def test_score_pair(self):
        result = QueryResult("p", 0.5, 0.2, 0.75)
        assert result.score_pair == (0.2, 0.25)

    def test_fields(self):
        result = QueryResult("p", 0.5, 0.2, 0.75)
        assert result.poi_id == "p"
        assert result.score == 0.5


class TestNormalizer:
    def test_create_guards_against_zero(self):
        normalizer = Normalizer.create(0.0, 0)
        assert normalizer.d_max == 1.0
        assert normalizer.g_max == 1.0

    def test_score_matches_equation_1(self):
        normalizer = Normalizer(10.0, 20.0)
        # f(p) = 0.3 * (5/10) + 0.7 * (1 - 10/20)
        assert normalizer.score(0.3, 5.0, 10.0) == pytest.approx(
            0.3 * 0.5 + 0.7 * 0.5
        )

    def test_components(self):
        normalizer = Normalizer(10.0, 20.0)
        assert normalizer.components(5.0, 10.0) == (0.5, 0.5)

    def test_zero_weight_on_aggregate_reduces_to_distance(self):
        normalizer = Normalizer(2.0, 4.0)
        almost_one = 1.0 - 1e-12
        assert normalizer.score(almost_one, 1.0, 0.0) == pytest.approx(0.5, abs=1e-6)


class TestAnswerProtocol:
    def rows(self):
        return [QueryResult("p", 0.5, 0.2, 0.75), QueryResult("q", 0.6, 0.4, 0.5)]

    def test_ranked_answer_is_the_list(self):
        rows = self.rows()
        answer = RankedAnswer(rows)
        assert answer == rows  # plain-list equality keeps working
        assert answer[0] is rows[0]
        first, second = answer  # destructuring keeps working
        assert (first, second) == tuple(rows)
        assert answer.rows is answer

    def test_ranked_answer_protocol_attrs(self):
        answer = RankedAnswer(self.rows())
        assert answer.exact is True
        assert answer.coverage == 1.0
        assert answer.score_bound is None
        assert answer.missed_shards == ()
        assert isinstance(answer, Answer)

    def test_robust_answer_satisfies_protocol(self):
        from repro.reliability.recovery import RobustAnswer

        answer = RobustAnswer(self.rows(), used_fallback=True, reason="x")
        assert isinstance(answer, Answer)
        assert answer.exact is True  # the fallback is exact, just slower
        assert answer.coverage == 1.0
        assert answer.score_bound is None
        assert answer.rows == self.rows()

    def test_degraded_answer_satisfies_protocol(self):
        from repro.cluster.resilience import DegradedAnswer

        answer = DegradedAnswer(self.rows(), (2,), 0.75, 0.42)
        assert isinstance(answer, Answer)
        assert answer.exact is False
        assert answer.coverage == 0.75
        assert answer.score_bound == 0.42
        assert answer.rows == self.rows()
        assert list(answer) == self.rows()
