"""The fault-domain layer: breakers, guards, bounds, degraded answers."""

import threading
import time
from contextlib import ExitStack

import pytest

from repro import (
    ClusterDegradedError,
    ClusterTree,
    DegradedAnswer,
    KNNTAQuery,
    ResilienceConfig,
    TARTree,
    TimeInterval,
)
from repro.cluster import save_cluster, open_cluster
from repro.cluster.resilience import (
    CALLER,
    CLOSED,
    FATAL,
    HALF_OPEN,
    OPEN,
    TRANSIENT,
    CallToken,
    CircuitBreaker,
    ShardCallTimeout,
    ShardDownError,
    ShardGuard,
    classify_error,
)
from repro.core.knnta import knnta_search
from repro.reliability.faults import (
    FatalFaultError,
    FaultInjector,
    TransientIOError,
    constant,
    first_n,
)
from tests.cluster.conftest import kill_shard, open_on

NO_SLEEP = ResilienceConfig(sleep=lambda _: None)


def fast_config(**kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    return ResilienceConfig(**kwargs)


def trailing_query(tree, days=28.0, k=10, alpha0=0.3, point=(0.4, 0.6)):
    end = tree.current_time
    return KNNTAQuery(point, TimeInterval(end - days, end), k=k, alpha0=alpha0)


class TestClassification:
    def test_transient_io_error_is_transient(self):
        assert classify_error(TransientIOError("x")) == TRANSIENT

    def test_timeout_is_transient(self):
        assert classify_error(ShardCallTimeout(0, "shard.0.query", "x")) == TRANSIENT

    def test_breaker_rejection_is_fatal(self):
        assert classify_error(ShardDownError(0, "shard.0.query", "x")) == FATAL

    def test_caller_errors_never_penalise_the_shard(self):
        for exc in (ValueError("v"), KeyError("k"), IndexError("i"), TypeError("t")):
            assert classify_error(exc) == CALLER

    def test_everything_else_is_fatal(self):
        assert classify_error(FatalFaultError("boom")) == FATAL
        assert classify_error(RuntimeError("boom")) == FATAL


class TestResilienceConfig:
    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            ResilienceConfig(call_timeout=0.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)

    def test_rejects_degenerate_breaker_schedule(self):
        with pytest.raises(ValueError):
            ResilienceConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(probe_after=0)
        with pytest.raises(ValueError):
            ResilienceConfig(probe_successes=0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_transient_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_fatal_opens_immediately_and_flags_recovery(self):
        breaker = CircuitBreaker(failure_threshold=10)
        breaker.record_failure(fatal=True)
        assert breaker.state == OPEN
        assert breaker.needs_recovery

    def test_open_rejects_then_admits_a_half_open_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=3)
        breaker.record_failure()
        rejections = [breaker.allow() for _ in range(3)]
        assert rejections == [False, False, False]
        assert breaker.rejected == 3
        assert breaker.allow() is True  # the probe
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_one_probe_at_a_time(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1)
        breaker.record_failure()
        breaker.allow()  # rejected (count 1)
        assert breaker.allow() is True  # probe in flight
        assert breaker.allow() is False  # second concurrent probe rejected

    def test_probe_successes_close_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1, probe_successes=2)
        breaker.record_failure()
        for _ in range(2):
            while not breaker.allow():
                pass
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1)
        breaker.record_failure()
        while not breaker.allow():
            pass
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2

    def test_fatal_breaker_never_self_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1)
        breaker.record_failure(fatal=True)
        assert not any(breaker.allow() for _ in range(50))

    def test_readmit_moves_to_half_open_and_probes_decide(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1, probe_successes=1)
        breaker.record_failure(fatal=True)
        breaker.readmit()
        assert breaker.state == HALF_OPEN
        assert not breaker.needs_recovery
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_snapshot_is_json_ready(self):
        breaker = CircuitBreaker()
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == CLOSED
        assert snapshot["failures"] == 1
        assert snapshot["needs_recovery"] is False

    def test_transition_callback_fires(self):
        seen = []
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.on_transition = seen.append
        breaker.record_failure()
        assert seen == [OPEN]


class TestShardGuard:
    def test_transient_fault_is_retried_to_success(self):
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.query", schedule=first_n(2))
        guard = ShardGuard(0, fast_config(max_retries=2), injector=injector)
        assert guard.call("query", lambda token: 42) == 42
        assert guard.retries == 2
        assert guard.breaker.state == CLOSED

    def test_transient_faults_beyond_the_retry_budget_raise(self):
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.query", schedule=constant(1.0))
        guard = ShardGuard(0, fast_config(max_retries=2), injector=injector)
        with pytest.raises(TransientIOError):
            guard.call("query", lambda token: 42)
        assert guard.breaker.consecutive_failures == 1

    def test_mutations_are_never_retried_inline(self):
        # A mutation that failed after its WAL append is not idempotent:
        # a blind re-run would append the record again.  The WAL is the
        # mutation's source of truth; the guard surfaces the error.
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.mutate", schedule=first_n(1))
        guard = ShardGuard(0, fast_config(max_retries=5), injector=injector)
        with pytest.raises(TransientIOError):
            guard.call("mutate", lambda token: 42)
        assert guard.retries == 0

    def test_fatal_fault_opens_the_breaker_immediately(self):
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.query", schedule=constant(1.0), kind="fatal")
        guard = ShardGuard(0, fast_config(), injector=injector)
        with pytest.raises(FatalFaultError):
            guard.call("query", lambda token: 42)
        assert guard.breaker.state == OPEN
        assert guard.breaker.needs_recovery

    def test_open_breaker_rejects_without_dispatching(self):
        injector = FaultInjector(seed=0)
        injector.configure("shard.0.query", schedule=first_n(1), kind="fatal")
        guard = ShardGuard(0, fast_config(), injector=injector)
        with pytest.raises(FatalFaultError):
            guard.call("query", lambda token: 42)
        ran = []
        with pytest.raises(ShardDownError):
            guard.call("query", lambda token: ran.append(1))
        assert ran == []

    def test_caller_errors_propagate_without_breaker_penalty(self):
        guard = ShardGuard(0, fast_config(failure_threshold=1))

        def bad_request(token):
            raise KeyError("unknown poi")

        with pytest.raises(KeyError):
            guard.call("query", bad_request)
        assert guard.breaker.state == CLOSED
        assert guard.breaker.failures == 0

    def test_timeout_raises_and_is_not_retried(self):
        release = threading.Event()
        attempts = []

        def stall(token):
            attempts.append(1)
            release.wait(5.0)
            return 42

        guard = ShardGuard(0, fast_config(call_timeout=0.05, max_retries=3))
        try:
            with pytest.raises(ShardCallTimeout):
                guard.call("query", stall)
            assert guard.timeouts == 1
            assert guard.retries == 0
            assert len(attempts) == 1
        finally:
            release.set()
            guard.close()

    def test_abandoned_token_aborts_a_late_mutation(self):
        token = CallToken()
        token.check()  # live: no-op
        token.abandoned = True
        from repro.cluster.resilience import _AbandonedCall

        with pytest.raises(_AbandonedCall):
            token.check()

    def test_open_kind_bypasses_the_breaker(self):
        guard = ShardGuard(0, fast_config())
        guard.breaker.record_failure(fatal=True)
        assert guard.call("open", lambda token: "recovered") == "recovered"
        # The bypass also leaves breaker accounting untouched.
        assert guard.breaker.state == OPEN

    def test_health_events_stream_transitions_and_timeouts(self):
        events = []
        injector = FaultInjector(seed=0)
        injector.configure("shard.3.query", schedule=constant(1.0), kind="fatal")
        guard = ShardGuard(
            3, fast_config(), injector=injector, on_event=events.append
        )
        with pytest.raises(FatalFaultError):
            guard.call("query", lambda token: 42)
        kinds = [event.kind for event in events]
        assert "breaker-open" in kinds
        assert "shard-error" in kinds
        assert all(event.shard == 3 for event in events)

    def test_snapshot_reports_guard_counters(self):
        guard = ShardGuard(0, fast_config())
        guard.call("query", lambda token: 1)
        snapshot = guard.snapshot()
        assert snapshot["calls"] == 1
        assert snapshot["state"] == CLOSED

    def test_backoff_is_deterministic_under_seed(self):
        a = ShardGuard(0, fast_config(seed=7))
        b = ShardGuard(0, fast_config(seed=7))
        assert [a._backoff(i) for i in range(4)] == [
            b._backoff(i) for i in range(4)
        ]


class TestShardDescriptor:
    def test_bound_underestimates_every_shard_result(self, small_dataset):
        cluster = ClusterTree.build(small_dataset, num_shards=4)
        query = trailing_query(cluster, k=5, alpha0=0.5)
        normalizer = cluster.normalizer(query.interval, query.semantics)
        for shard in cluster.shards:
            bound = cluster._shard_bound(shard, query, normalizer)
            if bound is None:
                assert len(shard.tree) == 0
                continue
            results = knnta_search(shard.tree, query, normalizer=normalizer)
            assert all(result.score >= bound - 1e-9 for result in results)

    def test_descriptor_refreshes_after_routed_mutations(self, small_dataset):
        from repro import POI

        cluster = ClusterTree.build(small_dataset, num_shards=3)
        poi = POI("fresh-bound", 30.0, 25.0)
        cluster.insert_poi(poi, {0: 7})
        owner = cluster._owner_of("fresh-bound")
        descriptor = owner.descriptor
        assert descriptor.fresh
        assert descriptor.pois == len(owner.tree)
        assert descriptor.epoch_max == dict(owner.tree.global_epoch_max())

    def test_cluster_normalization_never_touches_shard_trees(self, small_dataset):
        # global_epoch_max is served from the descriptors: identical to
        # the merged live view, with zero shard-tree calls on the way.
        cluster = ClusterTree.build(small_dataset, num_shards=3)
        single = TARTree.build(small_dataset)
        assert cluster.global_epoch_max() == single.global_epoch_max()


class TestDegradedAnswer:
    def build(self):
        return DegradedAnswer(["r0", "r1"], (2,), 0.75, 0.125)

    def test_behaves_as_the_result_sequence(self):
        answer = self.build()
        assert list(answer) == ["r0", "r1"]
        assert len(answer) == 2
        assert answer[0] == "r0"
        assert answer[:1] == ["r0"]

    def test_carries_the_degradation_evidence(self):
        answer = self.build()
        assert answer.degraded is True
        assert answer.missed_shards == (2,)
        assert answer.coverage == 0.75
        assert answer.score_bound == 0.125

    def test_plain_lists_are_not_degraded(self):
        assert getattr([], "degraded", False) is False


def revive_shard(injector, index):
    for site in ("query", "mutate", "scrub"):
        injector.disarm("shard.%d.%s" % (index, site))


#: A shard that fails is quarantined on its first failed call, on either
#: transport: an injected fatal fault opens the breaker by itself, and a
#: SIGKILLed worker surfaces as refused connections (transient errors).
#: One probe closes a readmitted breaker again.
DEAD_ON_FIRST_FAILURE = ResilienceConfig(
    sleep=lambda _: None, failure_threshold=1, probe_successes=1
)


@pytest.fixture(scope="module")
def single(small_dataset):
    return TARTree.build(small_dataset)


def owner_of_top_result(cluster, single, query):
    """The shard holding the oracle's top-1 row."""
    top = single.query(query)[0].poi_id
    index = cluster.plan.route(single.poi(top).point)
    assert index is not None
    return index


class TestDegradationPolicy:
    """The degradation policy on in-process shards.

    ``make(allow_degraded=..., parallelism=...)`` opens the 4-shard
    cluster under test; :class:`TestDegradationPolicyOnWorkers` re-runs
    every test over worker processes.
    """

    @pytest.fixture
    def transport(self):
        return "inproc"

    @pytest.fixture
    def make(self, transport, small_dataset, tmp_path):
        with ExitStack() as stack:

            def make(allow_degraded=False, parallelism=1):
                return stack.enter_context(
                    open_on(
                        transport,
                        small_dataset,
                        tmp_path / "c",
                        resilience=DEAD_ON_FIRST_FAILURE,
                        allow_degraded=allow_degraded,
                        parallelism=parallelism,
                    )
                )

            yield make

    def test_strict_default_raises_when_a_blocking_shard_is_down(
        self, make, single
    ):
        cluster = make()
        query = trailing_query(cluster, k=10)
        victim = owner_of_top_result(cluster, single, query)
        kill_shard(cluster, victim)
        with pytest.raises(ClusterDegradedError) as excinfo:
            cluster.query(query)
        assert victim in excinfo.value.missed_shards
        assert 0.0 < excinfo.value.coverage < 1.0
        assert excinfo.value.score_bound is not None

    def test_allow_degraded_returns_a_bounded_answer(self, make, single):
        cluster = make(allow_degraded=True)
        query = trailing_query(cluster, k=10)
        victim = owner_of_top_result(cluster, single, query)
        kill_shard(cluster, victim)
        answer = cluster.query(query)
        assert isinstance(answer, DegradedAnswer)
        assert answer.missed_shards == (victim,)
        assert answer.coverage == pytest.approx(0.75)
        # The certificate: every returned row scoring strictly below the
        # bound is definitively ranked — it must match the oracle row.
        oracle = single.query(query)
        for position, row in enumerate(answer):
            if row.score < answer.score_bound - 1e-9:
                assert row == oracle[position]

    def test_per_call_override_beats_the_cluster_default(self, make, single):
        cluster = make()
        query = trailing_query(cluster, k=10)
        victim = owner_of_top_result(cluster, single, query)
        kill_shard(cluster, victim)
        answer = cluster.query(query, allow_degraded=True)
        assert isinstance(answer, DegradedAnswer)
        with pytest.raises(ClusterDegradedError):
            cluster.query(query, allow_degraded=False)

    def test_down_but_irrelevant_shard_leaves_the_answer_exact(
        self, make, single
    ):
        # Distance-dominant query with a small k: the shard farthest
        # from the query point cannot beat the k-th score, so its death
        # is certified harmless and the answer stays provably exact.
        # Parallel dispatch submits every shard before the k-th score
        # tightens, so the far shard actually fails (sequential order
        # would prune it before dispatch).
        cluster = make(parallelism=4)
        query = trailing_query(cluster, k=2, alpha0=0.95)
        normalizer = cluster.normalizer(query.interval, query.semantics)
        bounds = {
            shard.index: cluster._shard_bound(shard, query, normalizer)
            for shard in cluster.shards
        }
        victim = max(
            (index for index, bound in bounds.items() if bound is not None),
            key=lambda index: bounds[index],
        )
        kill_shard(cluster, victim)
        before = cluster.counters()
        results = cluster.query(query)  # strict policy: would raise if unproven
        assert not isinstance(results, DegradedAnswer)
        assert results == single.query(query)
        counters = cluster.counters()
        assert counters["certified_exact"] - before["certified_exact"] == 1
        assert counters["shards.failed"] - before["shards.failed"] == 1

    def test_batch_certificate_counts_every_certified_rider(self, make, single):
        # The farthest shard dies under four distance-dominant queries.
        # Each answer is certified exact on its own bound and counts
        # once — in one batch exactly as when asked one at a time.
        cluster = make(parallelism=4)
        end = cluster.current_time
        queries = [
            KNNTAQuery(
                (0.3 + 0.05 * i, 0.5), TimeInterval(end - 28, end), k=2, alpha0=0.95
            )
            for i in range(4)
        ]
        worst: dict = {}
        for query in queries:
            normalizer = cluster.normalizer(query.interval, query.semantics)
            for shard in cluster.shards:
                bound = cluster._shard_bound(shard, query, normalizer)
                if bound is not None:
                    worst[shard.index] = min(bound, worst.get(shard.index, bound))
        victim = max(worst, key=worst.get)
        kill_shard(cluster, victim)
        oracle = [single.query(query) for query in queries]
        before = cluster.counters()["certified_exact"]
        answers = cluster.query_batch(queries)
        assert answers == oracle
        assert all(answer.exact for answer in answers)
        assert cluster.counters()["certified_exact"] - before == len(queries)
        before = cluster.counters()["certified_exact"]
        assert [cluster.query(query) for query in queries] == oracle
        assert cluster.counters()["certified_exact"] - before == len(queries)

    def test_explain_reports_the_fault_domain_outcome(self, make, single):
        cluster = make(allow_degraded=True)
        query = trailing_query(cluster, k=10)
        victim = owner_of_top_result(cluster, single, query)
        kill_shard(cluster, victim)
        _, cost = cluster.explain(query)
        assert cost["shards.failed"] == 1
        assert cost["shards.down"] == 1
        assert cost["shards.certified"] in (0, 1)

    def test_query_batch_applies_the_policy_per_query(self, make, single):
        cluster = make(allow_degraded=True)
        end = cluster.current_time
        queries = [
            KNNTAQuery((0.1 * i, 0.5), TimeInterval(end - 28, end), k=5)
            for i in range(4)
        ]
        victim = owner_of_top_result(cluster, single, queries[0])
        kill_shard(cluster, victim)
        answers = cluster.query_batch(queries)
        assert len(answers) == len(queries)
        for query, answer in zip(queries, answers):
            oracle = single.query(query)
            if isinstance(answer, DegradedAnswer):
                for position, row in enumerate(answer):
                    if row.score < answer.score_bound - 1e-9:
                        assert row == oracle[position]
            else:
                assert answer == oracle

    def test_mutation_to_a_down_shard_raises_shard_down(self, make):
        from repro import POI

        cluster = make()
        poi = POI("blocked", 30.0, 25.0)
        victim = cluster.plan.route((30.0, 25.0))
        kill_shard(cluster, victim)
        pois = len(cluster)
        # The dead shard might own the id, so the duplicate check refuses
        # the insert — the first time with the shard's own failure, then
        # with its open breaker.
        with pytest.raises((FatalFaultError, TransientIOError)):
            cluster.insert_poi(poi)
        with pytest.raises(ShardDownError):
            cluster.insert_poi(poi)
        with pytest.raises(ShardDownError):
            "blocked" in cluster
        assert len(cluster) == pois


class TestDegradationPolicyOnWorkers(TestDegradationPolicy):
    """Every degradation test above, over worker processes.

    The tests share one worker cluster: ``make`` re-applies the
    options, and each test's dead workers are respawned afterwards
    (their breakers readmitted and closed by one probe).
    """

    @pytest.fixture(scope="class")
    def transport(self):
        return "workers"

    @pytest.fixture(scope="class")
    def shared(self, transport, small_dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("degradation") / "c"
        with open_on(
            transport, small_dataset, path, resilience=DEAD_ON_FIRST_FAILURE
        ) as cluster:
            yield cluster

    @pytest.fixture
    def make(self, shared):
        def make(allow_degraded=False, parallelism=1):
            shared.allow_degraded = allow_degraded
            shared.parallelism = parallelism
            return shared

        yield make
        for shard in shared.shards:
            guard = shared._guards[shard.index]
            if not shard.handle.alive or guard.breaker.state != CLOSED:
                shared.recover_shard(shard.index)
        probed = "no-such-poi" in shared  # one probe closes each breaker
        assert not probed
        assert shared.counters()["shards.down"] == 0


class TestOnlineRecovery:
    def durable_cluster(self, small_dataset, tmp_path, **kwargs):
        built = ClusterTree.build(small_dataset, num_shards=3)
        save_cluster(built, str(tmp_path / "c"))
        built.close()
        kwargs.setdefault("resilience", NO_SLEEP)
        return open_cluster(str(tmp_path / "c"), **kwargs)

    def test_recovered_shard_serves_bit_identical_answers(
        self, small_dataset, tmp_path
    ):
        injector = FaultInjector(seed=0)
        cluster = self.durable_cluster(
            small_dataset, tmp_path, injector=injector, allow_degraded=True
        )
        try:
            query = trailing_query(cluster, k=10)
            before = cluster.query(query)
            assert not isinstance(before, DegradedAnswer)
            victim = cluster.plan.route(cluster.poi(before[0].poi_id).point)
            kill_shard(cluster, victim)
            degraded = cluster.query(query)
            assert isinstance(degraded, DegradedAnswer)
            revive_shard(injector, victim)
            cluster.recover_shard(victim)
            after = cluster.query(query)
            assert not isinstance(after, DegradedAnswer)
            assert after == before
            assert cluster.counters()["recoveries"] == 1
        finally:
            cluster.close()

    def test_readmission_goes_through_half_open_probes(
        self, small_dataset, tmp_path
    ):
        injector = FaultInjector(seed=0)
        resilience = ResilienceConfig(
            sleep=lambda _: None, probe_successes=2, probe_after=1
        )
        cluster = self.durable_cluster(
            small_dataset,
            tmp_path,
            injector=injector,
            allow_degraded=True,
            resilience=resilience,
        )
        try:
            query = trailing_query(cluster, k=10)
            victim = cluster.plan.route(
                cluster.poi(cluster.query(query)[0].poi_id).point
            )
            kill_shard(cluster, victim)
            cluster.query(query)
            revive_shard(injector, victim)
            cluster.recover_shard(victim)
            guard = cluster._guards[victim]
            assert guard.breaker.state == HALF_OPEN
            cluster.query(query)
            cluster.query(query)
            assert guard.breaker.state == CLOSED
        finally:
            cluster.close()

    def test_scrub_tick_drives_recovery_automatically(
        self, small_dataset, tmp_path
    ):
        injector = FaultInjector(seed=0)
        cluster = self.durable_cluster(
            small_dataset, tmp_path, injector=injector, allow_degraded=True
        )
        try:
            query = trailing_query(cluster, k=10)
            victim = cluster.plan.route(
                cluster.poi(cluster.query(query)[0].poi_id).point
            )
            kill_shard(cluster, victim)
            cluster.query(query)
            assert cluster._guards[victim].breaker.needs_recovery
            revive_shard(injector, victim)
            for _ in range(2 * len(cluster.shards)):
                cluster.scrub_tick(budget=8)
                if cluster.counters()["recoveries"]:
                    break
            assert cluster.counters()["recoveries"] == 1
            assert not cluster._guards[victim].breaker.needs_recovery
        finally:
            cluster.close()

    def test_recovery_without_durable_state_raises(self, small_dataset):
        from repro import ClusterStateError

        cluster = ClusterTree.build(small_dataset, num_shards=2)
        with pytest.raises(ClusterStateError):
            cluster.recover_shard(0)

    def test_mutations_survive_kill_and_recovery(self, small_dataset, tmp_path):
        from repro import POI

        injector = FaultInjector(seed=0)
        cluster = self.durable_cluster(
            small_dataset, tmp_path, injector=injector, allow_degraded=True
        )
        try:
            poi = POI("durable-row", 30.0, 25.0)
            cluster.insert_poi(poi, {0: 5})
            victim = cluster.plan.route((30.0, 25.0))
            kill_shard(cluster, victim)
            query = trailing_query(cluster, k=10)
            cluster.query(query)
            revive_shard(injector, victim)
            cluster.recover_shard(victim)
            assert "durable-row" in cluster
            assert cluster.poi("durable-row").point == (30.0, 25.0)
        finally:
            cluster.close()


class TestHealthSurface:
    def test_health_reports_per_shard_state_and_events(self, small_dataset):
        injector = FaultInjector(seed=0)
        cluster = ClusterTree.build(
            small_dataset,
            num_shards=3,
            resilience=NO_SLEEP,
            injector=injector,
            allow_degraded=True,
        )
        query = trailing_query(cluster, k=10)
        victim = cluster.plan.route(
            cluster.poi(cluster.query(query)[0].poi_id).point
        )
        kill_shard(cluster, victim)
        cluster.query(query)
        health = cluster.health()
        assert len(health["shards"]) == 3
        states = {entry["shard"]: entry["state"] for entry in health["shards"]}
        assert states[victim] == OPEN
        assert any(event["shard"] == victim for event in health["events"])
        assert health["degraded_answers"] + health["certified_exact"] >= 1

    def test_observers_receive_every_event(self, small_dataset):
        injector = FaultInjector(seed=0)
        cluster = ClusterTree.build(
            small_dataset,
            num_shards=2,
            resilience=NO_SLEEP,
            injector=injector,
            allow_degraded=True,
        )
        seen = []
        cluster.add_health_observer(seen.append)
        kill_shard(cluster, 0)
        kill_shard(cluster, 1)
        cluster.query(trailing_query(cluster, k=5))
        assert seen
        cluster.remove_health_observer(seen.append)
        count = len(seen)
        cluster.query(trailing_query(cluster, k=5))
        assert len(seen) == count

    def test_counters_surface_the_fault_domain(self, small_dataset):
        injector = FaultInjector(seed=0)
        cluster = ClusterTree.build(
            small_dataset,
            num_shards=3,
            resilience=NO_SLEEP,
            injector=injector,
            allow_degraded=True,
        )
        kill_shard(cluster, 0)
        cluster.query(trailing_query(cluster, k=5))
        counters = cluster.counters()
        for key in (
            "breaker_opens",
            "shards.down",
            "shards.retries",
            "shards.timeouts",
            "shards.failed",
            "certified_exact",
            "degraded_answers",
            "recoveries",
        ):
            assert key in counters
        assert counters["breaker_opens"] >= 0


class TestGuardOverheadSmoke:
    def test_guarded_inline_call_has_no_executor(self, small_dataset):
        # call_timeout=None runs thunks inline on the caller's thread:
        # the guard must not spin up executors on the happy path.
        cluster = ClusterTree.build(small_dataset, num_shards=2)
        cluster.query(trailing_query(cluster, k=5))
        assert all(guard._executor is None for guard in cluster._guards)

    def test_timeout_mode_bounds_a_stalled_shard(self, small_dataset):
        injector = FaultInjector(seed=0, sleep=time.sleep)
        # Keep the stall short: the abandoned executor thread sleeps it
        # out and the interpreter joins executor threads at exit.
        injector.configure(
            "shard.0.query", schedule=constant(1.0), kind="latency", delay=2.0
        )
        resilience = ResilienceConfig(call_timeout=0.1, sleep=lambda _: None)
        cluster = ClusterTree.build(
            small_dataset,
            num_shards=2,
            resilience=resilience,
            injector=injector,
            allow_degraded=True,
        )
        try:
            started = time.monotonic()
            answer = cluster.query(trailing_query(cluster, k=5))
            elapsed = time.monotonic() - started
            assert elapsed < 1.5  # never waits out the 2s stall
            if isinstance(answer, DegradedAnswer):
                assert 0 in answer.missed_shards
            assert cluster.counters()["shards.timeouts"] >= 1
        finally:
            cluster.close()
