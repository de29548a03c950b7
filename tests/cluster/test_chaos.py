"""Seeded chaos: shards die and stall mid-scatter-gather under load.

Every answer the cluster produces while shards are being killed,
stalled and recovered must satisfy the *trichotomy*:

1. a plain list answer claims exactness — it must be bit-identical to
   the single-tree oracle for the same query;
2. otherwise the degradation is explicit — a :class:`DegradedAnswer`
   carrying the missed shards, the coverage and the score bound, with
   every row scoring below the bound provably final;
3. and the query always completes — never a hang past the per-shard
   deadline, never a crash escaping the coordinator.

The fault schedule is seeded (``REPRO_CHAOS_SEED``, default 0) so a CI
failure replays locally with the same seed; the CI chaos leg runs a
small fixed seed matrix.
"""

import os
import random
import threading
import time

import pytest

from repro import (
    ClusterTree,
    DegradedAnswer,
    KNNTAQuery,
    ResilienceConfig,
    TARTree,
    TimeInterval,
)
from repro.cluster import open_cluster, save_cluster
from repro.cluster.resilience import CLOSED
from repro.reliability.faults import FaultInjector, TransientIOError, constant

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Rows scoring this far below the degradation bound are asserted final.
EPSILON = 1e-9


def make_workload(cluster, seed, count=12):
    rng = random.Random(seed)
    end = cluster.current_time
    queries = []
    for _ in range(count):
        days = rng.choice([14.0, 28.0, 90.0])
        queries.append(
            KNNTAQuery(
                (rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
                TimeInterval(end - days, end),
                k=rng.choice([3, 5, 10]),
                alpha0=rng.choice([0.2, 0.5, 0.8]),
            )
        )
    return queries


def check_answer(answer, oracle, failures, label):
    """One trichotomy check; appends a description on violation."""
    if getattr(answer, "degraded", False):
        if not answer.missed_shards:
            failures.append("%s: degraded answer without missed shards" % label)
            return
        if not 0.0 <= answer.coverage < 1.0:
            failures.append("%s: bad coverage %r" % (label, answer.coverage))
        bound = answer.score_bound
        if bound is None:
            return
        for position, row in enumerate(answer):
            if row.score < bound - EPSILON and row != oracle[position]:
                failures.append(
                    "%s: row %d scores below the bound (%.6f < %.6f) but "
                    "differs from the oracle" % (label, position, row.score, bound)
                )
                return
    elif list(answer) != oracle:
        failures.append("%s: exact-flagged answer differs from the oracle" % label)


@pytest.fixture
def chaos_cluster(small_dataset, tmp_path):
    built = ClusterTree.build(small_dataset, num_shards=4)
    save_cluster(built, str(tmp_path / "c"))
    built.close()
    injector = FaultInjector(seed=CHAOS_SEED)
    resilience = ResilienceConfig(
        call_timeout=0.25,
        sleep=lambda _: None,
        probe_after=2,
        probe_successes=1,
    )
    cluster = open_cluster(
        str(tmp_path / "c"),
        parallelism=2,
        resilience=resilience,
        injector=injector,
        allow_degraded=True,
    )
    yield cluster, injector
    cluster.close()


class TestChaosTrichotomy:
    def test_kills_and_stalls_under_concurrent_load(
        self, chaos_cluster, small_dataset
    ):
        cluster, injector = chaos_cluster
        single = TARTree.build(small_dataset)
        queries = make_workload(cluster, CHAOS_SEED)
        oracle = [single.query(query) for query in queries]
        failures = []
        stop = threading.Event()

        def worker(worker_id):
            rng = random.Random(CHAOS_SEED * 1000 + worker_id)
            while not stop.is_set():
                index = rng.randrange(len(queries))
                try:
                    answer = cluster.query(queries[index])
                except Exception as exc:
                    failures.append(
                        "worker %d query %d escaped: %s: %s"
                        % (worker_id, index, type(exc).__name__, exc)
                    )
                    return
                check_answer(
                    answer,
                    oracle[index],
                    failures,
                    "worker %d query %d" % (worker_id, index),
                )

        def chaos():
            rng = random.Random(CHAOS_SEED + 999)
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                victim = rng.randrange(len(cluster.shards))
                site = "shard.%d.query" % victim
                kind = rng.choice(["fatal", "transient", "latency"])
                if kind == "latency":
                    # Stalls past the 0.25s call deadline: surfaces as a
                    # timeout, not a hang.
                    injector.configure(
                        site, schedule=constant(1.0), kind="latency", delay=0.6
                    )
                else:
                    injector.configure(
                        site,
                        schedule=constant(rng.uniform(0.5, 1.0)),
                        kind=kind,
                    )
                time.sleep(0.05)
                injector.disarm(site)
                # Drive online recovery for fatally-killed shards so the
                # run exercises readmission, not just quarantine.
                for _ in range(len(cluster.shards)):
                    cluster.scrub_tick(budget=4)
            stop.set()

        threads = [
            threading.Thread(target=worker, args=(worker_id,), daemon=True)
            for worker_id in range(4)
        ]
        chaos_thread = threading.Thread(target=chaos, daemon=True)
        for thread in threads:
            thread.start()
        chaos_thread.start()
        chaos_thread.join(timeout=30.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        hung = [thread for thread in threads + [chaos_thread] if thread.is_alive()]
        assert not hung, "threads hung past the deadline: %r" % (hung,)
        assert not failures, "\n".join(failures[:10])

    def test_cluster_returns_to_exact_after_the_storm(
        self, chaos_cluster, small_dataset
    ):
        cluster, injector = chaos_cluster
        single = TARTree.build(small_dataset)
        queries = make_workload(cluster, CHAOS_SEED + 7, count=6)
        oracle = [single.query(query) for query in queries]
        # Kill every shard fatally, once.
        for shard in cluster.shards:
            injector.configure(
                "shard.%d.query" % shard.index, schedule=constant(1.0), kind="fatal"
            )
        for query in queries:
            answer = cluster.query(query)
            assert getattr(answer, "degraded", False)
        for shard in cluster.shards:
            injector.disarm("shard.%d.query" % shard.index)
        # The scrub loop recovers each quarantined shard online; probe
        # queries then close the breakers.
        for _ in range(4 * len(cluster.shards)):
            cluster.scrub_tick(budget=8)
            if cluster.counters()["recoveries"] >= len(cluster.shards):
                break
        assert cluster.counters()["recoveries"] >= len(cluster.shards)
        for _ in range(3):
            for query in queries:
                cluster.query(query)
        assert all(
            guard.breaker.state == CLOSED for guard in cluster._guards
        )
        failures = []
        for index, query in enumerate(queries):
            answer = cluster.query(query)
            assert not getattr(answer, "degraded", False)
            check_answer(answer, oracle[index], failures, "post-storm %d" % index)
        assert not failures, "\n".join(failures)

    def test_stalled_shard_never_hangs_the_query(self, chaos_cluster):
        cluster, injector = chaos_cluster
        injector.configure(
            "shard.0.query", schedule=constant(1.0), kind="latency", delay=1.0
        )
        query = make_workload(cluster, CHAOS_SEED)[0]
        started = time.monotonic()
        for _ in range(3):
            cluster.query(query)
        elapsed = time.monotonic() - started
        # Three queries against a 1s-stalled shard with a 0.25s deadline:
        # well under the 3s a hang-and-wait would cost.
        assert elapsed < 2.5
        assert cluster.counters()["shards.timeouts"] >= 1


# ----------------------------------------------------------------------
# Out-of-process worker chaos: SIGKILL is the fault injector
# ----------------------------------------------------------------------


@pytest.fixture
def worker_chaos_cluster(small_dataset, tmp_path):
    """A 4-worker remote cluster tuned for fast failure detection."""
    from repro.cluster import RemoteClusterTree

    built = ClusterTree.build(small_dataset, num_shards=4)
    save_cluster(built, str(tmp_path / "c"))
    built.close()
    resilience = ResilienceConfig(
        call_timeout=5.0,
        sleep=lambda _: None,
        probe_after=2,
        probe_successes=1,
    )
    remote = RemoteClusterTree.start(
        str(tmp_path / "c"),
        resilience=resilience,
        allow_degraded=True,
        request_timeout=5.0,
    )
    yield remote
    remote.close()


def recover_all_workers(remote):
    """Respawn every dead or quarantined worker; returns the count."""
    recovered = 0
    for shard in list(remote.shards):
        guard = remote._guards[shard.index]
        dead = shard.handle is not None and not shard.handle.alive
        if dead or guard.breaker.needs_recovery or guard.breaker.state != CLOSED:
            remote.recover_shard(shard.index)
            recovered += 1
    return recovered


@pytest.mark.timeout(300)
class TestWorkerSigkillChaos:
    """SIGKILL-ed worker processes obey the same trichotomy as
    in-process shard faults: every answer is exact or explicitly
    degraded, never silently wrong and never hung, and an online
    worker restart returns the cluster to bit-identical serving."""

    def test_sigkill_mid_query_exact_or_degraded_never_hung(
        self, worker_chaos_cluster, small_dataset
    ):
        remote = worker_chaos_cluster
        single = TARTree.build(small_dataset)
        queries = make_workload(remote, CHAOS_SEED, count=8)
        oracle = [single.query(query) for query in queries]
        failures = []
        stop = threading.Event()

        def prober(worker_id):
            rng = random.Random(CHAOS_SEED * 177 + worker_id)
            while not stop.is_set():
                index = rng.randrange(len(queries))
                try:
                    answer = remote.query(queries[index])
                except Exception as exc:
                    failures.append(
                        "prober %d query %d escaped: %s: %s"
                        % (worker_id, index, type(exc).__name__, exc)
                    )
                    return
                check_answer(
                    answer,
                    oracle[index],
                    failures,
                    "prober %d query %d" % (worker_id, index),
                )

        threads = [
            threading.Thread(target=prober, args=(worker_id,), daemon=True)
            for worker_id in range(3)
        ]
        for thread in threads:
            thread.start()
        rng = random.Random(CHAOS_SEED + 4242)
        try:
            for _ in range(3):
                victim = rng.randrange(len(remote.shards))
                remote.shards[victim].handle.kill()
                time.sleep(0.2)
                remote.recover_shard(victim)
        finally:
            stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "probers hung"
        assert not failures, "\n".join(failures[:10])
        # Post-storm: every worker alive, answers exact again.
        recover_all_workers(remote)
        for _ in range(3):
            for query in queries:
                remote.query(query)
        for index, query in enumerate(queries):
            answer = remote.query(query)
            assert not getattr(answer, "degraded", False)
            assert list(answer) == list(oracle[index])
        assert remote.counters()["recoveries"] >= 3

    def test_sigkill_mid_insert_is_never_silent(
        self, worker_chaos_cluster
    ):
        from repro import POI
        from repro.cluster import ShardFaultError

        remote = worker_chaos_cluster
        rng = random.Random(CHAOS_SEED + 11)
        world = remote.world
        accepted = []
        refused = 0
        for step in range(24):
            if step == 8:
                victim = rng.randrange(len(remote.shards))
                remote.shards[victim].handle.kill()
            poi = POI(
                "chaos-%d" % step,
                rng.uniform(world.lows[0], world.highs[0]),
                rng.uniform(world.lows[1], world.highs[1]),
            )
            try:
                lsn = remote.insert_poi(poi, {0: rng.randint(1, 4)})
            except (ShardFaultError, TransientIOError) as exc:
                # The loss is explicit, typed and names its fault; the
                # mutation may or may not be WAL-durable (the worker
                # died around the append) — what it can never be is
                # silently dropped after a success reply.
                refused += 1
                assert str(exc)
                continue
            assert lsn is not None
            accepted.append(poi.poi_id)
        assert refused > 0, "the kill never hit an insert"
        recover_all_workers(remote)
        # Every acknowledged insert survived the crash + WAL recovery.
        for poi_id in accepted:
            assert poi_id in remote, poi_id
        assert remote.counters()["recoveries"] >= 1

    def test_sigkill_mid_split_aborts_cleanly_then_recovers(
        self, worker_chaos_cluster, small_dataset, tmp_path
    ):
        import os

        from repro.cluster import split_shard

        remote = worker_chaos_cluster
        single = TARTree.build(small_dataset)
        queries = make_workload(remote, CHAOS_SEED + 3, count=5)
        oracle = [single.query(query) for query in queries]
        shards_before = len(remote.shards)
        epoch_before = remote.plan_epoch
        dirs_before = sorted(os.listdir(str(tmp_path / "c")))

        # Kill the split's source worker: Phase A's drain checkpoint
        # hits a dead socket and the split must abort without touching
        # the routing table or leaking successor directories.
        remote.shards[0].handle.kill()
        with pytest.raises(Exception) as excinfo:
            split_shard(remote, 0)
        assert not isinstance(excinfo.value, AssertionError)
        assert len(remote.shards) == shards_before
        assert remote.plan_epoch == epoch_before
        assert sorted(os.listdir(str(tmp_path / "c"))) == dirs_before
        assert remote.counters()["reshards"] == 0

        # Online recovery brings the source back; answers are exact.
        recover_all_workers(remote)
        for _ in range(2):
            for query in queries:
                remote.query(query)
        for index, query in enumerate(queries):
            answer = remote.query(query)
            assert not getattr(answer, "degraded", False)
            assert list(answer) == list(oracle[index])

        # The aborted split released its claim: a retry now succeeds
        # and stays bit-identical.
        low, high = split_shard(remote, 0)
        assert (low, high) == (0, shards_before)
        for index, query in enumerate(queries):
            assert list(remote.query(query)) == list(oracle[index])

    def test_killed_worker_surfaces_in_health(self, worker_chaos_cluster):
        remote = worker_chaos_cluster
        remote.shards[2].handle.kill()
        remote.shards[2].handle.join(timeout=10)
        health = remote.health()
        entry = health["shards"][2]
        assert entry["alive"] is False
        remote.recover_shard(2)
        health = remote.health()
        assert health["shards"][2]["alive"] is True
        assert health["recoveries"] == 1

    def test_unreachable_owner_refuses_instead_of_diverging(
        self, worker_chaos_cluster
    ):
        from repro import POI
        from repro.cluster import ShardFaultError

        remote = worker_chaos_cluster
        victim = remote.shards[1]
        with remote._routing.read_locked():
            hello = victim.client.request({"op": "hello"})
        assert hello["pois"] > 0, "victim shard must own something"
        victim.handle.kill()
        victim.handle.join(timeout=10)
        refusals = (ShardFaultError, TransientIOError)
        # The dead worker might own any POI, so an ownership-dependent
        # operation must refuse loudly — treating the worker as "absent"
        # would let a duplicate insert through or turn a delete of an
        # indexed POI into a silent False.
        world = remote.world
        poi = POI("owner-probe-poi", world.lows[0], world.lows[1])
        with pytest.raises(refusals):
            remote.insert_poi(poi, {0: 1})
        with pytest.raises(refusals):
            remote.delete_poi("no-such-poi-anywhere")
        with pytest.raises(refusals):
            remote.__contains__("no-such-poi-anywhere")
        recover_all_workers(remote)
        # Healthy again: the same probes conclude normally.
        assert remote.delete_poi("no-such-poi-anywhere") is False
        assert remote.insert_poi(poi, {0: 1}) is not None
        assert poi.poi_id in remote
