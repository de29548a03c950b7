"""The subscription contract: every pushed state is bit-identical to a
one-shot ``tree.query()`` at that window.

Whatever mix of digests, inserts and deletes slid the window there, a
subscriber's ranked rows — scores, distances, aggregates, order,
exactness — equal what a client issuing the equivalent
:class:`~repro.KNNTAQuery` at that instant would get.  Single tree and
cluster (in process and over worker processes), including across a
shard kill, explicit degradation, and online recovery.
"""

import random

import pytest

from repro import (
    ClusterTree,
    KNNTAQuery,
    POI,
    ResilienceConfig,
    SubscriptionRegistry,
    TARTree,
    open_cluster,
    save_cluster,
)
from repro.continuous import window_state
from repro.reliability.faults import FaultInjector, constant
from repro.temporal.tia import IntervalSemantics

from tests.cluster.conftest import open_on
from tests.continuous.conftest import replay

NO_SLEEP = ResilienceConfig(sleep=lambda _: None)

SPECS = [
    # (point, window_epochs, k, alpha0, semantics)
    ((40.0, 40.0), 3, 5, 0.3, IntervalSemantics.INTERSECTS),
    ((10.0, 80.0), 2, 3, 0.7, IntervalSemantics.INTERSECTS),
    ((60.0, 20.0), 6, 10, 0.5, IntervalSemantics.CONTAINED),
    ((50.0, 50.0), 1, 2, 0.1, IntervalSemantics.INTERSECTS),
]


def one_shot_query(tree, spec):
    point, window, k, alpha0, semantics = spec
    state = window_state(tree.clock, tree.current_time, window, semantics)
    return KNNTAQuery(point, state.interval, k=k, alpha0=alpha0,
                      semantics=semantics)


def assert_state_matches(tree, subscription, spec, allow_degraded=False):
    query = one_shot_query(tree, spec)
    if allow_degraded:
        oracle = tree.query(query, allow_degraded=True)
    else:
        oracle = tree.query(query)
    assert list(subscription.last_rows) == list(oracle.rows)
    assert subscription.last_exact == bool(oracle.exact)


def kill_shard(injector, index, kind="fatal"):
    for site in ("query", "mutate", "scrub"):
        injector.configure(
            "shard.%d.%s" % (index, site), schedule=constant(1.0), kind=kind
        )


def revive_shard(injector, index):
    for site in ("query", "mutate", "scrub"):
        injector.disarm("shard.%d.%s" % (index, site))


class TestSingleTreeEquivalence:
    def test_digest_stream(self, half_tree, small_dataset):
        registry = SubscriptionRegistry(half_tree)
        subs = [
            (registry.subscribe(spec[0], spec[1], k=spec[2], alpha0=spec[3],
                                semantics=spec[4])[0], spec)
            for spec in SPECS
        ]
        for sub, spec in subs:
            assert_state_matches(half_tree, sub, spec)
        advances = 0
        for epoch, counts in replay(half_tree, small_dataset):
            half_tree.digest_epoch(epoch, counts)
            registry.advance()
            for sub, spec in subs:
                assert_state_matches(half_tree, sub, spec)
            advances += 1
        assert advances >= 5
        counters = registry.counters()
        assert counters["evals.errors"] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_mutation_stream(self, small_dataset, seed):
        rng = random.Random(seed)
        tree = TARTree.build(small_dataset.snapshot(0.7))
        registry = SubscriptionRegistry(tree)
        subs = [
            (registry.subscribe(spec[0], spec[1], k=spec[2], alpha0=spec[3],
                                semantics=spec[4])[0], spec)
            for spec in SPECS
        ]
        inserted = 0
        for step in range(60):
            action = rng.random()
            epoch = tree.clock.epoch_of(tree.current_time)
            if action < 0.6:
                ids = sorted(tree.poi_ids(), key=str)
                batch = {
                    poi_id: rng.randint(1, 9)
                    for poi_id in rng.sample(ids, min(8, len(ids)))
                }
                tree.digest_epoch(epoch + rng.randint(0, 2), batch)
            elif action < 0.8:
                poi = POI(
                    "new-%d-%d" % (seed, inserted),
                    rng.uniform(1.0, 99.0),
                    rng.uniform(1.0, 99.0),
                )
                tree.insert_poi(poi, {epoch: rng.randint(1, 20)})
                inserted += 1
            elif len(tree) > 10:
                tree.delete_poi(rng.choice(sorted(tree.poi_ids(), key=str)))
            registry.advance()
            for sub, spec in subs:
                assert_state_matches(tree, sub, spec)
        counters = registry.counters()
        assert counters["evals.fresh"] > 0
        assert counters["evals.errors"] == 0


@pytest.fixture
def transport():
    """In process under the original names;
    :class:`TestClusterEquivalenceOnWorkers` re-runs the digest stream
    over worker processes."""
    return "inproc"


@pytest.fixture
def cluster(small_dataset, transport, tmp_path):
    """The snapshot ``TestClusterEquivalence.build`` shards, served on
    ``transport``."""
    with open_on(
        transport, small_dataset.snapshot(0.7), tmp_path / "c",
        num_shards=3, resilience=NO_SLEEP, allow_degraded=True,
    ) as served:
        yield served


class TestClusterEquivalence:
    def build(self, small_dataset, injector=None, **kwargs):
        kwargs.setdefault("resilience", NO_SLEEP)
        kwargs.setdefault("allow_degraded", True)
        snapshot = small_dataset.snapshot(0.7)
        return ClusterTree.build(
            snapshot, num_shards=3, injector=injector, **kwargs
        )

    def test_digest_stream_matches_cluster_query(
        self, small_dataset, cluster
    ):
        registry = SubscriptionRegistry(cluster)
        subs = [
            (registry.subscribe(spec[0], spec[1], k=spec[2], alpha0=spec[3],
                                semantics=spec[4])[0], spec)
            for spec in SPECS
        ]
        # A worker cluster cannot list its POIs; the snapshot's effective
        # POIs are the ones every shard was built from.
        poi_ids = small_dataset.snapshot(0.7).effective_poi_ids()
        for epoch, counts in replay(cluster, small_dataset, limit=8,
                                    poi_ids=poi_ids):
            cluster.digest_epoch(epoch, counts)
            registry.advance()
            for sub, spec in subs:
                assert_state_matches(cluster, sub, spec, allow_degraded=True)
        assert registry.counters()["evals.errors"] == 0

    def test_shard_kill_degrades_explicitly_and_stays_equivalent(
        self, small_dataset
    ):
        injector = FaultInjector(seed=0)
        cluster = self.build(small_dataset, injector=injector)
        registry = SubscriptionRegistry(cluster)
        spec = SPECS[0]
        sub, initial = registry.subscribe(
            spec[0], spec[1], k=spec[2], alpha0=spec[3], semantics=spec[4]
        )
        assert initial.exact
        victim = cluster.plan.route(
            cluster.poi(initial.answer.rows[0].poi_id).point
        )
        pushed = []
        sub.sink = pushed.append
        kill_shard(injector, victim)
        stream = replay(cluster, small_dataset, limit=6)
        degraded_seen = 0
        for epoch, counts in stream:
            try:
                cluster.digest_epoch(epoch, counts)
            except Exception:
                pass  # the down shard's batch is lost; partial state stands
            registry.advance()
            assert_state_matches(cluster, sub, spec, allow_degraded=True)
            if not sub.last_exact:
                degraded_seen += 1
        assert degraded_seen > 0
        # The exactness flip itself was pushed as an update.
        assert any(update.degraded for update in pushed)
        assert registry.counters()["evals.errors"] == 0

    def test_online_recovery_restores_exact_subscriptions(
        self, small_dataset, tmp_path
    ):
        injector = FaultInjector(seed=0)
        built = self.build(small_dataset)
        save_cluster(built, str(tmp_path / "c"))
        built.close()
        cluster = open_cluster(
            str(tmp_path / "c"),
            injector=injector,
            allow_degraded=True,
            resilience=NO_SLEEP,
        )
        try:
            registry = SubscriptionRegistry(cluster)
            spec = SPECS[0]
            sub, initial = registry.subscribe(
                spec[0], spec[1], k=spec[2], alpha0=spec[3], semantics=spec[4]
            )
            victim = cluster.plan.route(
                cluster.poi(initial.answer.rows[0].poi_id).point
            )
            kill_shard(injector, victim)
            stream = list(replay(cluster, small_dataset, limit=6))
            degraded_seen = False
            for epoch, counts in stream[:3]:
                try:
                    cluster.digest_epoch(epoch, counts)
                except Exception:
                    pass
                registry.advance()
                assert_state_matches(cluster, sub, spec, allow_degraded=True)
                degraded_seen = degraded_seen or not sub.last_exact
            # The kill degraded the subscription (possibly transiently:
            # once the window slides past the victim's lost epochs the
            # bound certificate can certify the dead shard harmless and
            # the answer turns exact again — equivalence held throughout).
            assert degraded_seen
            revive_shard(injector, victim)
            cluster.recover_shard(victim)
            # recover_shard replaced the shard's tree object; the next
            # advance must query the replacement.
            for epoch, counts in stream[3:]:
                cluster.digest_epoch(epoch, counts)
                registry.advance()
                assert_state_matches(cluster, sub, spec, allow_degraded=True)
            assert sub.last_exact
            assert registry.counters()["evals.errors"] == 0
        finally:
            cluster.close()


class TestClusterEquivalenceOnWorkers:
    """The cluster digest stream over one worker process per shard."""

    @pytest.fixture
    def transport(self):
        return "workers"

    test_digest_stream_matches_cluster_query = (
        TestClusterEquivalence.test_digest_stream_matches_cluster_query
    )
