"""SubscriptionRegistry lifecycle: subscribe, pushes, counters, teardown."""

import pytest

from repro import KNNTAQuery, POI, SubscriptionRegistry
from repro.temporal.tia import IntervalSemantics

from tests.continuous.conftest import replay


def one_shot(tree, point, window, k=10, alpha0=0.3,
             semantics=IntervalSemantics.INTERSECTS):
    """The one-shot query a subscription's pushed state must equal."""
    from repro.continuous import window_state

    state = window_state(tree.clock, tree.current_time, window, semantics)
    return tree.query(
        KNNTAQuery(point, state.interval, k=k, alpha0=alpha0,
                   semantics=semantics)
    )


class TestSubscribe:
    def test_initial_update_is_the_one_shot_answer(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        sub, initial = registry.subscribe((40.0, 40.0), 3, k=5)
        assert initial.seq == 0
        assert list(initial.answer.rows) == list(
            one_shot(half_tree, (40.0, 40.0), 3, k=5)
        )
        assert all(d.kind.value == "enter" for d in initial.deltas)
        assert len(initial.deltas) == len(initial.answer.rows)

    def test_initial_update_is_returned_not_pushed(self, half_tree):
        pushed = []
        registry = SubscriptionRegistry(half_tree)
        registry.subscribe((40.0, 40.0), 3, sink=pushed.append)
        assert pushed == []

    def test_ids_are_unique_and_monotonic(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        first, _ = registry.subscribe((40.0, 40.0), 3)
        second, _ = registry.subscribe((10.0, 10.0), 2)
        assert second.id > first.id
        assert len(registry) == 2

    def test_subscribe_after_close_raises(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        registry.close()
        with pytest.raises(RuntimeError):
            registry.subscribe((40.0, 40.0), 3)


class TestAdvance:
    def test_no_mutation_no_push(self, half_tree):
        pushed = []
        registry = SubscriptionRegistry(half_tree)
        registry.subscribe((40.0, 40.0), 3, sink=pushed.append)
        assert registry.advance() == []
        assert pushed == []

    def test_digest_stream_pushes_in_seq_order(self, half_tree, small_dataset):
        pushed = []
        registry = SubscriptionRegistry(half_tree)
        registry.subscribe((40.0, 40.0), 3, k=5, sink=pushed.append)
        for epoch, counts in replay(half_tree, small_dataset, limit=8):
            half_tree.digest_epoch(epoch, counts)
            registry.advance()
        assert pushed
        assert [update.seq for update in pushed] == list(
            range(1, len(pushed) + 1)
        )

    def test_in_window_digest_pushes_without_a_window_move(self, half_tree):
        # Digest into a PAST in-window epoch: the window interval is
        # unchanged (current_time does not advance) but a score moved,
        # so an update must still go out.
        pushed = []
        registry = SubscriptionRegistry(half_tree)
        sub, initial = registry.subscribe((40.0, 40.0), 3, k=3)
        sub.sink = pushed.append
        top = initial.answer.rows[0].poi_id
        epoch = half_tree.clock.epoch_of(half_tree.current_time) - 1
        assert epoch in initial.window.epochs
        before = half_tree.current_time
        half_tree.digest_epoch(epoch, {top: 50})
        assert half_tree.current_time == before
        updates = registry.advance()
        assert len(updates) == 1
        assert pushed == updates
        assert updates[0].window == initial.window

    def test_pushed_rows_match_one_shot_query(self, half_tree, small_dataset):
        registry = SubscriptionRegistry(half_tree)
        sub, _ = registry.subscribe((40.0, 40.0), 3, k=5)
        for epoch, counts in replay(half_tree, small_dataset, limit=6):
            half_tree.digest_epoch(epoch, counts)
            registry.advance()
            assert list(sub.last_rows) == list(
                one_shot(half_tree, (40.0, 40.0), 3, k=5)
            )

    def test_unsubscribed_sink_receives_nothing(self, half_tree, small_dataset):
        pushed = []
        registry = SubscriptionRegistry(half_tree)
        sub, _ = registry.subscribe((40.0, 40.0), 3, sink=pushed.append)
        assert registry.unsubscribe(sub) is True
        assert registry.unsubscribe(sub.id) is False
        for epoch, counts in replay(half_tree, small_dataset, limit=3):
            half_tree.digest_epoch(epoch, counts)
            registry.advance()
        assert pushed == []

    def test_raising_sink_is_counted_not_fatal(self, half_tree, small_dataset):
        registry = SubscriptionRegistry(half_tree)

        def explode(update):
            raise RuntimeError("subscriber bug")

        sub, _ = registry.subscribe((40.0, 40.0), 3, sink=explode)
        for epoch, counts in replay(half_tree, small_dataset, limit=4):
            half_tree.digest_epoch(epoch, counts)
            updates = registry.advance()
            assert updates  # delivery failure does not suppress the update
        counters = registry.counters()
        assert counters["deliveries.failed"] > 0
        assert sub.seq > 1

    def test_delete_of_a_ranked_poi_is_reflected(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        sub, initial = registry.subscribe((40.0, 40.0), 6, k=3)
        victim = initial.answer.rows[0].poi_id
        half_tree.delete_poi(victim)
        updates = registry.advance()
        assert len(updates) == 1
        assert victim not in {row.poi_id for row in sub.last_rows}
        assert list(sub.last_rows) == list(one_shot(half_tree, (40.0, 40.0), 6, k=3))

    def test_insert_that_cracks_the_frontier_is_reflected(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        sub, _ = registry.subscribe((40.0, 40.0), 6, k=3)
        epoch = half_tree.clock.epoch_of(half_tree.current_time)
        half_tree.insert_poi(POI("crasher", 40.0, 40.0), {epoch: 10**6})
        registry.advance()
        assert sub.last_rows[0].poi_id == "crasher"
        assert list(sub.last_rows) == list(one_shot(half_tree, (40.0, 40.0), 6, k=3))

    def test_dirty_set_survives_a_subscriberless_gap(self, half_tree):
        # Mutations between "last unsubscribe" and "next subscribe" must
        # show in the next subscriber's pushes.
        registry = SubscriptionRegistry(half_tree)
        sub, _ = registry.subscribe((40.0, 40.0), 3)
        registry.unsubscribe(sub)
        poi_id = sorted(half_tree.poi_ids())[0]
        epoch = half_tree.clock.epoch_of(half_tree.current_time) + 2
        half_tree.digest_epoch(epoch, {poi_id: 7})
        assert registry.advance() == []  # no subscribers: nothing evaluated
        sub2, _ = registry.subscribe((40.0, 40.0), 3)
        registry.advance()
        assert list(sub2.last_rows) == list(one_shot(half_tree, (40.0, 40.0), 3))


class TestCounters:
    def test_counters_shape_and_monotonicity(self, half_tree, small_dataset):
        registry = SubscriptionRegistry(half_tree)
        assert registry.counters() == {
            "subscriptions.active": 0,
            "subscriptions.total": 0,
            "updates.delivered": 0,
            "evals.fresh": 0,
            "evals.errors": 0,
            "deliveries.failed": 0,
        }
        sub, _ = registry.subscribe((40.0, 40.0), 3)
        for epoch, counts in replay(half_tree, small_dataset, limit=4):
            half_tree.digest_epoch(epoch, counts)
            registry.advance()
        counters = registry.counters()
        assert counters["subscriptions.active"] == 1
        assert counters["subscriptions.total"] == 1
        assert counters["updates.delivered"] > 0
        assert counters["evals.fresh"] >= counters["updates.delivered"]
        registry.unsubscribe(sub)
        after = registry.counters()
        assert after["subscriptions.active"] == 0
        assert after["subscriptions.total"] == 1


class TestClose:
    def test_close_detaches_observers_and_drops_subscriptions(self, half_tree):
        # Subscribing attaches no mutation observer, so close() has
        # nothing to detach; it drops every subscription.
        observers = list(half_tree._mutation_observers)
        registry = SubscriptionRegistry(half_tree)
        registry.subscribe((40.0, 40.0), 3)
        registry.subscribe((10.0, 10.0), 2)
        assert half_tree._mutation_observers == observers
        registry.close()
        assert len(registry) == 0

    def test_close_is_idempotent_and_advance_is_inert(self, half_tree):
        registry = SubscriptionRegistry(half_tree)
        registry.subscribe((40.0, 40.0), 3)
        registry.close()
        registry.close()
        assert registry.advance() == []
