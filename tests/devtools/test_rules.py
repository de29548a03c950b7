"""Per-rule fixtures: each rule fires, stays silent, and suppresses."""

from tests.devtools.conftest import rule_ids_of


class TestLockDiscipline:
    def test_unlocked_mutator_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def apply(tree, poi):
                tree.insert_poi(poi)
            """,
        )
        assert rule_ids_of(findings) == ["RT001", "RT002"]

    def test_mutator_under_write_lock_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def apply(self, poi):
                with self.lock.write_locked():
                    if self.ingest is None:
                        self.tree.insert_poi(poi)
            """,
        )
        assert findings == []

    def test_mutator_under_read_lock_still_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def repair(self, entry, expected):
                with self.lock.read_locked():
                    entry.tia.replace_all(expected)
            """,
        )
        assert rule_ids_of(findings) == ["RT001"]

    def test_unlocked_read_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            from repro.core.knnta import knnta_search

            def run(self, query):
                return knnta_search(self.tree, query)
            """,
        )
        assert rule_ids_of(findings) == ["RT001"]

    def test_read_under_read_lock_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            from repro.core.knnta import knnta_search

            def run(self, query):
                with self.lock.read_locked():
                    return knnta_search(self.tree, query)
            """,
        )
        assert findings == []

    def test_collective_run_requires_the_read_lock(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            from repro.core.collective import CollectiveProcessor

            def run(self, queries):
                return CollectiveProcessor(self.tree).run(queries)
            """,
        )
        assert rule_ids_of(findings) == ["RT001"]

    def test_unlocked_tree_query_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def run(self, query):
                return self.tree.query(query)
            """,
        )
        assert rule_ids_of(findings) == ["RT001"]

    def test_unlocked_shard_tree_batch_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def batch(shard, queries):
                return shard.tree.query_batch(queries)
            """,
        )
        assert rule_ids_of(findings) == ["RT001", "RT007"]

    def test_tree_queries_under_read_lock_are_clean(self, lint_source):
        service = lint_source(
            "repro/service/mod.py",
            """
            def run(self, query):
                with self.lock.read_locked():
                    return self.tree.query(query)
            """,
        )
        cluster = lint_source(
            "repro/cluster/mod.py",
            """
            def route(self, shard, guard, queries):
                def batch(token):
                    with shard.lock.read_locked():
                        return shard.tree.query_batch(queries)

                return guard.call("query", batch)
            """,
        )
        assert service == cluster == []

    def test_query_on_a_local_tree_name_is_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            def evaluate(self, query):
                tree = self.tree
                return tree.query(query)
            """,
        )
        assert findings == []

    def test_helper_dominated_at_every_call_site_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            class Scrub:
                def _repair(self, entry, expected):
                    entry.tia.replace_all(expected)

                def tick(self, entry, expected):
                    with self.lock.write_locked():
                        self._repair(entry, expected)
            """,
        )
        assert findings == []

    def test_helper_with_an_unlocked_call_site_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            class Scrub:
                def _repair(self, entry, expected):
                    entry.tia.replace_all(expected)

                def tick(self, entry, expected):
                    with self.lock.write_locked():
                        self._repair(entry, expected)

                def emergency(self, entry, expected):
                    self._repair(entry, expected)
            """,
        )
        assert rule_ids_of(findings) == ["RT001"]

    def test_outside_the_service_package_is_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/reliability/mod.py",
            """
            def apply(tree, poi):
                tree.insert_poi(poi)
            """,
        )
        assert findings == []

    def test_cluster_package_is_in_scope(self, lint_source):
        # The coordinator holds one lock per shard; its mutators owe the
        # shard tree the same write-lock protocol the service owes its
        # tree.
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def apply(shard, poi):
                shard.tree.insert_poi(poi)
            """,
        )
        assert rule_ids_of(findings) == ["RT001", "RT002", "RT007"]

    def test_cluster_locked_routed_mutation_is_clean(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def route(self, shard, guard, poi):
                def apply(token):
                    with shard.lock.write_locked():
                        if shard.ingest is None:
                            shard.tree.insert_poi(poi)

                guard.call("mutate", apply)
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def repair(self, entry, expected):
                entry.tia.replace_all(expected)  # repro: allow[RT001]
            """,
        )
        assert findings == []


class TestWalBeforeApply:
    def test_unguarded_tree_mutation_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def digest(self, epoch, counts):
                with self.lock.write_locked():
                    self.tree.digest_epoch(epoch, counts)
            """,
        )
        assert "RT002" in rule_ids_of(findings)

    def test_standalone_guard_branch_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def digest(self, epoch, counts):
                with self.lock.write_locked():
                    if self.ingest is None:
                        self.tree.digest_epoch(epoch, counts)
                        return None
                    return self.ingest.digest(epoch, counts)
            """,
        )
        assert findings == []

    def test_the_else_branch_is_not_the_guard(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def digest(self, epoch, counts):
                with self.lock.write_locked():
                    if self.ingest is None:
                        return None
                    else:
                        self.tree.digest_epoch(epoch, counts)
            """,
        )
        assert "RT002" in rule_ids_of(findings)

    def test_cluster_unguarded_mutation_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def digest(self, shard, epoch, counts):
                with shard.lock.write_locked():
                    shard.tree.digest_epoch(epoch, counts)
            """,
        )
        assert rule_ids_of(findings) == ["RT002", "RT007"]

    def test_routing_through_the_ingest_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def digest(self, epoch, counts):
                with self.lock.write_locked():
                    return self.ingest.digest(epoch, counts)
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def rebuild(self, epoch, counts):
                with self.lock.write_locked():
                    self.tree.digest_epoch(epoch, counts)  # repro: allow[RT002]
            """,
        )
        assert findings == []


class TestNoBareAssert:
    def test_assert_fires_anywhere_in_src(self, lint_source):
        findings = lint_source(
            "repro/spatial/mod.py",
            """
            def check(count, size):
                assert count == size, "size mismatch"
            """,
        )
        assert rule_ids_of(findings) == ["RT003"]

    def test_explicit_raise_is_clean(self, lint_source):
        findings = lint_source(
            "repro/spatial/mod.py",
            """
            def check(count, size):
                if count != size:
                    raise AssertionError("size mismatch")
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/spatial/mod.py",
            """
            def check(count, size):
                assert count == size  # repro: allow[RT003]
            """,
        )
        assert findings == []


class TestFloatEquality:
    def test_float_literal_comparison_fires(self, lint_source):
        findings = lint_source(
            "repro/spatial/geometry.py",
            """
            def degenerate(extent):
                return extent == 0.0
            """,
        )
        assert rule_ids_of(findings) == ["RT004"]

    def test_division_comparison_fires_in_costmodel(self, lint_source):
        findings = lint_source(
            "repro/core/costmodel.py",
            """
            def ratio_is_half(a, b):
                return a / b != 0.5
            """,
        )
        assert rule_ids_of(findings) == ["RT004"]

    def test_isclose_is_clean(self, lint_source):
        findings = lint_source(
            "repro/spatial/geometry.py",
            """
            import math

            def degenerate(extent):
                return math.isclose(extent, 0.0, abs_tol=1e-12)
            """,
        )
        assert findings == []

    def test_integer_comparison_is_clean(self, lint_source):
        findings = lint_source(
            "repro/core/costmodel.py",
            """
            def last(end, total):
                return end == total - 1
            """,
        )
        assert findings == []

    def test_eq_dunder_is_exempt(self, lint_source):
        findings = lint_source(
            "repro/spatial/geometry.py",
            """
            class Rect:
                def __eq__(self, other):
                    return self.lows == other.lows and 0.0 == other.pad
            """,
        )
        assert findings == []

    def test_other_modules_are_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/core/mwa.py",
            """
            def boundary(gamma):
                return gamma == 0.0
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/spatial/geometry.py",
            """
            def degenerate(extent):
                return extent == 0.0  # repro: allow[RT004]
            """,
        )
        assert findings == []


class TestExceptionHygiene:
    def test_swallowing_broad_except_fires(self, lint_source):
        findings = lint_source(
            "repro/reliability/mod.py",
            """
            def load(path):
                try:
                    return open(path)
                except Exception:
                    return None
            """,
        )
        assert rule_ids_of(findings) == ["RT005"]

    def test_bare_except_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except:
                    pass
            """,
        )
        assert rule_ids_of(findings) == ["RT005"]

    def test_reraise_is_clean(self, lint_source):
        findings = lint_source(
            "repro/reliability/mod.py",
            """
            def load(self, path):
                try:
                    return open(path)
                except Exception:
                    self.log.close()
                    raise
            """,
        )
        assert findings == []

    def test_using_the_exception_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def handle(self, batch):
                try:
                    self.run(batch)
                except Exception as exc:
                    for request in batch:
                        request.fail(exc)
            """,
        )
        assert findings == []

    def test_logging_is_clean(self, lint_source):
        findings = lint_source(
            "repro/reliability/mod.py",
            """
            import logging

            def tick(self):
                try:
                    self.step()
                except Exception:
                    logging.exception("tick failed")
            """,
        )
        assert findings == []

    def test_narrow_except_is_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/reliability/mod.py",
            """
            def load(path):
                try:
                    return open(path)
                except OSError:
                    return None
            """,
        )
        assert findings == []

    def test_other_packages_are_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/analysis/mod.py",
            """
            def fit(xs):
                try:
                    return sum(xs)
                except Exception:
                    return None
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            def tick(self):
                try:
                    self.step()
                except Exception:  # repro: allow[RT005]
                    pass
            """,
        )
        assert findings == []


class TestGuardedShardDispatch:
    def test_naked_query_dispatch_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            def query_shard(self, shard, query):
                with shard.lock.read_locked():
                    return knnta_search(shard.tree, query)
            """,
        )
        assert rule_ids_of(findings) == ["RT007"]

    def test_dispatch_inside_a_guard_thunk_is_clean(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            def query_shard(self, shard, guard, query):
                def dispatch(token):
                    with shard.lock.read_locked():
                        return knnta_search(shard.tree, query)

                return guard.call("query", dispatch)
            """,
        )
        assert findings == []

    def test_dispatch_inside_a_guard_lambda_is_clean(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def refresh(self, shard, guard):
                return guard.call(
                    "query", lambda token: shard.tree.global_epoch_max()
                )
            """,
        )
        assert findings == []

    def test_collective_run_outside_a_guard_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.collective import CollectiveProcessor

            def batch(self, shard, queries):
                with shard.lock.read_locked():
                    return CollectiveProcessor(shard.tree).run(queries)
            """,
        )
        assert rule_ids_of(findings) == ["RT007"]

    def test_helper_dominated_by_guard_thunks_is_clean(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            class Coordinator:
                def _search(self, shard, query):
                    with shard.lock.read_locked():
                        return knnta_search(shard.tree, query)

                def query_shard(self, shard, guard, query):
                    def dispatch(token):
                        return self._search(shard, query)

                    return guard.call("query", dispatch)
            """,
        )
        assert findings == []

    def test_helper_with_an_unguarded_call_site_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            class Coordinator:
                def _search(self, shard, query):
                    with shard.lock.read_locked():
                        return knnta_search(shard.tree, query)

                def query_shard(self, shard, guard, query):
                    def dispatch(token):
                        return self._search(shard, query)

                    return guard.call("query", dispatch)

                def debug_query(self, shard, query):
                    return self._search(shard, query)
            """,
        )
        assert rule_ids_of(findings) == ["RT007"]

    def test_coordinator_own_wrappers_are_not_dispatch(self, lint_source):
        # ``self.global_epoch_max()`` is the coordinator's public API, not
        # a shard-tree call; only ``<obj>.tree.<m>(...)`` crosses the
        # fault-domain boundary.
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def clock(self):
                return self.global_epoch_max()
            """,
        )
        assert findings == []

    def test_unguarded_endpoint_call_fires(self, lint_source):
        # The coordinator reaches a shard — in process or in a worker —
        # only through its endpoint; an endpoint call outside a guard
        # thunk skips the deadline and the breaker on either transport.
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            class Coordinator:
                def owns(self, shard, poi_id):
                    return shard.contains(poi_id)
            """,
        )
        assert rule_ids_of(findings) == ["RT007"]

    def test_endpoint_call_inside_a_guard_lambda_is_clean(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            class Coordinator:
                def owns(self, shard, poi_id):
                    return self._guards[shard.index].call(
                        "query", lambda token: shard.contains(poi_id)
                    )

                def query(self, query):
                    return self.query(query)
            """,
        )
        assert findings == []

    def test_endpoint_lifecycle_calls_are_not_dispatch(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            def checkpoint(self, shards):
                return [shard.checkpoint() for shard in shards]

            def close(self, shards):
                for shard in shards:
                    shard.close()
            """,
        )
        assert findings == []

    def test_endpoint_implementations_are_the_far_side(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            class Endpoint:
                def query(self, token, query, normalizer):
                    with self.lock.read_locked():
                        return knnta_search(self.tree, query), None

                def batch(self, token, queries, normalizers):
                    return self.remote.batch(queries)

                def insert(self, token, poi, aggregates):
                    return self.remote.insert(poi)

                def delete(self, token, poi_id):
                    return self.remote.delete(poi_id)

                def digest(self, token, epoch, counts):
                    return self.remote.digest(epoch, counts)

                def contains(self, poi_id):
                    return self.remote.contains(poi_id)

                def describe(self):
                    return self.remote.describe()

                def scrub(self, budget):
                    return self.remote.scrub(budget)

                def reopen(self, directory):
                    return self.remote.reopen(directory)
            """,
        )
        assert findings == []

    def test_resilience_module_is_exempt(self, lint_source):
        findings = lint_source(
            "repro/cluster/resilience.py",
            """
            def bound_probe(self, shard, interval, semantics):
                with shard.lock.read_locked():
                    return shard.tree.max_aggregate_bound(interval, semantics)
            """,
        )
        assert findings == []

    def test_outside_the_cluster_package_is_out_of_scope(self, lint_source):
        findings = lint_source(
            "repro/analysis/mod.py",
            """
            from repro.core.knnta import knnta_search

            def probe(tree, query):
                return knnta_search(tree, query)
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            from repro.core.knnta import knnta_search

            def query_shard(self, shard, query):
                with shard.lock.read_locked():
                    return knnta_search(shard.tree, query)  # repro: allow[RT007]
            """,
        )
        assert findings == []


class TestLockOrder:
    def test_rank_ascent_fires(self, lint_source):
        # The registry mutex (rank 50) held while taking the advance gate
        # (rank 0).
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._mutex:
                        with self._advance_gate:
                            pass
            """,
        )
        assert rule_ids_of(findings) == ["RT008"]
        assert "lock-order violation" in findings[0].message

    def test_descending_ranks_are_clean(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def good(self):
                    with self._advance_gate:
                        with self._mutex:
                            pass
            """,
        )
        assert findings == []

    def test_non_reentrant_self_nesting_fires(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._advance_gate:
                        with self._advance_gate:
                            pass
            """,
        )
        assert rule_ids_of(findings) == ["RT008"]
        assert "re-acquisition" in findings[0].message

    def test_reentrant_self_nesting_is_clean(self, lint_source):
        # The registry mutex is a declared-reentrant RLock.
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def reenter(self):
                    with self._mutex:
                        with self._mutex:
                            pass
            """,
        )
        assert findings == []

    def test_undeclared_lockish_site_fires(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._spare_lock:
                        pass
            """,
        )
        assert rule_ids_of(findings) == ["RT008"]
        assert "not declared in the lock model" in findings[0].message

    def test_cross_module_call_edge_fires(self, lint_tree):
        # The ascent only exists interprocedurally: b holds the registry
        # mutex and calls a.helper(), which takes the advance gate.
        findings = lint_tree(
            {
                "repro/continuous/a.py": """
                    import threading

                    _advance_gate = threading.Lock()

                    def helper():
                        with _advance_gate:
                            return 1
                    """,
                "repro/continuous/b.py": """
                    import threading

                    from repro.continuous.a import helper

                    _mutex = threading.RLock()

                    def outer():
                        with _mutex:
                            return helper()
                    """,
            },
            select=["RT008"],
        )
        assert rule_ids_of(findings) == ["RT008"]
        assert "via helper()" in findings[0].message
        assert findings[0].path.endswith("b.py")

    def test_unresolvable_callee_contributes_no_edge(self, lint_tree):
        # Same shape, but the call goes through a dynamic attribute the
        # graph cannot resolve: coverage degrades, no false RT008.
        findings = lint_tree(
            {
                "repro/continuous/a.py": """
                    import threading

                    _advance_gate = threading.Lock()

                    def helper():
                        with _advance_gate:
                            return 1
                    """,
                "repro/continuous/b.py": """
                    import threading

                    _mutex = threading.RLock()

                    def outer(handler):
                        with _mutex:
                            return handler.helper()
                    """,
            },
            select=["RT008"],
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._mutex:
                        with self._advance_gate:  # repro: allow[RT008]
                            pass
            """,
        )
        assert findings == []


class TestNoBlockingUnderLock:
    def test_sleep_under_write_lock_fires(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            import time

            class Service:
                def bad(self):
                    with self.lock.write_locked():
                        time.sleep(0.1)
            """,
        )
        assert rule_ids_of(findings) == ["RT009"]
        assert "blocking operation (sleep)" in findings[0].message

    def test_sleep_under_read_lock_is_clean(self, lint_source):
        # The shared side is exempt by design: queries block under it.
        findings = lint_source(
            "repro/service/mod.py",
            """
            import time

            class Service:
                def throttle(self):
                    with self.lock.read_locked():
                        time.sleep(0.1)
            """,
        )
        assert findings == []

    def test_transitive_blocking_fires_at_the_locked_call(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            import time

            class Service:
                def _pause(self):
                    time.sleep(0.1)

                def bad(self):
                    with self.lock.write_locked():
                        self._pause()
            """,
        )
        assert sorted(set(rule_ids_of(findings))) == ["RT009"]
        locked = [f for f in findings if "via" in f.message]
        assert locked and "via Service._pause()" in locked[0].message

    def test_thread_join_under_exclusive_lock_fires(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def bad(self):
                    with self._mutex:
                        self._worker.join()
            """,
        )
        assert rule_ids_of(findings) == ["RT009"]
        assert "(join)" in findings[0].message

    def test_string_join_is_not_blocking(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def label(self):
                    with self._mutex:
                        return ", ".join(self._names)
            """,
        )
        assert findings == []

    def test_socket_write_under_push_lock_is_allowed(self, lint_source):
        # The push lock's licence: it exists to frame one message onto
        # the wire.
        findings = lint_source(
            "repro/service/server.py",
            """
            class Channel:
                def push(self, payload):
                    with self._lock:
                        self.wfile.write(payload)
            """,
        )
        assert findings == []

    def test_condition_wait_on_held_condition_is_clean(self, lint_source):
        findings = lint_source(
            "repro/service/locks.py",
            """
            class ReadWriteLock:
                def acquire(self):
                    with self._cond:
                        self._cond.wait_for(lambda: not self._writer)
            """,
        )
        assert findings == []

    def test_wal_module_callee_is_allowlisted(self, lint_tree):
        # The documented WAL-before-apply path: fsync under the
        # exclusive lock is the point, so repro.reliability is exempt.
        findings = lint_tree(
            {
                "repro/reliability/mywal.py": """
                    import os

                    def append(fd, record):
                        os.fsync(fd)
                    """,
                "repro/service/mod.py": """
                    from repro.reliability.mywal import append

                    class Service:
                        def digest(self, record):
                            with self.lock.write_locked():
                                append(self._fd, record)
                    """,
            },
            select=["RT009"],
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/service/mod.py",
            """
            import time

            class Service:
                def bad(self):
                    with self.lock.write_locked():
                        time.sleep(0.1)  # repro: allow[RT009]
            """,
        )
        assert findings == []


class TestNoForeignCallback:
    def test_sink_under_registry_mutex_fires(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def deliver(self, update):
                    with self._mutex:
                        for subscription in self._subscriptions:
                            subscription.sink(update)
            """,
        )
        assert rule_ids_of(findings) == ["RT010"]
        assert "foreign callback" in findings[0].message

    def test_snapshot_then_fire_is_clean(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def deliver(self, update):
                    with self._mutex:
                        sinks = [s.sink for s in self._subscriptions]
                    for sink in sinks:
                        sink(update)
            """,
        )
        assert findings == []

    def test_callbacks_under_the_advance_gate_are_licensed(self, lint_source):
        # The gate protects no engine state; it is the one lock with the
        # foreign-callbacks licence.
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def deliver(self, update):
                    with self._advance_gate:
                        for subscription in self._subscriptions:
                            subscription.sink(update)
            """,
        )
        assert findings == []

    def test_inherited_lock_context_fires(self, lint_source):
        # The callback site holds nothing lexically; the restriction
        # arrives through the caller's mutex (the call-graph context).
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def notify(self):
                    with self._mutex:
                        self._fire()

                def _fire(self):
                    self._on_event()
            """,
        )
        assert rule_ids_of(findings) == ["RT010"]
        assert "registry" in findings[0].message

    def test_out_of_scope_module_is_clean(self, lint_source):
        findings = lint_source(
            "repro/analysis/mod.py",
            """
            class Report:
                def render(self):
                    with self._plot_lock:  # repro: allow[RT008]
                        self.callback()
            """,
        )
        assert findings == []

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/continuous/mod.py",
            """
            class Registry:
                def deliver(self, update):
                    with self._mutex:
                        for subscription in self._subscriptions:
                            subscription.sink(update)  # repro: allow[RT010]
            """,
        )
        assert findings == []


class TestDurableWriteOnly:
    def test_rename_outside_the_helper_fires(self, lint_source):
        findings = lint_source(
            "repro/cluster/mod.py",
            """
            import os
            from os import replace

            def save(temp_path, path):
                os.replace(temp_path, path)
                os.rename(temp_path, path)
            """,
        )
        assert rule_ids_of(findings) == ["RT011", "RT011", "RT011"]

    def test_only_the_helper_itself_is_clean(self, lint_source):
        findings = lint_source(
            "repro/reliability/wal.py",
            """
            import os

            def durable_write(path):
                temp_path = path + ".tmp"
                os.replace(temp_path, path)

            def reset(path):
                os.replace(path + ".new", path)
            """,
        )
        assert [finding.line for finding in findings] == [9]
        assert rule_ids_of(findings) == ["RT011"]

    def test_suppression(self, lint_source):
        findings = lint_source(
            "repro/storage/mod.py",
            """
            import os

            def swap(temp_path, path):
                os.replace(temp_path, path)  # repro: allow[RT011]
            """,
        )
        assert findings == []
