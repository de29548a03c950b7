"""Graceful degradation (robust_knnta) and crash recovery (WAL + replay)."""

import random

import pytest

from repro import POI, TARTree
from repro.core.knnta import knnta_search
from repro.core.query import KNNTAQuery
from repro.core.scan import sequential_scan
from repro.datasets.streaming import pending_counts
from repro.reliability.faults import (
    FaultInjector,
    TransientIOError,
    constant,
    first_n,
    inject_tree_faults,
)
from repro.reliability.recovery import (
    CheckpointedIngest,
    DigestLog,
    RetryPolicy,
    read_digest_log,
    recover,
    robust_knnta,
)
from repro.reliability.wal import (
    RECORD_CHECKPOINT,
    RECORD_DIGEST,
    MutationWAL,
    WalRecord,
    read_wal,
)
from repro.spatial.geometry import Rect
from repro.storage.serialize import CorruptSnapshotError, load_tree, save_tree
from repro.temporal.epochs import EpochClock, TimeInterval


def build_tree(pois=70, seed=5):
    rng = random.Random(seed)
    tree = TARTree(
        world=Rect((0.0, 0.0), (20.0, 20.0)),
        clock=EpochClock(0.0, 1.0),
        current_time=10.0,
        tia_backend="memory",
    )
    for i in range(pois):
        history = {e: rng.randrange(1, 8) for e in range(10) if rng.random() < 0.6}
        tree.insert_poi(POI(i, rng.random() * 20, rng.random() * 20), history)
    return tree


def seeded_workload(tree, n=8, seed=11):
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        start = rng.uniform(0.0, 5.0)
        queries.append(
            KNNTAQuery(
                (rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)),
                TimeInterval(start, start + rng.uniform(2.0, 5.0)),
                k=rng.randrange(3, 9),
                alpha0=rng.choice([0.2, 0.3, 0.5]),
            )
        )
    return queries


def ranking(results):
    return [(r.poi_id, round(r.score, 12)) for r in results]


class TestRetryPolicy:
    def make_flaky(self, failures):
        calls = {"n": 0}

        def operation():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientIOError("flaky")
            return "ok"

        return operation, calls

    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_retries=5, sleep=None)
        operation, calls = self.make_flaky(3)
        assert policy.run(operation) == "ok"
        assert calls["n"] == 4
        assert policy.retries_used == 3

    def test_budget_exhaustion_reraises(self):
        policy = RetryPolicy(max_retries=2, sleep=None)
        operation, calls = self.make_flaky(10)
        with pytest.raises(TransientIOError):
            policy.run(operation)
        assert calls["n"] == 3

    def test_zero_retries_raises_immediately(self):
        policy = RetryPolicy(max_retries=0, sleep=None)
        operation, calls = self.make_flaky(1)
        with pytest.raises(TransientIOError):
            policy.run(operation)
        assert calls["n"] == 1

    def test_backoff_is_exponential_and_capped(self):
        delays = []
        policy = RetryPolicy(
            max_retries=5,
            backoff=0.01,
            factor=2.0,
            max_backoff=0.03,
            sleep=delays.append,
        )
        operation, _ = self.make_flaky(4)
        policy.run(operation)
        assert delays == [0.01, 0.02, 0.03, 0.03]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_retries_used_accumulates_across_calls(self):
        policy = RetryPolicy(max_retries=5, sleep=None)
        for _ in range(2):
            operation, _ = self.make_flaky(2)
            policy.run(operation)
        assert policy.retries_used == 4


class TestRobustKnnta:
    def test_acceptance_identical_under_ten_percent_faults(self):
        # The ISSUE's acceptance bar: at a 10% transient-failure rate the
        # robust query must return exactly the fault-free answers.
        tree = build_tree()
        workload = seeded_workload(tree)
        baseline = [ranking(knnta_search(tree, q)) for q in workload]

        injector = FaultInjector(seed=99)
        injector.configure("tia", schedule=constant(0.1))
        inject_tree_faults(tree, injector)
        for query, expected in zip(workload, baseline):
            answer = robust_knnta(
                tree, query, retry=RetryPolicy(sleep=None)
            )
            assert not answer.used_fallback
            assert ranking(answer) == expected
        assert injector.injected("tia") > 0

    def test_exhausted_retries_fall_back_to_scan(self):
        tree = build_tree()
        query = seeded_workload(tree, n=1)[0]
        expected = ranking(knnta_search(tree, query))

        injector = FaultInjector(seed=0)
        injector.configure("tia", schedule=first_n(3))
        inject_tree_faults(tree, injector)
        answer = robust_knnta(
            tree, query, retry=RetryPolicy(max_retries=2, sleep=None)
        )
        assert answer.used_fallback
        assert answer.reason == "transient-faults"
        assert answer.retries == 2
        assert ranking(answer) == expected

    def test_fallback_false_propagates(self):
        tree = build_tree()
        query = seeded_workload(tree, n=1)[0]
        injector = FaultInjector(seed=0)
        injector.configure("tia", schedule=first_n(50))
        inject_tree_faults(tree, injector)
        with pytest.raises(TransientIOError):
            robust_knnta(
                tree,
                query,
                retry=RetryPolicy(max_retries=1, sleep=None),
                fallback=False,
            )

    def test_corrupt_internal_tias_answered_by_scan(self):
        # Damage every internal TIA: the BFS bound is now a lie, but the
        # scan baseline reads only leaf TIAs and stays exact.
        clean = build_tree()
        query = seeded_workload(clean, n=1)[0]
        expected = ranking(
            sequential_scan(
                clean,
                query,
                normalizer=clean.normalizer(
                    query.interval, query.semantics, exact=True
                ),
            )
        )

        damaged = build_tree()
        for entry in damaged.root.entries:
            entry.tia.replace_all({0: 1})
        answer = robust_knnta(damaged, query, validate=True)
        assert answer.used_fallback
        assert answer.reason == "corruption"
        assert not answer.validation.ok
        assert ranking(answer) == expected

    def test_clean_tree_with_validate_uses_bfs(self):
        tree = build_tree()
        query = seeded_workload(tree, n=1)[0]
        answer = robust_knnta(tree, query, validate=True)
        assert not answer.used_fallback
        assert answer.validation.ok
        assert ranking(answer) == ranking(knnta_search(tree, query))

    def test_tree_method_wrapper(self):
        tree = build_tree()
        query = KNNTAQuery((5.0, 5.0), TimeInterval(0.0, 6.0), k=4)
        direct = tree.query(query)
        robust = tree.robust_query(query)
        assert ranking(robust) == ranking(direct)
        assert len(robust) == 4
        # RobustAnswer rows destructure like the plain QueryResult list.
        assert robust[0] == direct[0]
        assert ranking(robust[1:]) == ranking(direct[1:])


class TestMutationWAL:
    def test_typed_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            assert log.log_insert("a", 1.0, 2.0, {3: 4}) == 0
            assert log.log_digest(3, [["a", 2, 6]]) == 1
            assert log.log_delete("a") == 2
        records, dropped = read_wal(path)
        assert dropped == 0
        assert records == [
            WalRecord(0, "insert", ["a", 1.0, 2.0, [[3, 4]]]),
            WalRecord(1, "digest", [3, [["a", 2, 6]]]),
            WalRecord(2, "delete", ["a"]),
        ]

    def test_reopen_continues_lsns(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            log.log_digest(0, [["a", 1, 1]])
        with MutationWAL(path) as log:
            assert log.next_lsn == 1
            assert log.log_delete("a") == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_wal(str(tmp_path / "nope.wal")) == ([], 0)

    def write_one_of_each(self, path):
        with MutationWAL(path) as log:
            log.log_digest(0, [["a", 1, 1]])
            log.log_insert("b", 1.0, 2.0)
            log.log_delete("a")
            log.log_digest(1, [["b", 2, 2]])

    @pytest.mark.parametrize("cut", [1, 4, 9])
    def test_torn_tail_is_dropped_for_every_record_type(self, tmp_path, cut):
        # Tear each of the trailing records mid-line (digest, delete and
        # insert tails in turn): only the torn suffix may be lost.
        path = str(tmp_path / "x.wal")
        self.write_one_of_each(path)
        with open(path) as handle:
            lines = handle.readlines()
        for torn in range(1, len(lines) + 1):
            torn_path = str(tmp_path / ("torn-%d-%d.wal" % (cut, torn)))
            with open(torn_path, "w") as handle:
                handle.writelines(lines[:-torn])
                handle.write(lines[-torn][:-cut])
            records, dropped = read_wal(torn_path)
            assert dropped == 1
            assert [r.lsn for r in records] == list(range(len(lines) - torn))

    def test_reopen_after_torn_tail_repairs_log(self, tmp_path):
        # The crash signature: file ends mid-record without a newline.
        # Reopening must truncate the torn fragment so the next append
        # starts on a fresh line — otherwise the new (acked, fsync'd)
        # record is glued onto the fragment and lost, and every later
        # read raises for mid-log corruption.
        path = str(tmp_path / "x.wal")
        self.write_one_of_each(path)
        with open(path, "rb+") as handle:
            handle.seek(-5, 2)
            handle.truncate()  # tear the final record mid-line
        with MutationWAL(path) as log:
            assert log.next_lsn == 3  # LSN resumes after the intact prefix
            assert log.log_digest(1, [["b", 2, 2]]) == 3
        records, dropped = read_wal(path)
        assert dropped == 0
        assert [r.lsn for r in records] == [0, 1, 2, 3]

    def test_intact_final_line_without_newline_is_torn(self, tmp_path):
        # An acked record always ends in a newline (append writes the
        # full frame before fsync), so a newline-less final line is a
        # torn write even when its CRC happens to verify.
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            log.log_digest(0, [["a", 1, 1]])
            log.log_digest(1, [["b", 2, 2]])
        with open(path, "rb+") as handle:
            handle.seek(-1, 2)
            handle.truncate()  # strip only the trailing newline
        records, dropped = read_wal(path)
        assert [r.lsn for r in records] == [0]
        assert dropped == 1
        with MutationWAL(path) as log:
            assert log.log_digest(1, [["b", 2, 2]]) == 1
        records, dropped = read_wal(path)
        assert dropped == 0
        assert [r.lsn for r in records] == [0, 1]

    def test_corruption_before_intact_records_raises(self, tmp_path):
        path = str(tmp_path / "x.wal")
        self.write_one_of_each(path)
        with open(path) as handle:
            lines = handle.readlines()
        lines[0] = "deadbeef" + lines[0][8:]  # break the first CRC
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(CorruptSnapshotError) as excinfo:
            read_wal(path)
        assert excinfo.value.section == "wal"
        with pytest.raises(CorruptSnapshotError):
            MutationWAL(path)  # opening must refuse, not silently repair

    def test_non_monotonic_lsns_raise(self, tmp_path):
        import json
        import zlib

        path = str(tmp_path / "x.wal")
        with open(path, "w") as handle:
            for lsn in (5, 3):
                body = json.dumps(
                    [lsn, "digest", [0, [["a", 1, 1]]]], separators=(",", ":")
                )
                crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
                handle.write("%08x %s\n" % (crc, body))
        with pytest.raises(CorruptSnapshotError):
            read_wal(path)

    def test_reset_leaves_marker_and_keeps_lsns_increasing(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            log.log_digest(0, [["a", 1, 1]])
            applied = log.log_delete("a")
            assert log.reset(applied) == 2
            assert log.log_digest(7, [["b", 1, 1]]) == 3  # never reused
        records, dropped = read_wal(path)
        assert dropped == 0
        assert records == [
            WalRecord(2, RECORD_CHECKPOINT, [1]),
            WalRecord(3, RECORD_DIGEST, [7, [["b", 1, 1]]]),
        ]

    def test_legacy_digest_log_lines_parse_as_digest_records(self, tmp_path):
        import json
        import zlib

        path = str(tmp_path / "x.digestlog")
        with open(path, "w") as handle:
            for seq, epoch in ((0, 3), (1, 4)):
                body = json.dumps(
                    [seq, epoch, [["a", 1, 1]]], separators=(",", ":")
                )
                crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
                handle.write("%08x %s\n" % (crc, body))
        records, dropped = read_wal(path)
        assert dropped == 0
        assert records == [
            WalRecord(0, RECORD_DIGEST, [3, [["a", 1, 1]]]),
            WalRecord(1, RECORD_DIGEST, [4, [["a", 1, 1]]]),
        ]
        with MutationWAL(path) as log:  # and the LSN sequence continues
            assert log.log_delete("a") == 2

    def test_unrepresentable_poi_id_rejected_before_write(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            with pytest.raises(TypeError):
                log.log_insert((1, 2), 0.0, 0.0)
            with pytest.raises(TypeError):
                log.log_digest(0, [[True, 1, 1]])
            with pytest.raises(ValueError):
                log.append("rename", ["a", "b"])
        assert read_wal(path) == ([], 0)


class TestDeprecatedDigestLogShims:
    def test_digest_log_facade_warns_and_works(self, tmp_path):
        path = str(tmp_path / "x.digestlog")
        with pytest.warns(DeprecationWarning):
            log = DigestLog(path)
        with log:
            assert log.append(3, [["a", 2, 2]]) == 0
            assert log.append(4, [["b", 5, 5]]) == 1
        with pytest.warns(DeprecationWarning):
            records, dropped = read_digest_log(path)
        assert dropped == 0
        assert records == [[0, 3, [["a", 2, 2]]], [1, 4, [["b", 5, 5]]]]

    def test_warnings_point_at_the_caller(self, tmp_path):
        # RT006's promise: a deprecation warning names the caller's
        # file, not the shim's.
        path = str(tmp_path / "x.digestlog")
        with pytest.warns(DeprecationWarning) as captured:
            with DigestLog(path):
                pass
            read_digest_log(path)
        origins = [
            warning.filename
            for warning in captured
            if issubclass(warning.category, DeprecationWarning)
        ]
        assert origins == [__file__, __file__]

    def test_read_digest_log_ignores_non_digest_records(self, tmp_path):
        path = str(tmp_path / "x.wal")
        with MutationWAL(path) as log:
            log.log_insert("a", 1.0, 2.0)
            log.log_digest(3, [["a", 2, 2]])
            log.log_delete("a")
        with pytest.warns(DeprecationWarning):
            records, dropped = read_digest_log(path)
        assert records == [[1, 3, [["a", 2, 2]]]]
        assert dropped == 0


def make_base_snapshot(dataset, directory):
    """Persist a tree over the first half of ``dataset`` into ``directory``."""
    base = TARTree.build(dataset.snapshot(0.5), tia_backend="memory")
    with CheckpointedIngest(base, str(directory)):
        pass  # construction writes <name>.json
    return str(directory)


def sorted_batches(tree, dataset):
    pending = pending_counts(tree, dataset)
    return [(epoch, dict(pending[epoch])) for epoch in sorted(pending)]


class TestCheckpointedIngestRecovery:
    def reference_run(self, directory, batches):
        tree = load_tree(directory + "/tree.json")
        with CheckpointedIngest(tree, directory) as ingest:
            for epoch, counts in batches:
                ingest.digest(epoch, counts)
        return tree

    def test_recover_after_abandoned_ingest(self, small_dataset, tmp_path):
        # Crash after N full batches (no checkpoint): replay restores all.
        dir_a = make_base_snapshot(small_dataset, tmp_path / "a")
        dir_b = make_base_snapshot(small_dataset, tmp_path / "b")
        batches = sorted_batches(load_tree(dir_a + "/tree.json"), small_dataset)
        assert len(batches) >= 3, "dataset too small for the scenario"

        reference = self.reference_run(dir_a, batches)
        self.reference_run(dir_b, batches)  # then "crash" (handle abandoned)

        report = recover(dir_b, dataset=small_dataset)
        assert report.replayed_epochs == len(batches)
        assert report.dropped_tail_records == 0
        assert report.caught_up_checkins == 0  # the WAL alone was enough
        assert_same_tree(reference, report.tree, tmp_path)

    def test_recover_after_crash_mid_digest_epoch(self, small_dataset, tmp_path):
        # The acceptance scenario: kill the process mid-``digest_epoch``
        # (after the WAL append, during TIA application) and recover to a
        # state byte-identical with an uncrashed run.
        dir_a = make_base_snapshot(small_dataset, tmp_path / "a")
        dir_b = make_base_snapshot(small_dataset, tmp_path / "b")
        batches = sorted_batches(load_tree(dir_a + "/tree.json"), small_dataset)
        reference = self.reference_run(dir_a, batches)

        tree_b = load_tree(dir_b + "/tree.json")
        with CheckpointedIngest(tree_b, dir_b) as ingest:
            for epoch, counts in batches[:-1]:
                ingest.digest(epoch, counts)
            last_epoch, last_counts = batches[-1]
            # Arm write faults that fire only once the WAL record is on
            # disk and ``digest_epoch`` is mutating TIAs.
            threshold = len(last_counts) + 2
            injector = FaultInjector(seed=0)
            injector.configure(
                "tia", schedule=lambda attempt: 1.0 if attempt >= threshold else 0.0
            )
            inject_tree_faults(tree_b, injector, fault_writes=True)
            with pytest.raises(TransientIOError):
                ingest.digest(last_epoch, last_counts)

        records, _ = read_wal(dir_b + "/tree.wal")
        assert records[-1].type == RECORD_DIGEST
        assert records[-1].payload[0] == last_epoch  # logged pre-crash

        report = recover(dir_b, dataset=small_dataset)
        assert report.replayed_epochs >= 1
        assert report.caught_up_checkins == 0
        assert_same_tree(reference, report.tree, tmp_path)
        query = seeded_workload(reference, n=1, seed=23)[0]
        assert ranking(knnta_search(report.tree, query)) == ranking(
            knnta_search(reference, query)
        )

    def test_torn_log_tail_recovered_from_dataset(self, small_dataset, tmp_path):
        # A torn final WAL record loses that batch; reconciling against
        # the source data set still reaches exact consistency.
        dir_a = make_base_snapshot(small_dataset, tmp_path / "a")
        dir_b = make_base_snapshot(small_dataset, tmp_path / "b")
        batches = sorted_batches(load_tree(dir_a + "/tree.json"), small_dataset)
        reference = self.reference_run(dir_a, batches)
        self.reference_run(dir_b, batches)

        with open(dir_b + "/tree.wal", "rb+") as handle:
            handle.seek(-4, 2)
            handle.truncate()
        report = recover(dir_b, dataset=small_dataset)
        assert report.dropped_tail_records == 1
        assert report.replayed_epochs == len(batches) - 1
        assert report.caught_up_checkins > 0
        # The torn record was never acked, so the recovered tree's
        # applied-LSN high-water mark legitimately stops one record
        # short of the uncrashed run's; everything else is identical.
        assert report.last_lsn == reference.applied_lsn - 1
        assert_same_tree(
            reference, report.tree, tmp_path, ignore_applied_lsn=True
        )

    def test_ingest_resumes_cleanly_after_torn_tail(self, small_dataset, tmp_path):
        # Reviewer reproduction: crash leaves a torn log tail, recovery
        # runs, then a new CheckpointedIngest reuses the directory.  The
        # repaired log must accept fresh batches without losing them or
        # poisoning later reads/recoveries.
        dir_a = make_base_snapshot(small_dataset, tmp_path / "a")
        dir_b = make_base_snapshot(small_dataset, tmp_path / "b")
        batches = sorted_batches(load_tree(dir_a + "/tree.json"), small_dataset)
        assert len(batches) >= 3, "dataset too small for the scenario"
        reference = self.reference_run(dir_a, batches)

        self.reference_run(dir_b, batches[:-1])
        with open(dir_b + "/tree.wal", "rb+") as handle:
            handle.seek(-4, 2)
            handle.truncate()  # crash tears the last record (batches[-2])
        report = recover(dir_b)  # no dataset: torn batch stays pending
        assert report.dropped_tail_records == 1
        assert report.replayed_epochs == len(batches) - 2

        with CheckpointedIngest(report.tree, dir_b) as ingest:
            for epoch, counts in batches[-2:]:
                assert ingest.digest(epoch, counts) is not None
        records, dropped = read_wal(dir_b + "/tree.wal")
        assert dropped == 0
        assert [record.payload[0] for record in records[-2:]] == [
            epoch for epoch, _counts in batches[-2:]
        ]
        final = recover(dir_b)
        assert_same_tree(reference, final.tree, tmp_path)

    def test_max_tree_recovery_reports_skipped_reconciliation(
        self, small_dataset, tmp_path
    ):
        # catch_up() cannot reconcile peak (MAX) histories; recover()
        # must surface the skip instead of pretending "0 caught up".
        rng = random.Random(3)
        tree = TARTree(
            world=Rect((0.0, 0.0), (20.0, 20.0)),
            clock=EpochClock(0.0, 1.0),
            current_time=10.0,
            tia_backend="memory",
            aggregate_kind="max",
        )
        for i in range(20):
            history = {e: rng.randrange(1, 8) for e in range(5)}
            tree.insert_poi(POI(i, rng.random() * 20, rng.random() * 20), history)
        directory = str(tmp_path / "m")
        with CheckpointedIngest(tree, directory) as ingest:
            ingest.digest(6, {0: 9, 1: 4})
        report = recover(directory, dataset=small_dataset)
        assert report.caught_up_checkins is None
        assert "reconciliation skipped" in report.summary()
        assert report.tree.poi_tia(0).get(6) == 9
        no_dataset = recover(directory)
        assert no_dataset.caught_up_checkins == 0  # none requested, none skipped

    def test_checkpoint_truncates_log_and_survives_restart(
        self, small_dataset, tmp_path
    ):
        directory = make_base_snapshot(small_dataset, tmp_path / "c")
        batches = sorted_batches(load_tree(directory + "/tree.json"), small_dataset)
        tree = load_tree(directory + "/tree.json")
        with CheckpointedIngest(tree, directory) as ingest:
            for epoch, counts in batches[:2]:
                ingest.digest(epoch, counts)
            ingest.checkpoint()
            records, dropped = read_wal(ingest.log_path)
            assert dropped == 0
            assert [record.type for record in records] == [RECORD_CHECKPOINT]
            for epoch, counts in batches[2:]:
                ingest.digest(epoch, counts)
        report = recover(directory, dataset=small_dataset)
        assert report.replayed_epochs == len(batches) - 2
        assert_same_tree(tree, report.tree, tmp_path)

    def test_crash_between_snapshot_and_truncate_is_harmless(
        self, small_dataset, tmp_path
    ):
        # checkpoint() = snapshot, then truncate.  Crash in between
        # leaves a log fully contained in the snapshot; replay must
        # no-op instead of double-applying.
        directory = make_base_snapshot(small_dataset, tmp_path / "c")
        batches = sorted_batches(load_tree(directory + "/tree.json"), small_dataset)
        tree = load_tree(directory + "/tree.json")
        with CheckpointedIngest(tree, directory) as ingest:
            for epoch, counts in batches:
                ingest.digest(epoch, counts)
            ingest._write_snapshot()  # crash before log.truncate()
        report = recover(directory, dataset=small_dataset)
        assert report.replayed_epochs == 0  # every record replayed as a no-op
        assert report.caught_up_checkins == 0
        assert_same_tree(tree, report.tree, tmp_path)

    def test_unknown_poi_records_are_skipped(self, small_dataset, tmp_path):
        directory = make_base_snapshot(small_dataset, tmp_path / "c")
        tree = load_tree(directory + "/tree.json")
        with CheckpointedIngest(tree, directory) as ingest:
            ingest.log.log_digest(0, [["no-such-poi", 1, 1]])
        report = recover(directory)
        assert report.skipped_pois == 1
        assert "1 unknown POI" in report.summary()

    def test_empty_batches_are_not_logged(self, small_dataset, tmp_path):
        directory = make_base_snapshot(small_dataset, tmp_path / "c")
        tree = load_tree(directory + "/tree.json")
        with CheckpointedIngest(tree, directory) as ingest:
            assert ingest.digest(0, {}) is None
            poi_id = next(iter(tree.poi_ids()))
            assert ingest.digest(0, {poi_id: 0}) is None
        assert read_wal(directory + "/tree.wal") == ([], 0)


def assert_same_tree(expected, actual, tmp_path, ignore_applied_lsn=False):
    """Byte-compare the canonical checksummed serialisations.

    ``ignore_applied_lsn=True`` masks the applied-LSN high-water mark
    before comparing, for scenarios (data-set reconciliation after a
    torn tail) where the recovered tree legitimately sits at an earlier
    WAL position than the uncrashed reference.
    """
    path_a = str(tmp_path / "expected.cmp.json")
    path_b = str(tmp_path / "actual.cmp.json")
    marks = (expected.applied_lsn, actual.applied_lsn)
    if ignore_applied_lsn:
        expected.applied_lsn = actual.applied_lsn = None
    try:
        save_tree(expected, path_a)
        save_tree(actual, path_b)
    finally:
        expected.applied_lsn, actual.applied_lsn = marks
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        assert a.read() == b.read()
