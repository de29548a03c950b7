"""The oracle gate: served answers against one-shot single-tree answers.

An answer matches when its rows are equal: POI ids, scores (bit for
bit) and tie order.  A run keeps each answer as a digest of its rows
(``drive.answer_digest``) and the oracle digests its own answer the
same way.  The cluster workloads check every answered query (for a pool
query answered twice, its latest answer) against one TAR-tree built
over the same data set.  ``tree-rw`` rebuilds
the served state from the same on-disk files and replays the executed
writes in order; after each write it checks the subscription updates
that write pushed, and a sample of the queries that ran entirely
between that write and the next, with a one-shot ``tree.query`` at that
state.  Its closed loop runs on a re-opened copy of the unwritten state,
so those queries are checked before the first write.
"""

import bisect
from collections import defaultdict

import repro.reliability.recovery as recovery
from repro.continuous.windows import window_state
from repro.core.query import KNNTAQuery
from repro.core.tar_tree import TARTree

from drive import answer_digest

#: ``tree-rw`` checks at most this many queries, spread evenly.
TREE_RW_QUERY_SAMPLE = 1500


class Verdict:
    """How many answers were checked, and what did not match."""

    def __init__(self):
        self.checked_queries = 0
        self.checked_pushes = 0
        self.mismatches = []

    def compare(self, what, served_digest, query, tree):
        expected = tree.query(query).rows
        if served_digest != answer_digest(expected):
            self.mismatches.append(
                "%s: served answer differs from oracle %r" % (what, list(expected)[:3])
            )


def check(inputs, observed):
    """Run the gate for the workload; returns a :class:`Verdict`."""
    if inputs.workload.name == "tree-rw":
        return _check_tree_rw(inputs, observed)
    return _check_cluster(inputs, observed)


def _answered(inputs, observed):
    """``(phase, slot, query, digest)`` for every exact answer kept."""
    for slot, (_due, query) in enumerate(inputs.open_schedule):
        if observed.open_done[slot]:
            yield "open", slot, query, observed.open_digests[slot]
    for slot, query in enumerate(inputs.closed_pool):
        if observed.closed_answered[slot]:
            yield "closed", slot, query, observed.closed_digests[slot]


def _check_cluster(inputs, observed):
    verdict = Verdict()
    oracle = TARTree.build(inputs.dataset(), bulk=True)
    for _phase, _slot, query, digest in _answered(inputs, observed):
        verdict.compare("query %r" % (query,), digest, query, oracle)
        verdict.checked_queries += 1
    return verdict


def _check_tree_rw(inputs, observed):
    verdict = Verdict()
    tree = recovery.recover(inputs.fresh_state("oracle")).tree
    writes = observed.executed_writes()
    starts = [observed.write_start[index] for index in writes]
    ends = [observed.write_end[index] for index in writes]
    quiet = []
    for phase, slot, query, digest in _answered(inputs, observed):
        if phase == "closed":
            quiet.append((0, query, digest))
            continue
        state = bisect.bisect_right(ends, observed.open_sent[slot])
        if state == len(starts) or starts[state] > observed.open_done[slot]:
            quiet.append((state, query, digest))
    step = max(1, -(-len(quiet) // TREE_RW_QUERY_SAMPLE))
    by_state = defaultdict(list)
    for state, query, digest in quiet[::step]:
        by_state[state].append((query, digest))

    def check_queries(state):
        for query, digest in by_state.pop(state, ()):
            verdict.compare("query at state %d" % state, digest, query, tree)
            verdict.checked_queries += 1

    def check_push(spec, pushed, what):
        low, high, digest = pushed
        point, window, k, alpha0 = spec
        expected = window_state(tree.clock, tree.current_time, window).interval
        if (low, high) != (expected.start, expected.end):
            verdict.mismatches.append(
                "%s: window [%r, %r], oracle %r" % (what, low, high, expected)
            )
            return
        query = KNNTAQuery(point, expected, k=k, alpha0=alpha0)
        verdict.compare(what, digest, query, tree)
        verdict.checked_pushes += 1

    for spec, initial, log in observed.subscriptions:
        check_push(spec, initial, "initial update")
        if log.unexpected:
            verdict.mismatches.append("%d unexpected updates pushed" % log.unexpected)
    check_queries(0)
    digests = 0
    for state, index in enumerate(writes, 1):
        op = inputs.writes[index]
        try:
            if op.kind == "digest":
                tree.digest_epoch(op.epoch, op.counts)
            elif op.kind == "insert":
                tree.insert_poi(op.poi, op.history)
            else:
                tree.delete_poi(op.poi_id)
        except Exception:
            pass  # the served side raised too: a failed write, counted there
        if op.kind == "digest":
            slot = digests
            digests += 1
            for spec, _initial, log in observed.subscriptions:
                if log.state[slot] != 1:
                    verdict.mismatches.append(
                        "update %d %s" % (digests, "degraded" if log.state[slot] else "not pushed")
                    )
                    continue
                pushed = (log.lows[slot], log.highs[slot], log.digests[slot])
                check_push(spec, pushed, "update %d" % digests)
        check_queries(state)
    for _spec, _initial, log in observed.subscriptions:
        pushed = sum(1 for state in log.state if state)
        if pushed != digests:
            verdict.mismatches.append("%d updates pushed for %d digests" % (pushed, digests))
    return verdict
