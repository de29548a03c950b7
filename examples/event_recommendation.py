"""Social event recommendation: collective processing of a query wave.

Run with::

    python examples/event_recommendation.py

An event-recommendation service answers bursts of kNNTA queries — every
app user refreshing "what's trending near me this week / this month".
Applications expose only a few interval presets, which is exactly the
setting where the paper's collective processing scheme (Section 7.2)
shines: queries are grouped by interval and share both node fetches and
TIA aggregate computations.  This example compares a burst processed
collectively vs individually.
"""

import random
import time

from repro import TARTree, datasets
from repro.core.collective import CollectiveProcessor
from repro.core.query import KNNTAQuery
from repro.temporal.epochs import TimeInterval

N_USERS = 2000
PRESET_DAYS = (1, 7, 30)  # "today", "this week", "this month"


def make_burst(data, seed=11):
    rng = random.Random(seed)
    locations = list(data.positions.values())
    queries = []
    for _ in range(N_USERS):
        length = float(rng.choice(PRESET_DAYS))
        interval = TimeInterval(data.tc - length, data.tc)
        queries.append(
            KNNTAQuery(rng.choice(locations), interval, k=5, alpha0=0.3)
        )
    return queries


def main():
    print("Generating a Gowalla-like LBSN and building the TAR-tree ...")
    data = datasets.make("GW", scale=0.1, seed=3)
    tree = TARTree.build(data)
    print("  %s over %s" % (tree, data))

    queries = make_burst(data)
    print("\nA burst of %d user queries over %d interval presets %s" % (
        len(queries), len(PRESET_DAYS), PRESET_DAYS
    ))

    snapshot = tree.stats.snapshot()
    start = time.perf_counter()
    collective_results = CollectiveProcessor(tree).run(queries)
    collective_time = time.perf_counter() - start
    collective_stats = tree.stats.diff(snapshot)

    snapshot = tree.stats.snapshot()
    start = time.perf_counter()
    individual_results = tree.query_batch(queries)
    individual_time = time.perf_counter() - start
    individual_stats = tree.stats.diff(snapshot)

    assert all(
        [r.poi_id for r in a] == [r.poi_id for r in b]
        for a, b in zip(collective_results, individual_results)
    ), "collective processing must return identical recommendations"

    print("\n             %12s %12s" % ("collective", "individual"))
    print("CPU total    %10.2fs %10.2fs" % (collective_time, individual_time))
    print("CPU/query    %10.3fms %9.3fms" % (
        1000 * collective_time / len(queries),
        1000 * individual_time / len(queries),
    ))
    print("node accesses/query %5.2f %12.2f" % (
        collective_stats.rtree_nodes / len(queries),
        individual_stats.rtree_nodes / len(queries),
    ))
    print("TIA page reads/query %4.2f %12.2f" % (
        collective_stats.tia_pages / len(queries),
        individual_stats.tia_pages / len(queries),
    ))
    print(
        "\nCollective processing shared %.0f%% of the node fetches away."
        % (100 * (1 - collective_stats.rtree_nodes / max(1, individual_stats.rtree_nodes)))
    )

    # Show one user's recommendations.
    user_query = queries[0]
    user_results = collective_results[0]
    print("\nSample user at (%.1f, %.1f), window %s:" % (
        user_query.point[0], user_query.point[1], user_query.interval
    ))
    for rank, result in enumerate(user_results, start=1):
        print("  #%d POI %-8s score=%.4f" % (rank, result.poi_id, result.score))


if __name__ == "__main__":
    main()
