"""Cluster fixtures shared by both shard transports.

A cluster test that must hold on both transports takes the
``transport`` fixture and opens its cluster with :func:`open_on`:
``"inproc"`` builds a :class:`~repro.ClusterTree` of in-process shards,
``"workers"`` saves that cluster to disk and serves it from one worker
process per shard (:class:`~repro.cluster.RemoteClusterTree`).  A test
module whose tests predate the fixture pins ``"inproc"`` under their
original names and re-runs them in a ``...OnWorkers`` class that pins
``"workers"``.  Worker clusters cost roughly a second per spawned
worker, so tests that do not mutate share one.
"""

from contextlib import contextmanager

import pytest

from repro import ClusterTree
from repro.cluster import RemoteClusterTree, save_cluster
from repro.reliability.faults import FaultInjector, constant

TRANSPORTS = ("inproc", "workers")


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    """The shard transport the test's cluster runs on."""
    return request.param


@contextmanager
def open_on(transport, dataset, path, num_shards=4, method="kd", **options):
    """A cluster over ``dataset`` on ``transport``, closed afterwards.

    ``options`` go to the coordinator (``parallelism``, ``resilience``,
    ``allow_degraded``); in process the cluster also gets a seeded
    :class:`~repro.reliability.faults.FaultInjector` for
    :func:`kill_shard`.  ``path`` receives a worker cluster's state.
    """
    built = ClusterTree.build(
        dataset,
        num_shards=num_shards,
        method=method,
        injector=FaultInjector(seed=0),
        **(options if transport == "inproc" else {}),
    )
    if transport == "inproc":
        cluster = built
    else:
        save_cluster(built, str(path))
        built.close()
        cluster = RemoteClusterTree.start(str(path), **options)
    try:
        yield cluster
    finally:
        cluster.close()


def kill_shard(cluster, index):
    """Kill shard ``index`` for good on either transport.

    In process every guarded site of the shard turns fatal through the
    cluster's fault injector; a worker is SIGKILLed.
    """
    if isinstance(cluster, RemoteClusterTree):
        cluster.shards[index].handle.kill()
        return
    for site in ("query", "mutate", "scrub"):
        cluster.injector.configure(
            "shard.%d.%s" % (index, site), schedule=constant(1.0), kind="fatal"
        )
