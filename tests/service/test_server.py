"""The JSON-lines wire protocol end to end over a real socket."""

import json
import socket

import pytest

from repro.core.query import KNNTAQuery
from repro.service import JsonLineServer, QueryService, ServiceConfig
from repro.temporal.epochs import TimeInterval


@pytest.fixture
def served(small_tree):
    service = QueryService(small_tree, config=ServiceConfig(linger=0.0))
    server = JsonLineServer(service).start()
    yield small_tree, server
    server.shutdown()
    service.close()


class Client:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.file = self.sock.makefile("rwb")

    def rpc(self, payload):
        self.file.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.file.flush()
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def close(self):
        self.sock.close()


@pytest.fixture
def client(served):
    c = Client(served[1].address)
    yield c
    c.close()


@pytest.mark.timeout(120)
class TestWireProtocol:
    def test_ping(self, client):
        from repro.service.server import PROTO_VERSION

        assert client.rpc({"op": "ping"}) == {
            "ok": True,
            "pong": True,
            "proto": PROTO_VERSION,
        }

    def test_query_round_trip_matches_direct_answer(self, served, client):
        tree, _ = served
        response = client.rpc(
            {"op": "query", "point": [5, 5], "interval": [2, 6], "k": 4}
        )
        assert response["ok"]
        expected = tree.query(
            KNNTAQuery(point=(5.0, 5.0), interval=TimeInterval(2, 6), k=4)
        )
        assert [row["poi_id"] for row in response["results"]] == [
            r.poi_id for r in expected
        ]
        assert response["results"][0]["score"] == pytest.approx(expected[0].score)
        assert response["batch_size"] == 1
        assert response["cost"]["rtree_nodes"] > 0

    def test_insert_query_delete_cycle(self, served, client):
        tree, _ = served
        response = client.rpc(
            {
                "op": "insert",
                "poi_id": 4242,
                "point": [5.0, 5.0],
                "aggregates": [[2, 50], [3, 50]],
            }
        )
        assert response["ok"]
        assert 4242 in tree
        # The new, heavily-checked-in POI at the query point must rank.
        response = client.rpc(
            {"op": "query", "point": [5, 5], "interval": [2, 6], "k": 3}
        )
        assert 4242 in [row["poi_id"] for row in response["results"]]
        assert client.rpc({"op": "delete", "poi_id": 4242})["deleted"]
        assert 4242 not in tree
        assert not client.rpc({"op": "delete", "poi_id": 4242})["deleted"]

    def test_digest_applies_counts(self, served, client):
        tree, _ = served
        poi_id = next(iter(tree.poi_ids()))
        response = client.rpc(
            {"op": "digest", "epoch": 10, "counts": [[poi_id, 7]]}
        )
        assert response["ok"]
        assert tree.poi_tia(poi_id).get(10) == 7

    def test_stats_op(self, client):
        client.rpc({"op": "query", "point": [1, 1], "interval": [2, 6], "k": 2})
        response = client.rpc({"op": "stats"})
        assert response["ok"]
        assert response["stats"]["completed"] >= 1
        assert "scrubber" in response["stats"]

    def test_scrub_op(self, client):
        response = client.rpc({"op": "scrub", "budget": 4})
        assert response["ok"]
        assert 0 < response["nodes_checked"] <= 4

    def test_bad_requests_keep_the_connection_alive(self, client):
        assert client.rpc({"op": "nope"})["code"] == "bad-request"
        assert client.rpc({"op": "query"})["code"] == "bad-request"
        assert client.rpc({"op": "query", "point": [1], "interval": [2, 6]})[
            "code"
        ] == "bad-request"
        response = client.rpc([1, 2, 3])
        assert response["code"] == "bad-request"
        # Still serving:
        assert client.rpc({"op": "ping"})["ok"]

    def test_malformed_json_reports_error(self, served):
        c = Client(served[1].address)
        c.file.write(b"this is not json\n")
        c.file.flush()
        response = json.loads(c.file.readline())
        assert response["ok"] is False
        c.close()

    def test_shutdown_stops_the_accept_loop(self, small_tree):
        service = QueryService(small_tree, config=ServiceConfig(linger=0.0))
        server = JsonLineServer(service).start()
        c = Client(server.address)
        assert c.rpc({"op": "shutdown"})["bye"]
        c.close()
        server._thread.join(timeout=10)
        assert not server._thread.is_alive()
        server._server.server_close()
        service.close()


@pytest.mark.timeout(120)
class TestOperatorSurface:
    def test_internal_failures_are_redacted_on_the_wire(self, served, client):
        # RT005: the wire carries a stable message; the exception's type
        # and text stay server-side for the operator.
        _, server = served
        secret = "connection string postgres://user:hunter2@db"

        def boom():
            raise RuntimeError(secret)

        server.service.stats = boom
        response = client.rpc({"op": "stats"})
        from repro.service.server import PROTO_VERSION

        assert response == {
            "ok": False,
            "code": "error",
            "error": JsonLineServer.INTERNAL_ERROR_MESSAGE,
            "proto": PROTO_VERSION,
        }
        assert secret not in json.dumps(response)
        assert server.errors == 1
        assert server.last_error == "RuntimeError: %s" % secret
        # The connection survives a redacted failure.
        assert client.rpc({"op": "ping"})["ok"]

    def test_health_op_single_tree_stub(self, client):
        response = client.rpc({"op": "health"})
        assert response["ok"]
        health = response["health"]
        assert health["shards"] == []
        assert health["events"] == []
        assert health["closed"] is False
        assert health["worker_deaths"] == 0


@pytest.fixture
def cluster_served_factory(small_dataset):
    """Build a 4-shard cluster with every shard fatally failing its
    query dispatch, served over the wire; yields a factory keyed on the
    coordinator's degradation policy and closes everything after."""
    from repro import ClusterTree, ResilienceConfig
    from repro.reliability.faults import FaultInjector, constant

    opened = []

    def serve(allow_degraded):
        injector = FaultInjector(seed=0)
        cluster = ClusterTree.build(
            small_dataset,
            num_shards=4,
            resilience=ResilienceConfig(sleep=lambda _: None),
            injector=injector,
            allow_degraded=allow_degraded,
        )
        for index in range(len(cluster.shards)):
            injector.configure(
                "shard.%d.query" % index, schedule=constant(1.0), kind="fatal"
            )
        service = QueryService(cluster, config=ServiceConfig(linger=0.0))
        server = JsonLineServer(service).start()
        opened.append((cluster, service, server))
        return cluster, server

    yield serve
    for cluster, service, server in opened:
        server.shutdown()
        service.close()
        cluster.close()


@pytest.mark.timeout(120)
class TestDegradedServing:
    """The degraded-answer protocol fields over the wire (cluster mode)."""

    def query_payload(self, cluster):
        end = cluster.current_time
        return {
            "op": "query",
            "point": [0.4, 0.6],
            "interval": [end - 28.0, end],
            "k": 5,
            "alpha0": 0.3,
        }

    def test_allow_degraded_reports_coverage_and_bound(
        self, cluster_served_factory
    ):
        cluster, server = cluster_served_factory(allow_degraded=True)
        client = Client(server.address)
        try:
            response = client.rpc(self.query_payload(cluster))
            assert response["ok"]
            assert response["degraded"] is True
            assert sorted(response["missed_shards"]) == [0, 1, 2, 3]
            assert response["coverage"] == 0.0
            assert isinstance(response["score_bound"], float)
            assert response["results"] == []
            # An untouched single-tree answer does not carry the fields.
            assert server.service.stats()["degraded"] >= 1
        finally:
            client.close()

    def test_strict_policy_maps_to_the_degraded_error_code(
        self, cluster_served_factory
    ):
        cluster, server = cluster_served_factory(allow_degraded=False)
        client = Client(server.address)
        try:
            response = client.rpc(self.query_payload(cluster))
            assert response["ok"] is False
            assert response["code"] == "degraded"
            assert sorted(response["missed_shards"]) == [0, 1, 2, 3]
            assert response["coverage"] == 0.0
            assert isinstance(response["score_bound"], float)
            # Degradation is an explicit protocol outcome, not an
            # internal error: nothing was redacted and the connection
            # keeps serving.
            assert server.errors == 0
            assert client.rpc({"op": "ping"})["ok"]
        finally:
            client.close()

    def test_exact_cluster_answers_are_flagged_not_degraded(
        self, small_dataset
    ):
        from repro import ClusterTree

        cluster = ClusterTree.build(small_dataset, num_shards=4)
        service = QueryService(cluster, config=ServiceConfig(linger=0.0))
        server = JsonLineServer(service).start()
        client = Client(server.address)
        try:
            response = client.rpc(self.query_payload(cluster))
            assert response["ok"]
            assert response["degraded"] is False
            assert "missed_shards" not in response
            assert "coverage" not in response
            assert len(response["results"]) == 5
        finally:
            client.close()
            server.shutdown()
            service.close()
            cluster.close()


@pytest.mark.timeout(120)
class TestProtoNegotiation:
    """Wire-protocol versioning: ``proto`` on every frame, ``hello``
    handshake, and the stable ``proto-mismatch`` refusal."""

    def test_every_response_frame_carries_proto(self, client):
        from repro.service.server import PROTO_VERSION

        assert client.rpc({"op": "ping"})["proto"] == PROTO_VERSION
        assert client.rpc({"op": "nope"})["proto"] == PROTO_VERSION
        assert client.rpc(
            {"op": "query", "point": [1, 1], "interval": [2, 6], "k": 2}
        )["proto"] == PROTO_VERSION

    def test_hello_handshake(self, client):
        from repro.service.server import PROTO_VERSION

        response = client.rpc({"op": "hello", "proto": PROTO_VERSION})
        assert response["ok"]
        assert response["proto"] == PROTO_VERSION

    def test_mismatch_refused_with_stable_code(self, client):
        from repro.service.server import PROTO_VERSION

        response = client.rpc({"op": "hello", "proto": PROTO_VERSION + 1})
        assert response["ok"] is False
        assert response["code"] == "proto-mismatch"
        assert response["proto"] == PROTO_VERSION
        # The refusal names both versions, and it applies to any op —
        # a drifted peer is refused before its payload is interpreted.
        assert str(PROTO_VERSION + 1) in response["error"]
        response = client.rpc(
            {"op": "query", "point": [1, 1], "interval": [2, 6],
             "proto": PROTO_VERSION + 1}
        )
        assert response["code"] == "proto-mismatch"
        # The connection survives the refusal; a corrected peer serves.
        assert client.rpc({"op": "ping", "proto": PROTO_VERSION})["ok"]

    def test_proto_one_peer_is_refused(self, client):
        # Version 2 added worker reply stats; a version-1 peer is refused.
        response = client.rpc({"op": "ping", "proto": 1})
        assert response["code"] == "proto-mismatch"

    def test_unversioned_requests_still_serve(self, client):
        # Pre-versioning peers send no ``proto`` field: they are assumed
        # current rather than refused, so rolling upgrades can proceed.
        assert client.rpc({"op": "ping"})["ok"]
