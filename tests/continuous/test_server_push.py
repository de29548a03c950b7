"""Subscription ops on the JSON-lines wire: server-push delta frames.

A connection that subscribes receives, besides the normal one-line
response, unsolicited frames marked ``"push": "update"`` whenever a
digest advances its window — including digests issued by *other*
connections.  Closing the connection tears its subscriptions down.
"""

import json
import socket
import time

import pytest

from repro.service import JsonLineServer, QueryService, ServiceConfig

from tests.service.conftest import build_tree


@pytest.fixture
def served():
    tree = build_tree(pois=60, seed=11)
    service = QueryService(tree, config=ServiceConfig(linger=0.0))
    server = JsonLineServer(service).start()
    yield tree, server
    server.shutdown()
    service.close()


class Client:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.file = self.sock.makefile("rwb")

    def send(self, payload):
        self.file.write((json.dumps(payload) + "\n").encode("utf-8"))
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def rpc(self, payload):
        """Round-trip skipping any push frames queued ahead of the ack."""
        self.send(payload)
        while True:
            frame = self.recv()
            if "push" not in frame:
                return frame

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def client(served):
    c = Client(served[1].address)
    yield c
    c.close()


def digest_payload(tree, weight=9):
    epoch = tree.clock.epoch_of(tree.current_time)
    ids = sorted(tree.poi_ids())[:8]
    return {
        "op": "digest",
        "epoch": epoch,
        "counts": [[poi_id, weight] for poi_id in ids],
    }


def subscribe(client, window=3, k=5):
    return client.rpc(
        {"op": "subscribe", "point": [10.0, 10.0], "window": window, "k": k}
    )


@pytest.mark.timeout(120)
class TestSubscribeOp:
    def test_response_shape(self, client):
        response = subscribe(client)
        assert response["ok"]
        assert response["seq"] == 0
        assert "incremental" not in response
        assert response["degraded"] is False
        assert response["results"]
        assert len(response["deltas"]) == len(response["results"])
        assert all(d["kind"] == "enter" for d in response["deltas"])
        # The half-open epoch range [7, 10) is the trailing 3 epochs.
        assert response["window"]["epochs"] == [7, 10]

    def test_bad_window_is_rejected(self, client):
        response = client.rpc(
            {"op": "subscribe", "point": [1, 1], "window": 0}
        )
        assert response["ok"] is False
        assert response["code"] == "bad-request"
        assert "window_epochs" in response["error"]

    def test_subscribe_without_a_channel_is_bad_request(self, served):
        # Direct handle_request (no connection) cannot receive pushes.
        _, server = served
        response = server.handle_request(
            json.dumps({"op": "subscribe", "point": [1, 1], "window": 2})
        )
        assert response["ok"] is False
        assert response["code"] == "bad-request"


@pytest.mark.timeout(120)
class TestPushDelivery:
    def test_push_frames_interleave_with_digest_acks(self, served, client):
        tree, _ = served
        sub_id = subscribe(client)["subscription"]
        for seq in (1, 2, 3):
            client.send(digest_payload(tree))
            # The fan-out runs before the digest call returns, so the
            # push frame lands ahead of the ack on this connection.
            push = client.recv()
            assert push["push"] == "update"
            assert push["subscription"] == sub_id
            assert push["seq"] == seq
            assert push["results"]
            ack = client.recv()
            assert ack["ok"] and "push" not in ack

    def test_other_connections_digest_reaches_the_subscriber(
        self, served, client
    ):
        tree, server = served
        subscribe(client)
        writer = Client(server.address)
        try:
            assert writer.rpc(digest_payload(tree))["ok"]
            push = client.recv()  # unsolicited: no request outstanding
            assert push["push"] == "update"
            assert push["seq"] == 1
        finally:
            writer.close()

    def test_unsubscribe_stops_pushes(self, served, client):
        from repro.service.server import PROTO_VERSION

        tree, _ = served
        sub_id = subscribe(client)["subscription"]
        response = client.rpc({"op": "unsubscribe", "subscription": sub_id})
        assert response == {
            "ok": True, "unsubscribed": True, "proto": PROTO_VERSION,
        }
        response = client.rpc({"op": "unsubscribe", "subscription": sub_id})
        assert response == {
            "ok": True, "unsubscribed": False, "proto": PROTO_VERSION,
        }
        client.send(digest_payload(tree))
        assert "push" not in client.recv()  # the ack arrives first


@pytest.mark.timeout(120)
class TestChannelTeardown:
    def test_counts_in_health_and_stats(self, served, client):
        subscribe(client)
        subscribe(client, window=2)
        health = client.rpc({"op": "health"})["health"]
        assert health["subscriptions"] == 2
        stats = client.rpc({"op": "stats"})
        assert stats["stats"]["subscriptions"]["subscriptions.active"] == 2

    def test_closing_the_connection_unsubscribes(self, served, client):
        _, server = served
        other = Client(server.address)
        subscribe(other)
        assert client.rpc({"op": "health"})["health"]["subscriptions"] == 1
        # Close the makefile wrapper too: it holds the fd, and the
        # server only notices EOF once the fd actually closes.
        other.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.rpc({"op": "health"})["health"]["subscriptions"] == 0:
                break
            time.sleep(0.05)
        assert client.rpc({"op": "health"})["health"]["subscriptions"] == 0
