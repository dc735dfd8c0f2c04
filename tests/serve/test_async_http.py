"""Tests for the asyncio HTTP front: one completion hop per POST."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.faults import FaultPlan, FaultRule, injected
from repro.serve import (
    AsyncGatewayServer,
    GatewayConfig,
    ReplicaPool,
    ServingGateway,
)

from tests.serve.test_gateway import hard_outputs


def post(url: str, body) -> tuple[int, object, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; read until the server closes it."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def hard(responses: list[dict]) -> list[dict]:
    """Decision fields only: scores move ~1e-16 with batch composition."""
    return [hard_outputs(response) for response in responses]


def serve_fault(**kwargs) -> FaultPlan:
    return FaultPlan(
        name="async-front",
        seed=0,
        rules=(FaultRule(point="replica.serve", **kwargs),),
    )


def start(served, single_store, **config):
    app, ds, run, payloads = served
    store, *_ = single_store
    pool = ReplicaPool.from_store(store, app.name)
    gateway = ServingGateway(pool, GatewayConfig(**config))
    return gateway, AsyncGatewayServer(gateway, port=0), payloads


@pytest.fixture()
def front(served, single_store):
    gateway, server, payloads = start(served, single_store, max_batch_size=4)
    with gateway, server:
        yield gateway, server, payloads


def count_loop_hops(server) -> list:
    """Wrap the server loop's ``call_soon_threadsafe``; returns the call log."""
    loop = server._loop
    plain = loop.call_soon_threadsafe
    calls = []

    def counting(callback, *args):
        calls.append(callback)
        return plain(callback, *args)

    loop.call_soon_threadsafe = counting
    return calls


class TestPredict:
    def test_list_post_is_ordered_and_takes_one_loop_hop(self, front):
        gateway, server, payloads = front
        expected = [gateway.submit(p) for p in payloads[:12]]
        hops = count_loop_hops(server)
        status, body, _ = post(server.url + "/predict", payloads[:12])
        assert status == 200
        assert hard(body) == hard(expected)  # same order, same answers
        # Twelve futures over three batches, one wake-up of the loop.
        assert len(hops) == 1

    def test_single_post_takes_one_loop_hop(self, front):
        gateway, server, payloads = front
        hops = count_loop_hops(server)
        status, body, _ = post(server.url + "/predict", payloads[0])
        assert status == 200 and "Intent" in body
        assert len(hops) == 1

    def test_empty_list_is_answered_without_serving(self, front):
        gateway, server, payloads = front
        status, body, _ = post(server.url + "/predict", [])
        assert (status, body) == (200, [])

    def test_concurrent_posts_each_get_their_own_answers(self, front):
        gateway, server, payloads = front
        expected = [gateway.submit(p) for p in payloads]
        results = {}

        def client(k: int) -> None:
            chunk = payloads[k::4]
            for _ in range(5):
                results[k] = post(server.url + "/predict", chunk)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            status, body, _ = results[k]
            assert status == 200
            assert hard(body) == hard(expected[k::4])

    def test_single_post_carries_its_trace_id(self, served, single_store):
        gateway, server, payloads = start(served, single_store, max_batch_size=4)
        obs.enable()
        try:
            with gateway, server:
                status, _, headers = post(
                    server.url + "/predict",
                    {"payload": payloads[0], "request_id": "traced-1"},
                )
                assert status == 200
                trace_id = headers["X-Trace-Id"]
                assert obs.get_tracer().ring.trace(trace_id)
                _, _, headers = post(server.url + "/predict", payloads[:2])
                assert "X-Trace-Id" not in headers  # lists carry none
        finally:
            obs.disable()

    def test_bad_payload_in_a_list_is_400(self, front):
        gateway, server, payloads = front
        status, body, _ = post(
            server.url + "/predict", [payloads[0], {"no_such_field": 1}]
        )
        assert status == 400
        assert "no_such_field" in body["error"]


    def test_over_long_payloads_are_400_and_never_reach_the_breaker(self, front):
        """A payload the schema forbids is refused at submit, naming the
        field: it is never queued, so it cannot fail a batch, isolate its
        batch-mates or count against the tier's circuit breaker."""
        gateway, server, payloads = front
        limit = gateway.pool.replica("default").endpoint.artifact.schema.payload(
            "tokens"
        ).max_length
        too_long = dict(payloads[0], tokens=["w"] * (limit + 1))
        for body in [too_long] * 5 + [[payloads[1], too_long]]:
            status, body, _ = post(server.url + "/predict", body)
            assert status == 400
            assert "'tokens'" in body["error"] and "max_length" in body["error"]
        status, body, _ = post(server.url + "/predict", payloads[0])
        assert status == 200 and "Intent" in body
        breaker = gateway.stats()["breakers"]["default"]
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0
        assert gateway.telemetry.isolated.value(tier="default") == 0


class TestFailures:
    def test_failing_item_fails_the_post_with_its_status(self, served, single_store):
        # Batches of one: exactly one of the four items hits the fault.
        gateway, server, payloads = start(
            served, single_store, max_batch_size=1, breaker=None
        )
        with injected(serve_fault(max_fires=1)), gateway, server:
            status, body, _ = post(server.url + "/predict", payloads[:4])
            assert status == 500  # the injected fault itself, as a single POST gets
            assert "InjectedFault" in body["error"]
            gateway.drain(timeout=10)
            # The other three were served; the next POST is unaffected.
            counted = sum(n for _, n in gateway.telemetry.requests.samples())
            assert counted == 4
            status, body, _ = post(server.url + "/predict", payloads[:4])
            assert status == 200 and len(body) == 4

    def test_request_timeout_is_504(self, served, single_store):
        gateway, server, payloads = start(
            served,
            single_store,
            max_batch_size=1,
            request_timeout_s=0.05,
            breaker=None,
        )
        slow = serve_fault(kind="latency", latency_s=0.3, max_fires=1)
        with injected(slow), gateway, server:
            status, body, _ = post(server.url + "/predict", payloads[:2])
            assert status == 504
            assert "not answered" in body["error"]
            gateway.drain(timeout=10)
            status, _, _ = post(server.url + "/predict", payloads[0])
            assert status == 200

    def test_stop_answers_in_flight_posts(self, served, single_store):
        gateway, server, payloads = start(
            served, single_store, max_batch_size=2, breaker=None
        )
        slow = serve_fault(kind="latency", latency_s=0.2, max_fires=1)
        answers = []
        with injected(slow), gateway:
            server.start()
            client = threading.Thread(
                target=lambda: answers.append(post(server.url + "/predict", payloads[:6]))
            )
            client.start()
            deadline = time.monotonic() + 10
            while gateway._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # until the POST's items are accepted
            server.stop()
            client.join(timeout=30)
        assert not client.is_alive()
        [(status, body, _)] = answers
        assert status == 200 and len(body) == 6


class TestMalformedRequests:
    """A request the front cannot frame is answered 400, then closed."""

    @pytest.mark.parametrize(
        "request_head",
        [
            b"POST /predict HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /predict HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"HELLO\r\n\r\n",
        ],
        ids=["non-numeric-length", "negative-length", "one-part-request-line"],
    )
    def test_is_400_then_closed(self, front, request_head):
        gateway, server, payloads = front
        reply = raw_exchange(server, request_head)
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request", reply
        assert "Connection: close" in lines[1:]
        assert "Content-Type: application/json" in lines[1:]
        assert json.loads(body)["error"]
        status, _, _ = post(server.url + "/predict", payloads[0])
        assert status == 200  # the front keeps serving
