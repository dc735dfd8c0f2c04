"""Tests for the HTTP front over the gateway: routes and status mapping."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import AsyncGatewayServer, GatewayConfig, ReplicaPool, ServingGateway


@pytest.fixture()
def server(served, single_store):
    app, ds, run, payloads = served
    store, *_ = single_store
    pool = ReplicaPool.from_store(store, app.name)
    gateway = ServingGateway(
        pool, GatewayConfig(max_batch_size=4, max_wait_s=0.02)
    )
    with gateway, AsyncGatewayServer(gateway, port=0) as http:
        yield http, payloads


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(url: str, body) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestPredict:
    def test_single_payload(self, server):
        http, payloads = server
        status, body = post(http.url + "/predict", payloads[0])
        assert status == 200
        assert "label" in body["Intent"]

    def test_batch_of_payloads(self, server):
        http, payloads = server
        status, body = post(http.url + "/predict", payloads[:4])
        assert status == 200
        assert isinstance(body, list) and len(body) == 4

    def test_envelope_with_budget_and_id(self, server):
        http, payloads = server
        status, body = post(
            http.url + "/predict",
            {"payload": payloads[0], "latency_budget": 1.0, "request_id": "q1"},
        )
        assert status == 200
        assert "Intent" in body

    def test_bad_payload_is_400(self, server):
        http, payloads = server
        status, body = post(http.url + "/predict", {"bogus": [1]})
        assert status == 400
        assert "unknown payloads" in body["error"]

    def test_unknown_envelope_key_is_400(self, server):
        http, payloads = server
        status, body = post(
            http.url + "/predict", {"payload": payloads[0], "budgets": 1}
        )
        assert status == 400
        assert "envelope" in body["error"]

    def test_malformed_json_is_400(self, server):
        http, payloads = server
        request = urllib.request.Request(
            http.url + "/predict", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestServerFaults:
    def test_get_handler_crash_is_structured_500(self, server, monkeypatch):
        # A crash inside any GET route must come back as JSON, never a
        # bare HTML traceback page.
        http, payloads = server
        monkeypatch.setattr(
            http.gateway,
            "stats",
            lambda: (_ for _ in ()).throw(RuntimeError("stats exploded")),
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http.url + "/telemetry", timeout=30)
        assert excinfo.value.code == 500
        assert excinfo.value.headers["Content-Type"] == "application/json"
        body = json.loads(excinfo.value.read())
        assert body["error"] == "RuntimeError: stats exploded"

    def test_stopped_gateway_is_503_not_400(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        pool = ReplicaPool.from_store(store, app.name)
        gateway = ServingGateway(pool, GatewayConfig(max_batch_size=4))
        with AsyncGatewayServer(gateway, port=0) as http:
            gateway.stop()  # the server outlives its gateway during shutdown
            status, body = post(http.url + "/predict", payloads[0])
            assert status == 503
            assert "stopped" in body["error"]


class TestIntrospection:
    def test_healthz(self, server):
        http, payloads = server
        status, body = get(http.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["versions"]["default"]["stable"]

    def test_telemetry_counts_requests(self, server):
        http, payloads = server
        post(http.url + "/predict", payloads[0])
        status, body = get(http.url + "/telemetry")
        assert status == 200
        assert body["telemetry"]["total_requests"] == 1

    def test_dashboard_is_text(self, server):
        http, payloads = server
        with urllib.request.urlopen(http.url + "/dashboard", timeout=30) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            assert b"requests:" in response.read()

    def test_unknown_path_404(self, server):
        http, payloads = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(http.url + "/nope", timeout=30)
        assert excinfo.value.code == 404
        assert excinfo.value.headers["Content-Type"] == "application/json"
        body = json.loads(excinfo.value.read())
        assert "/nope" in body["error"]

    def test_unknown_post_path_is_json_404(self, server):
        http, payloads = server
        status, body = post(http.url + "/nope", payloads[0])
        assert status == 404
        assert "/nope" in body["error"]
