"""End-to-end observability through the serving stack.

The ISSUE's acceptance path: a canary-routed request submitted through the
gateway produces ONE trace whose spans cover enqueue -> routing -> batch
formation -> the shared model batch -> replica serve -> endpoint encode and
forward — retrievable over HTTP via ``GET /trace/<id>`` — while
``GET /metrics`` exposes the same traffic as parseable Prometheus text with
per-tier latency histograms.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.serve import AsyncGatewayServer, GatewayConfig, ReplicaPool, ServingGateway

# The full causal chain one served request must leave behind.
EXPECTED_SPANS = {
    "gateway.enqueue",
    "gateway.route",
    "gateway.batch_form",
    "gateway.batch",
    "replica.serve",
    "endpoint.encode",
    "endpoint.forward",
}


@pytest.fixture()
def gateway(served, single_store):
    app, ds, run, payloads = served
    store, *_ = single_store
    pool = ReplicaPool.from_store(store, app.name)
    with ServingGateway(
        pool, GatewayConfig(max_batch_size=4, max_wait_s=0.02)
    ) as gw:
        yield gw, payloads


def get_json(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestTracePropagation:
    def test_one_request_leaves_a_complete_trace(self, gateway):
        gw, payloads = gateway
        with obs.activated():
            future = gw.submit_async(payloads[0])
            future.result(timeout=30)
            gw.drain()
            trace_id = future.trace_id
            assert trace_id is not None
            spans = obs.get_tracer().ring.trace(trace_id)
        names = {s.name for s in spans}
        assert EXPECTED_SPANS <= names, f"missing {EXPECTED_SPANS - names}"
        # One trace, coherent parentage: every non-root span's parent is
        # also in the trace.
        ids = {s.span_id for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["gateway.enqueue"]
        for s in spans:
            assert s.trace_id == trace_id
            if s.parent_id is not None:
                assert s.parent_id in ids

    def test_canary_routed_request_is_traced_with_role(
        self, served, single_store
    ):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        pool = ReplicaPool.from_store(store, app.name)
        with ServingGateway(
            pool, GatewayConfig(max_batch_size=4, max_wait_s=0.02)
        ) as gw:
            gw.set_canary(candidate.version, fraction=1.0)
            with obs.activated():
                future = gw.submit_async(payloads[0], request_id="canary-q")
                future.result(timeout=30)
                gw.drain()
                spans = obs.get_tracer().ring.trace(future.trace_id)
            by_name = {s.name: s for s in spans}
            assert EXPECTED_SPANS <= set(by_name)
            assert by_name["gateway.route"].attrs["role"] == "canary"
            assert by_name["gateway.batch"].attrs["role"] == "canary"

    def test_batchmates_share_the_batch_span_but_not_a_trace(self, gateway):
        gw, payloads = gateway
        with obs.activated():
            futures = [gw.submit_async(p) for p in payloads[:4]]
            for f in futures:
                f.result(timeout=30)
            gw.drain()
            trace_ids = {f.trace_id for f in futures}
            assert len(trace_ids) == 4  # one trace per request
            ring = obs.get_tracer().ring
            for f in futures:
                names = {s.name for s in ring.trace(f.trace_id)}
                assert "gateway.batch" in names and "gateway.enqueue" in names

    def test_sampling_thins_traces_but_not_telemetry(self, gateway):
        gw, payloads = gateway
        obs.enable(sample_every=4)
        try:
            futures = [gw.submit_async(payloads[0]) for _ in range(8)]
            for f in futures:
                f.result(timeout=30)
            gw.drain()
            traced = [f.trace_id for f in futures if f.trace_id is not None]
            assert len(traced) == 2  # 8 requests / sample_every=4
            # Metrics still saw every request.
            counter = gw.telemetry.metrics.get("repro_gateway_requests_total")
            total = sum(v for _, v in counter.samples())
            assert total >= 8
        finally:
            obs.disable()
            obs.get_tracer().ring.clear()
            obs.get_tracer().sample_every = 1
            obs.get_registry().reset()

    def test_disabled_obs_leaves_no_trace(self, gateway):
        gw, payloads = gateway
        assert not obs.is_active()
        future = gw.submit_async(payloads[0])
        future.result(timeout=30)
        assert future.trace_id is None
        assert len(obs.get_tracer().ring) == 0


class TestHTTPExposition:
    def test_trace_endpoint_serves_the_acceptance_path(self, gateway):
        gw, payloads = gateway
        with obs.activated(), AsyncGatewayServer(gw, port=0) as http:
            future = gw.submit_async(payloads[0])
            future.result(timeout=30)
            gw.drain()
            status, body = get_json(f"{http.url}/trace/{future.trace_id}")
            assert status == 200
            assert body["trace_id"] == future.trace_id
            names = {s["name"] for s in body["spans"]}
            assert EXPECTED_SPANS <= names
            for span in body["spans"]:
                assert span["duration_s"] >= 0

    def test_trace_endpoint_404s_unknown_ids(self, gateway):
        gw, _ = gateway
        with AsyncGatewayServer(gw, port=0) as http:
            status, body = get_json(f"{http.url}/trace/0xdeadbeef")
            assert status == 404 and "error" in body

    def test_metrics_endpoint_renders_per_tier_histograms(self, gateway):
        gw, payloads = gateway
        with obs.activated(), AsyncGatewayServer(gw, port=0) as http:
            for future in [gw.submit_async(p) for p in payloads[:4]]:
                future.result(timeout=30)
            gw.drain()
            with urllib.request.urlopen(
                f"{http.url}/metrics", timeout=30
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == obs.CONTENT_TYPE
                text = response.read().decode("utf-8")
        assert "# TYPE repro_gateway_requests_total counter" in text
        assert "# TYPE repro_gateway_request_latency_seconds histogram" in text
        assert 'repro_gateway_request_latency_seconds_bucket{tier="default",le="+Inf"} 4' in text
        assert 'repro_gateway_requests_total{tier="default",role="stable",result="ok"} 4' in text
        # Parseable: every non-comment line is "name{labels} value".
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value) if value not in ("+Inf", "-Inf") else None

    def test_predict_response_carries_trace_header(self, gateway):
        gw, payloads = gateway
        with obs.activated(), AsyncGatewayServer(gw, port=0) as http:
            request = urllib.request.Request(
                f"{http.url}/predict",
                data=json.dumps(payloads[0]).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                trace_id = response.headers["X-Trace-Id"]
                assert response.status == 200
            assert trace_id
            gw.drain()
            assert obs.get_tracer().ring.trace(trace_id)
