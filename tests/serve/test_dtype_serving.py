"""Float32 serving through the endpoint, pool, gateway, and telemetry.

The dtype policy's serving story: an artifact compiled in float64 can be
served in float32 (``dtype="float32"`` at every layer's constructor), hard
predictions agree with the float64 endpoint, and the active dtype is
visible everywhere an operator looks — endpoint, pool, gateway stats, and
per-tier telemetry.
"""

import numpy as np

from repro.api import Endpoint
from repro.serve import GatewayConfig, ReplicaPool, ServingGateway
from repro.tensor import default_dtype

from tests.serve.test_gateway import hard_outputs


class TestEndpointDtype:
    def test_float32_override_reports_and_matches(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, _ = single_store
        e64 = Endpoint.from_store(store, app.name, version=stable.version)
        e32 = Endpoint.from_store(
            store, app.name, version=stable.version, dtype="float32"
        )
        assert e64.dtype_name == "float64"
        assert e32.dtype_name == "float32"
        for payload in payloads[:8]:
            r64, r32 = e64.predict(payload), e32.predict(payload)
            assert hard_outputs(r64) == hard_outputs(r32)
            for task in r64:
                s64, s32 = r64[task].get("scores"), r32[task].get("scores")
                if isinstance(s64, dict):
                    for cls in s64:
                        assert abs(s64[cls] - s32[cls]) <= 1e-4
        # Serving in float32 never leaks the policy into the caller thread.
        assert default_dtype() == np.dtype("float64")

    def test_override_survives_refresh(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, _ = single_store
        endpoint = Endpoint.from_store(store, app.name, dtype="float32")
        endpoint.refresh()
        assert endpoint.dtype_name == "float32"


class TestPoolAndGatewayDtype:
    def test_pool_reports_per_tier_dtype(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        pool = ReplicaPool.from_store(store, app.name, dtype="float32")
        assert pool.dtypes() == {"default": "float32"}
        assert ReplicaPool.from_store(store, app.name).dtypes() == {
            "default": "float64"
        }

    def test_gateway_stats_and_telemetry_carry_dtype(self, served, single_store):
        app, ds, run, payloads = served
        store, *_ = single_store
        pool = ReplicaPool.from_store(store, app.name, dtype="float32")
        config = GatewayConfig(max_batch_size=4, max_wait_s=0.02)
        with ServingGateway(pool, config) as gateway:
            for payload in payloads[:4]:
                gateway.submit(payload)
            gateway.drain()
            stats = gateway.stats()
            assert stats["dtypes"] == {"default": "float32"}
            tier_stats = stats["telemetry"]["tiers"]["default"]
            assert tier_stats["dtype"] == "float32"
            assert "float32" in gateway.dashboard()

    def test_from_endpoint_carries_dtype_to_candidates(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        endpoint = Endpoint.from_store(store, app.name, dtype="float32")
        pool = ReplicaPool.from_endpoint(endpoint)
        assert pool.dtypes() == {"default": "float32"}
        pool.add_candidate(candidate.version)
        assert pool.replica("default", "candidate").endpoint.dtype_name == "float32"
        pool.clear_candidate()

    def test_candidate_inherits_pool_dtype(self, served, single_store):
        app, ds, run, payloads = served
        store, stable, candidate = single_store
        pool = ReplicaPool.from_store(store, app.name, dtype="float32")
        pool.add_candidate(candidate.version)
        replica = pool.replica("default", "candidate")
        assert replica.endpoint.dtype_name == "float32"
        pool.clear_candidate()
