"""Tests for backend export and the serving profiler."""

import numpy as np
import pytest

from repro.api import Endpoint
from repro.core import ModelConfig, PayloadConfig, TrainerConfig
from repro.deploy import (
    BACKENDS,
    ModelArtifact,
    SLA,
    build_program_graph,
    export_backend_skeleton,
    profile_predictor,
    sla_gate,
)
from repro.errors import CompilationError, DeploymentError
from repro.model import compile_from_dataset

from tests.fixtures import factoid_schema, mini_dataset


def config(encoder="lstm"):
    return ModelConfig(
        payloads={
            "tokens": PayloadConfig(encoder=encoder, size=8),
            "query": PayloadConfig(size=8, aggregation="max"),
            "entities": PayloadConfig(size=8),
        },
        trainer=TrainerConfig(epochs=1),
    )


class TestProgramGraph:
    def test_covers_all_payloads_and_tasks(self):
        graph = build_program_graph(factoid_schema(), config())
        names = {n.name for n in graph.nodes}
        assert "input:tokens" in names
        assert "encode:tokens" in names
        assert "encode:query" in names
        assert "encode:entities" in names
        for task in ("POS", "EntityType", "Intent", "IntentArg"):
            assert f"head:{task}" in names

    def test_dataflow_edges_follow_schema(self):
        graph = build_program_graph(factoid_schema(), config())
        assert graph.node("encode:query").inputs == ["encode:tokens"]
        assert "encode:tokens" in graph.node("encode:entities").inputs
        assert graph.node("head:Intent").inputs == ["encode:query"]

    def test_encoder_choice_from_config(self):
        graph = build_program_graph(factoid_schema(), config(encoder="cnn"))
        assert graph.node("encode:tokens").op == "cnn"
        assert graph.node("encode:query").op == "max"

    def test_topological_order(self):
        graph = build_program_graph(factoid_schema(), config())
        order = [n.name for n in graph.topological()]
        assert order.index("encode:tokens") < order.index("encode:query")
        assert order.index("encode:query") < order.index("head:Intent")

    def test_json_serializable(self):
        import json

        graph = build_program_graph(factoid_schema(), config())
        parsed = json.loads(graph.to_json())
        assert len(parsed) == len(graph.nodes)

    def test_unknown_node(self):
        graph = build_program_graph(factoid_schema(), config())
        with pytest.raises(CompilationError):
            graph.node("ghost")

    def test_raw_singleton_payload(self):
        from repro.core import Schema

        schema = Schema.from_dict(
            {
                "payloads": {"feat": {"type": "singleton", "dim": 3}},
                "tasks": {
                    "T": {"payload": "feat", "type": "multiclass", "classes": ["a", "b"]}
                },
            }
        )
        graph = build_program_graph(schema, ModelConfig())
        assert graph.node("encode:feat").op == "project"


class TestBackendSkeletons:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_backends_emit(self, backend):
        graph = build_program_graph(factoid_schema(), config())
        text = export_backend_skeleton(graph, backend)
        assert backend in text
        assert "head_Intent" in text

    def test_backend_specific_ops(self):
        graph = build_program_graph(factoid_schema(), config(encoder="lstm"))
        tf = export_backend_skeleton(graph, "tensorflow")
        torch = export_backend_skeleton(graph, "pytorch")
        assert "tf.keras.layers.LSTM" in tf
        assert "torch.nn.LSTM" in torch

    def test_unknown_backend(self):
        graph = build_program_graph(factoid_schema(), config())
        with pytest.raises(CompilationError):
            export_backend_skeleton(graph, "mxnet")


def make_predictor():
    ds = mini_dataset(n=20, seed=0)
    model, vocabs = compile_from_dataset(
        ds,
        ModelConfig(
            payloads={
                "tokens": PayloadConfig(encoder="bow", size=8),
                "query": PayloadConfig(size=8),
                "entities": PayloadConfig(size=8),
            },
            trainer=TrainerConfig(epochs=1),
        ),
    )
    artifact = ModelArtifact.from_model(model, vocabs)
    payloads = [
        {"tokens": r.payloads["tokens"], "entities": r.payloads["entities"]}
        for r in ds.records[:10]
    ]
    return Endpoint(artifact, strict=False, micro_batch_size=None), payloads


class TestProfiler:
    def test_profile_shape(self):
        predictor, payloads = make_predictor()
        profile = profile_predictor(predictor, payloads, warmup=1)
        assert profile.n_requests == 10
        assert 0 < profile.p50 <= profile.p95 <= profile.p99
        assert profile.throughput_rps > 0
        assert set(profile.to_dict()) == {
            "n_requests", "p50", "p95", "p99", "mean", "throughput_rps",
        }

    def test_empty_payloads_rejected(self):
        predictor, _ = make_predictor()
        with pytest.raises(DeploymentError):
            profile_predictor(predictor, [])

    def test_sla_gate_passes_generous_sla(self):
        predictor, payloads = make_predictor()
        passed, profile, violations = sla_gate(
            predictor, payloads, SLA(p95_seconds=60.0)
        )
        assert passed
        assert violations == []

    def test_sla_gate_fails_impossible_sla(self):
        predictor, payloads = make_predictor()
        passed, _, violations = sla_gate(
            predictor, payloads, SLA(p95_seconds=1e-9, p99_seconds=1e-9)
        )
        assert not passed
        assert len(violations) == 2

    def test_warmup_longer_than_payloads_is_fine(self):
        predictor, payloads = make_predictor()
        profile = profile_predictor(predictor, payloads[:2], warmup=10)
        assert profile.n_requests == 2

    def test_sla_p99_optional(self):
        violations = SLA(p95_seconds=1e-9).check(
            profile_predictor(*make_predictor())
        )
        assert len(violations) == 1 and "p95" in violations[0]


class TestProfilerSpans:
    def test_profile_emits_one_run_span_with_request_children(self):
        import repro.obs as obs

        predictor, payloads = make_predictor()
        with obs.activated():
            profile_predictor(predictor, payloads, warmup=1)
            ring = obs.get_tracer().ring
            (root,) = [s for s in ring.spans() if s.name == "profile.run"]
            children = [s for s in ring.spans() if s.name == "profile.request"]
            assert root.attrs == {"n_requests": len(payloads)}
            assert len(children) == len(payloads)
            assert [c.attrs["index"] for c in children] == list(range(len(payloads)))
            for child in children:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                # record() reuses the profiler's own measured timestamps,
                # so child spans are strictly timed and non-negative.
                assert child.end_s >= child.start_s

    def test_profile_spans_reach_jsonl_exporter(self, tmp_path):
        import repro.obs as obs

        predictor, payloads = make_predictor()
        path = tmp_path / "profile.jsonl"
        exporter = obs.JsonlSpanExporter(path)
        tracer = obs.get_tracer()
        tracer.add_exporter(exporter)
        try:
            with obs.activated():
                profile_predictor(predictor, payloads[:3], warmup=1)
        finally:
            tracer.remove_exporter(exporter)
        names = [row["name"] for row in obs.JsonlSpanExporter.read(path)]
        assert names.count("profile.run") == 1
        assert names.count("profile.request") == 3

    def test_disabled_tracing_profiles_cleanly(self):
        import repro.obs as obs

        assert not obs.is_active()
        predictor, payloads = make_predictor()
        profile = profile_predictor(predictor, payloads, warmup=1)
        assert profile.n_requests == len(payloads)
        assert len(obs.get_tracer().ring) == 0
