"""Tests for the CLI entry points."""

import json

import pytest

from repro.cli import main

from tests.fixtures import factoid_schema, mini_dataset


@pytest.fixture()
def project(tmp_path):
    """A schema file + data file on disk, like a real engineer's project."""
    ds = mini_dataset(n=40, seed=0)
    schema_path = tmp_path / "schema.json"
    data_path = tmp_path / "data.jsonl"
    ds.schema.save(schema_path)
    ds.save(data_path)
    return {"schema": str(schema_path), "data": str(data_path), "tmp": tmp_path}


class TestValidate:
    def test_ok(self, project, capsys):
        code = main(["validate", "--schema", project["schema"], "--data", project["data"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: 40 records" in out
        assert "Intent" in out

    def test_bad_data_returns_error(self, project, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"payloads": {}, "tasks": {"Ghost": {"s": 1}}}\n')
        code = main(["validate", "--schema", project["schema"], "--data", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainReportPredict:
    def test_full_cli_loop(self, project, capsys):
        artifact_dir = str(project["tmp"] / "artifact")
        code = main(
            [
                "train",
                "--schema", project["schema"],
                "--data", project["data"],
                "--out", artifact_dir,
                "--epochs", "2",
                "--size", "8",
            ]
        )
        assert code == 0
        assert "artifact written" in capsys.readouterr().out

        code = main(
            ["report", "--artifact", artifact_dir, "--data", project["data"], "--tags", "test"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

        request = project["tmp"] / "request.json"
        request.write_text(
            json.dumps(
                {
                    "tokens": ["how", "tall", "is", "paris"],
                    "entities": [{"id": "paris", "range": [3, 4]}],
                }
            )
        )
        code = main(["predict", "--artifact", artifact_dir, "--request", str(request)])
        assert code == 0
        response = json.loads(capsys.readouterr().out.strip())
        assert "Intent" in response

    def test_predict_batch_request(self, project, capsys):
        artifact_dir = str(project["tmp"] / "artifact2")
        main(
            [
                "train",
                "--schema", project["schema"],
                "--data", project["data"],
                "--out", artifact_dir,
                "--epochs", "1",
                "--size", "8",
            ]
        )
        capsys.readouterr()
        request = project["tmp"] / "batch.json"
        request.write_text(
            json.dumps([{"tokens": ["how", "old", "is", "obama"]}] * 2)
        )
        code = main(["predict", "--artifact", artifact_dir, "--request", str(request)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


class TestTune:
    @pytest.fixture()
    def tuning_spec(self, project):
        spec_path = project["tmp"] / "tuning.json"
        spec_path.write_text(
            json.dumps(
                {
                    "payloads": {"tokens": {"encoder": ["bow", "cnn"]}},
                    "trainer": {"epochs": [2]},
                }
            )
        )
        return str(spec_path)

    def test_tune_prints_best_and_coverage(self, project, tuning_spec, capsys):
        artifact_dir = str(project["tmp"] / "tuned")
        code = main(
            [
                "tune",
                "--schema", project["schema"],
                "--data", project["data"],
                "--spec", tuning_spec,
                "--out", artifact_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated 2 trials" in out
        # One inline worker: the winner's trial model is returned, not refit.
        assert "2 trained, 0 from cache; best model kept from its trial" in out
        assert "best dev score" in out
        assert "tokens.encoder" in out  # coverage report
        assert "coverage: 100%" in out
        assert (project["tmp"] / "tuned" / "model.json").exists() or any(
            (project["tmp"] / "tuned").iterdir()
        )

    def test_tune_workers_and_cache_resume(self, project, tuning_spec, capsys):
        cache_dir = str(project["tmp"] / "trial-cache")
        argv = [
            "tune",
            "--schema", project["schema"],
            "--data", project["data"],
            "--spec", tuning_spec,
            "--workers", "2",
            "--cache-dir", cache_dir,
            "--no-coverage",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 trained, 0 from cache; best model retrained" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 trained, 2 from cache; best model restored from cache" in second
        # Same search, same winner, trials skipped the second time.
        assert first.splitlines()[1] == second.splitlines()[1]

    def test_tune_requires_spec_file(self, project, capsys):
        code = main(
            [
                "tune",
                "--schema", project["schema"],
                "--data", project["data"],
                "--spec", str(project["tmp"] / "missing.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_tune_rejects_malformed_spec_json(self, project, capsys):
        bad = project["tmp"] / "broken.json"
        bad.write_text("{not json")
        code = main(
            [
                "tune",
                "--schema", project["schema"],
                "--data", project["data"],
                "--spec", str(bad),
            ]
        )
        assert code == 1
        assert "cannot read TuningSpec" in capsys.readouterr().err


class TestServe:
    def _trained_artifact(self, project) -> str:
        artifact_dir = str(project["tmp"] / "serve-artifact")
        main(
            [
                "train",
                "--schema", project["schema"],
                "--data", project["data"],
                "--out", artifact_dir,
                "--epochs", "1",
                "--size", "8",
            ]
        )
        return artifact_dir

    def test_serve_artifact_until_deadline(self, project, capsys):
        artifact_dir = self._trained_artifact(project)
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--artifact", artifact_dir,
                "--port", "0",
                "--poll-seconds", "0",
                "--max-seconds", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out and "http://" in out
        assert "POST /predict" in out
        assert "requests: 0" in out  # the final dashboard rendered

    def test_serve_from_store(self, project, capsys):
        """The --store/--model path (what production rollout uses)."""
        artifact_dir = self._trained_artifact(project)
        from repro.deploy import ModelArtifact, ModelStore

        store = ModelStore(project["tmp"] / "store")
        store.push("factoid-qa", ModelArtifact.load(artifact_dir))
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--store", str(project["tmp"] / "store"),
                "--model", "factoid-qa",
                "--port", "0",
                "--poll-seconds", "0.1",
                "--max-seconds", "0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving default@" in out

    def test_batching_flags_default_to_the_gateway_config(self):
        from repro.cli import build_parser
        from repro.serve import GatewayConfig

        config = GatewayConfig()
        assert config.max_wait_s == 0  # work-conserving unless opted out
        autopilot = ["autopilot", "--store", "s", "--model", "m", "--data", "d.jsonl"]
        for argv in (["serve"], autopilot):
            args = build_parser().parse_args(argv)
            assert args.max_wait_ms == config.max_wait_s * 1000.0
            assert args.batch == config.max_batch_size

    def test_sigterm_before_the_wait_loop_is_a_clean_stop(
        self, project, capsys, monkeypatch
    ):
        """The signal lands while the server is still starting — before the
        main thread is anywhere near its wait loop — and must still unwind
        server, gateway and pool in order and exit 0."""
        import os
        import signal

        from repro.serve import AsyncGatewayServer

        artifact_dir = self._trained_artifact(project)
        capsys.readouterr()
        plain_start = AsyncGatewayServer.start
        servers = []

        def start_then_sigterm(self):
            plain_start(self)
            servers.append(self)
            os.kill(os.getpid(), signal.SIGTERM)
            return self

        monkeypatch.setattr(AsyncGatewayServer, "start", start_then_sigterm)
        previous = signal.getsignal(signal.SIGTERM)
        code = main(["serve", "--artifact", artifact_dir, "--port", "0"])
        assert code == 0
        assert signal.getsignal(signal.SIGTERM) is previous  # handler restored
        out = capsys.readouterr().out
        assert "serving" in out
        assert "requests: 0" in out  # the final dashboard: it unwound in order
        [server] = servers
        assert server.gateway._stopped and server._thread is None

    def test_sigterm_right_after_the_serving_line_exits_zero(self, project):
        import os
        import signal
        import subprocess
        import sys

        artifact_dir = self._trained_artifact(project)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", artifact_dir, "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(sys.path),
                "PYTHONUNBUFFERED": "1",
            },
        )
        try:
            lines = []
            for line in child.stdout:
                lines.append(line)
                if line.startswith("serving "):
                    child.send_signal(signal.SIGTERM)
                    break
            rest, _ = child.communicate(timeout=30)
        finally:
            child.kill()
        output = "".join(lines) + rest
        assert child.returncode == 0, output
        assert "Traceback" not in output
        assert "requests: 0" in output  # drained and rendered on the way out

    def test_threaded_http_front_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--artifact", "a", "--http", "threaded"])
        assert excinfo.value.code == 2
        assert "--http" in capsys.readouterr().err

    def test_serve_requires_a_model_source(self, capsys):
        code = main(["serve", "--port", "0"])
        assert code == 1
        assert "--artifact" in capsys.readouterr().err


class TestAutopilotPolicy:
    """A typo in a policy file is a one-line error naming the key."""

    @pytest.fixture()
    def store(self, project):
        from repro.core import ModelConfig, PayloadConfig
        from repro.deploy import ModelArtifact, ModelStore
        from repro.model import compile_from_dataset

        dataset = mini_dataset(n=40, seed=0)
        config = ModelConfig(payloads={"tokens": PayloadConfig(size=8)})
        model, vocabs = compile_from_dataset(dataset, config, seed=0)
        root = project["tmp"] / "store"
        ModelStore(root).push("factoid-qa", ModelArtifact.from_model(model, vocabs))
        return str(root)

    @pytest.mark.parametrize(
        "policy, key",
        [
            ({"cooldown": 60}, "cooldown"),
            ({"gate": {"max_disagreement": 0.1}}, "max_disagreement"),
            ({"retrain": {"candidates": [{"trainr": {"epochs": 1}}]}}, "trainr"),
        ],
        ids=["top-level", "nested", "candidate-config"],
    )
    def test_typo_exits_1_naming_the_key(self, project, store, policy, key, capsys):
        path = project["tmp"] / "policy.json"
        path.write_text(json.dumps(policy))
        code = main(
            [
                "autopilot",
                "--schema", project["schema"],
                "--data", project["data"],
                "--store", store,
                "--model", "factoid-qa",
                "--policy", str(path),
                "--max-seconds", "0.1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"'{key}'" in err


class TestQuery:
    def test_tag_count(self, project, capsys):
        code = main(
            ["query", "--schema", project["schema"], "--data", project["data"], "--tag", "train"]
        )
        assert code == 0
        assert "records match" in capsys.readouterr().out

    def test_label_distribution(self, project, capsys):
        code = main(
            [
                "query",
                "--schema", project["schema"],
                "--data", project["data"],
                "--task", "Intent",
                "--source", "gold",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "label distribution" in out

    def test_conflicting_and_show(self, project, capsys):
        code = main(
            [
                "query",
                "--schema", project["schema"],
                "--data", project["data"],
                "--conflicting", "Intent",
                "--show", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "payloads" in out


class TestObs:
    @pytest.fixture()
    def obs_server(self):
        """A stub gateway HTTP server exposing /metrics and /trace/<id>."""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        metrics_text = (
            "# HELP repro_gateway_requests_total Requests\n"
            "# TYPE repro_gateway_requests_total counter\n"
            'repro_gateway_requests_total{tier="default"} 7\n'
        )
        trace_body = {
            "trace_id": "0xabc",
            "spans": [
                {
                    "trace_id": "0xabc", "span_id": "s1", "parent_id": None,
                    "name": "gateway.enqueue", "start_s": 0.0, "end_s": 0.01,
                    "duration_s": 0.01, "attrs": {},
                }
            ],
        }

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # noqa: A002
                pass

            def do_GET(self):  # noqa: N802
                if self.path == "/metrics":
                    data, code = metrics_text.encode(), 200
                elif self.path == "/trace/0xabc":
                    data, code = json.dumps(trace_body).encode(), 200
                else:
                    data, code = b'{"error": "nope"}', 404
                self.send_response(code)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()

    def test_metrics_passthrough(self, obs_server, capsys):
        code = main(["obs", "--url", obs_server, "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert 'repro_gateway_requests_total{tier="default"} 7' in out

    def test_trace_renders_flame_panel(self, obs_server, capsys):
        code = main(["obs", "--url", obs_server, "--trace", "0xabc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace 0xabc" in out and "gateway.enqueue" in out

    def test_unknown_trace_is_an_error(self, obs_server, capsys):
        code = main(["obs", "--url", obs_server, "--trace", "0xmissing"])
        assert code != 0
        assert "404" in capsys.readouterr().err

    def test_tail_prints_journal_entries(self, tmp_path, capsys):
        from repro.autopilot import DecisionJournal

        journal = DecisionJournal(tmp_path / "journal.jsonl")
        for i in range(5):
            journal.record("tick", index=i)
        code = main(
            ["obs", "--tail", str(tmp_path / "journal.jsonl"), "-n", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(l)["detail"]["index"] for l in lines] == [3, 4]

    def test_no_action_is_an_error(self, capsys):
        code = main(["obs"])
        assert code != 0
        assert "nothing to do" in capsys.readouterr().err


class TestSynth:
    def test_list_names_every_workload(self, capsys):
        code = main(["synth", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("factoid", "synth-easy", "synth-drift-storm"):
            assert name in out

    def test_inspect_preset_prints_spec_and_difficulty(self, capsys):
        code = main(["synth", "--preset", "synth-medium", "--inspect"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "predicted difficulty" in out
        assert '"label_noise": 0.2' in out

    def test_export_and_materialize_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        data_path = tmp_path / "data.jsonl"
        schema_path = tmp_path / "schema.json"
        code = main(
            [
                "synth",
                "--preset",
                "synth-easy",
                "--scale",
                "30",
                "--out",
                str(spec_path),
                "--materialize",
                str(data_path),
                "--schema-out",
                str(schema_path),
            ]
        )
        assert code == 0
        assert "30 records written" in capsys.readouterr().out
        # The materialized dataset validates against its own schema ...
        code = main(
            ["validate", "--schema", str(schema_path), "--data", str(data_path)]
        )
        assert code == 0
        # ... and the exported spec regenerates the identical file.
        from repro.workloads.synth import SynthGenerator, WorkloadSpec

        spec = WorkloadSpec.from_file(spec_path)
        regen = tmp_path / "regen.jsonl"
        SynthGenerator(spec).write_jsonl(regen, spec.n)
        assert regen.read_text() == data_path.read_text()

    def test_unknown_preset_is_an_error(self, capsys):
        code = main(["synth", "--preset", "synth-imaginary"])
        assert code != 0
        assert "unknown preset" in capsys.readouterr().err

    def test_no_action_defaults_to_inspect(self, capsys):
        code = main(["synth", "--preset", "synth-hard", "--scale", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"n": 20' in out
        assert "record 0 payload tokens:" in out
