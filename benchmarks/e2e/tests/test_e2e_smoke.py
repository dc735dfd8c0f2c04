"""End-to-end smokes: the entry point on every workload, and the traced
server against the CLI server it stands in for."""

import http.client
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))

from harness import env, loadgen, metrics, procs, serve_workload  # noqa: E402

WORKLOADS = ("serve_light", "serve_heavy_pool", "fit", "tune")


def _entry_point(workload: str, trace: int) -> subprocess.Popen:
    # A fresh interpreter, as the driver starts it (pytest's own process
    # has numpy loaded, which the harness refuses to measure from).
    return subprocess.Popen(
        [sys.executable, str(E2E / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_quick_smoke_of_every_workload_untraced_and_traced():
    # All at once: a smoke checks outputs, not speed.  The traced pool run
    # is left to a full run — it stops two pools, ten seconds each.
    runs = {(w, 0): _entry_point(w, 0) for w in WORKLOADS}
    runs.update({(w, 1): _entry_point(w, 1) for w in WORKLOADS if w != "serve_heavy_pool"})
    for (workload, trace), proc in runs.items():
        out, err = proc.communicate(timeout=170)
        assert proc.returncode == 0, f"{workload} trace={trace}:\n{out}\n{err}"
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, out
        assert result["attempted"] >= 1
        declared = metrics.PER_LAYER if trace else metrics.END_TO_END
        assert list(result["metrics"]) == [m[0] for m in declared]
        for (name, unit, *_), entry in zip(declared, result["metrics"].values()):
            assert entry["unit"] == unit
            assert isinstance(entry["value"], float) and entry["value"] == entry["value"]
            if not trace:
                assert entry["value"] > 0, name
    assert not list(env.WORK.glob("*-*")), "a run left its work directory behind"


def test_refuses_a_directory_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(E2E, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program" in proc.stderr


@pytest.fixture()
def prepared(tmp_path):
    sizes = serve_workload.SERVE_LIGHT.quick()
    pool, _ = serve_workload._prepare(sizes, 5, tmp_path)
    return sizes, pool, tmp_path


def test_traced_server_answers_like_the_cli_server(prepared):
    sizes, pool, work = prepared
    cli = serve_workload._cli_server(sizes, work)
    traced = procs.Server(
        [sys.executable, str(env.PROGRAMS / "traced_server.py"),
         "--artifact", str(work / "artifact"), "--workers", "0",
         "--warmup", str(work / "warmup.json"),
         "--spans-out", str(work / "spans.json")],
        stdin=True,
    )
    try:
        health = []
        for server in (cli, traced):
            status, body = server.get("/healthz")
            assert status == 200
            doc = json.loads(body)
            doc.pop("uptime_s")
            health.append(doc)
        assert health[0] == health[1]
        assert health[0]["status"] == "ok"

        answers = []
        for server in (cli, traced):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            got = []
            for body in (
                json.dumps({"payload": pool.payloads[0], "request_id": "q-1"}),
                json.dumps(pool.payloads[:5]),
                json.dumps({"payload": {"bogus": 1}}),
            ):
                conn.request("POST", "/predict", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                got.append((response.status, json.loads(response.read())))
            conn.close()
            answers.append(got)
        assert [status for status, _ in answers[0]] == [200, 200, 400]
        for (cli_status, cli_body), (status, body) in zip(*answers):
            # Scores may differ in the last digits if the five-payload POST
            # was batched differently; everything else is identical.
            assert status == cli_status and loadgen.matches(body, cli_body)
        assert loadgen.matches(answers[1][0][1], pool.reference[0])

        assert cli.stop() == []
        assert traced.stop() == []
        names = {s["name"] for s in json.loads((work / "spans.json").read_text())["spans"]}
        assert {"gateway.submit", "future.settled", "replica.serve",
                "endpoint.encode", "endpoint.forward", "endpoint.finalize"} <= names
    finally:
        cli.child.kill_group()
        traced.child.kill_group()
