"""Smoke tests: the shipped examples must keep running.

Only the two fastest examples run in the unit suite; the *full* set runs
when ``REPRO_SMOKE=1`` is set (CI's smoke job, or ``python
tools/smoke_examples.py``).  Each example executes in a subprocess with
``PYTHONPATH=src``, exactly as a user would run it from a checkout.
"""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = ROOT / "examples"

# The one subprocess-with-PYTHONPATH runner lives in the smoke tool; import
# it from there so the launch recipe cannot diverge between CI and the tool.
_spec = importlib.util.spec_from_file_location(
    "smoke_examples", ROOT / "tools" / "smoke_examples.py"
)
smoke_examples = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke_examples)

EXPECTED_EXAMPLES = {
    "quickstart.py",
    "factoid_qa.py",
    "cold_start.py",
    "slice_improvement.py",
    "model_sync.py",
    "constrained_serving.py",
    "serving_gateway.py",
    "parallel_tuning.py",
}


def run_example(name: str) -> subprocess.CompletedProcess:
    return smoke_examples.run_subprocess(EXAMPLES_DIR / name, timeout=300)


@pytest.mark.parametrize("name", ["quickstart.py", "cold_start.py"])
def test_example_runs(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout  # examples narrate what they do


def test_quickstart_reports_serving_response():
    result = run_example("quickstart.py")
    assert "serving response" in result.stdout
    assert "Intent" in result.stdout


@pytest.mark.skipif(
    not os.environ.get("REPRO_SMOKE"),
    reason="full example smoke suite; set REPRO_SMOKE=1 to run every example",
)
@pytest.mark.parametrize("name", sorted(EXPECTED_EXAMPLES))
def test_example_smoke_full(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout


def test_all_examples_exist_and_have_docstrings():
    found = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert EXPECTED_EXAMPLES <= found
    for name in EXPECTED_EXAMPLES:
        text = (EXAMPLES_DIR / name).read_text()
        assert text.startswith('"""'), f"{name} needs a module docstring"
        assert "def main()" in text


def test_examples_use_the_lifecycle_api():
    """Shipped examples demonstrate the repro.api lifecycle surface."""
    for name in EXPECTED_EXAMPLES:
        text = (EXAMPLES_DIR / name).read_text()
        assert "repro.api" in text, f"{name} should import from repro.api"
