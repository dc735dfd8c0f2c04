"""Measurement conditions: paths, BLAS pinning, the host stamp.

Unpinned, a 2-worker pool on 2 cores oversubscribes the BLAS thread pool
and bulk throughput collapses unrepeatably (135-960 payloads/s against
2.5-5k pinned), so one BLAS thread per process is a benchmark condition:
the harness exports it to every child and refuses to measure from a
process that already loaded numpy without it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1]
ROOT = E2E_DIR.parents[1]
SRC = ROOT / "src"
PROGRAMS = E2E_DIR / "programs"
# Everything the benchmark writes lives here, inside the checkout.
WORK = ROOT / ".bench_work"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas() -> None:
    """Export one BLAS thread; refuse if numpy was loaded without it."""
    unpinned = [name for name in BLAS_ENV if os.environ.get(name) != "1"]
    if unpinned and "numpy" in sys.modules:
        raise SystemExit(
            "benchmark refused: numpy is already imported in this process "
            f"with {unpinned} unset; start the harness from a fresh interpreter"
        )
    for name in BLAS_ENV:
        os.environ[name] = "1"


def require_program() -> None:
    """Exit non-zero when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise SystemExit(
            f"benchmark refused: no program under {SRC / 'repro'}; run from a "
            "checkout of the repository"
        )


def child_env() -> dict[str, str]:
    """The environment of every process the harness launches."""
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cores() -> int:
    return len(os.sched_getaffinity(0))


_NUMPY_PROBE = (
    "import json, numpy as np\n"
    "blas = np.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {})\n"
    "print(json.dumps({'numpy': np.__version__, 'blas': blas.get('name', '?')"
    " + ' ' + str(blas.get('version', '?'))}))\n"
)


def host_stamp(seed: int, extra: dict) -> dict:
    """What a number means nothing without: host, interpreter, BLAS, commit."""
    probe = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    numpy_info = (
        json.loads(probe.stdout) if probe.returncode == 0 else {"numpy": "?", "blas": "?"}
    )
    commit = "unknown"  # the driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    stamp = {
        "cores": cores(),
        "python": platform.python_version(),
        "numpy": numpy_info["numpy"],
        "blas": numpy_info["blas"],
        "blas_threads": 1,
        "commit": commit,
        "seed": seed,
    }
    stamp.update(extra)
    return stamp
