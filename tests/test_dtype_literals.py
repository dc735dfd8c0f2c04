"""Tier-1 wiring for the dtype-literal lint (tools/check_dtype_literals.py).

The dtype policy only works if nothing re-pins precision with a bare
``np.float64``/``np.float32`` outside ``repro.tensor.backend``, and if the
compute stack allocates no dtype-less (so float64) arrays; this test keeps
the whole tree clean on every run, pins the lint's own detection logic with
known-bad snippets, and holds the allocation allowlist to what it is.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_dtype_literals import (
    ALLOCATION_ALLOWLIST,
    DEFAULT_TARGET,
    check_tree,
    dtypeless_allocations,
    violations_in,
)

# The allowlist may only shrink: lower this when an entry is fixed.
ALLOWLIST_CEILING = 2


def test_src_tree_has_no_bare_dtype_literals():
    assert check_tree(DEFAULT_TARGET) == []


def test_lint_catches_bare_literals(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "x = np.zeros(3, dtype=np.float64)\n"
        "y = np.float32(1.0)\n"
    )
    found = violations_in(bad)
    assert len(found) == 2
    assert "np.float64" in found[0] and "np.float32" in found[1]


def test_backend_module_is_exempt(tmp_path):
    tree = tmp_path / "tensor"
    tree.mkdir()
    (tree / "backend.py").write_text("import numpy as np\nF = np.float64\n")
    (tree / "other.py").write_text("import numpy as np\nF = np.float64\n")
    problems = check_tree(tmp_path)
    assert len(problems) == 1 and "other.py" in problems[0]


def test_lint_catches_dtypeless_allocations_in_the_compute_stack(tmp_path):
    for package in ("slicing", "data"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "mod.py").write_text(
            "import numpy as np\n"
            "a = np.zeros((3, 1))\n"
            "b = np.ones(2, dtype=a.dtype)\n"
            "c = np.empty(4)\n"
        )
    problems = check_tree(tmp_path)
    assert len(problems) == 2  # data/ is not linted for allocations
    assert "slicing" in problems[0] and "`np.zeros((3, 1))`" in problems[0]
    assert "`np.empty(4)`" in problems[1]


def test_allocation_allowlist_only_shrinks():
    """Every entry still names a live call (a fixed one must leave the
    list), and the list is no longer than it was."""
    assert len(ALLOCATION_ALLOWLIST) <= ALLOWLIST_CEILING
    for module, call in ALLOCATION_ALLOWLIST:
        calls = [c for _, c in dtypeless_allocations(DEFAULT_TARGET / module)]
        assert call in calls, f"stale allowlist entry {module}: {call}"
