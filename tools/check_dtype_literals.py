#!/usr/bin/env python
"""Dtype lint: no bare ``np.float64`` literals outside the backend module,
and no dtype-less array allocations in the compute stack.

The dtype policy (:mod:`repro.tensor.backend`) owns float precision for the
whole compute stack; a scattered ``dtype=np.float64`` silently pins one code
path to double precision and breaks float32 training/serving in ways only a
slow numeric test would catch.  This lint fails (exit 1) on any
``np.float64`` / ``numpy.float64`` attribute reference in ``src/repro``
outside the one module allowed to define what "float64" means.

Use ``repro.tensor.backend.default_dtype()`` (policy-driven allocation),
an existing array's ``.dtype`` (dtype-preserving math), or plain ``float``
(deliberately double-precision, e.g. the label model) instead.

The same goes the other way: an ``np.zeros`` / ``np.ones`` / ``np.empty``
without ``dtype=`` is float64 whatever the policy, so one such pad in a
float32 forward promotes everything it touches (the slice head's attention
pad did exactly that).  In the compute stack (``nn/``, ``slicing/``,
``model/``, ``tensor/``) every such call must name its dtype, except the
few on :data:`ALLOCATION_ALLOWLIST`, which may only shrink.

Runs standalone or via the tier-1 suite (``tests/test_dtype_literals.py``):

    python tools/check_dtype_literals.py              # lint src/repro
    python tools/check_dtype_literals.py --root PATH  # lint another tree
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TARGET = ROOT / "src" / "repro"

# The only module allowed to spell out float64: it defines the policy.
ALLOWED = ("tensor", "backend.py")

_NUMPY_NAMES = {"np", "numpy"}
_BANNED_ATTRS = {"float64", "float32"}

# Packages (under the linted root) whose allocations must name a dtype.
ALLOCATING_PACKAGES = ("nn", "slicing", "model", "tensor")
_ALLOCATORS = {"zeros", "ones", "empty"}
# Dtype-less allocations that stay float64 on purpose: (module, call).
# Fix an entry rather than add one; tests/test_dtype_literals.py fails on a
# stale entry, so the list can only shrink.
ALLOCATION_ALLOWLIST = frozenset(
    {
        # An empty registry's saved matrix: a file, not a forward input.
        ("model/embeddings_registry.py", "np.zeros((0, self.dim))"),
        # Slice membership indicators, exact 0/1 in either precision.
        ("slicing/slice.py", "np.zeros((len(records), len(self.slices)))"),
    }
)


def _is_allowed(path: Path, root: Path) -> bool:
    return path.relative_to(root).parts[-len(ALLOWED):] == ALLOWED


def violations_in(path: Path) -> list[str]:
    """Banned dtype-literal references in one module, as readable strings."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}: cannot parse: {exc}"]
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _BANNED_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in _NUMPY_NAMES
        ):
            found.append(
                (
                    node.lineno,
                    f"{path}:{node.lineno}: bare {node.value.id}.{node.attr} — "
                    "use repro.tensor.backend.default_dtype(), an array's "
                    ".dtype, or plain float",
                )
            )
    return [message for _, message in sorted(found)]


def dtypeless_allocations(path: Path) -> list[tuple[int, str]]:
    """``(line, call source)`` of each ``np.zeros/ones/empty`` without dtype=."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return []  # violations_in reports it
    return sorted(
        (node.lineno, ast.get_source_segment(source, node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ALLOCATORS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in _NUMPY_NAMES
        and not any(kw.arg == "dtype" for kw in node.keywords)
    )


def check_tree(root: Path) -> list[str]:
    """All violations under ``root``, in deterministic path order."""
    problems: list[str] = []
    for path in sorted(root.rglob("*.py")):
        if _is_allowed(path, root):
            continue
        problems.extend(violations_in(path))
        module = path.relative_to(root)
        if module.parts[0] not in ALLOCATING_PACKAGES:
            continue
        problems.extend(
            f"{path}:{line}: dtype-less allocation `{call}` — pass dtype= "
            "(default_dtype() or an array's .dtype)"
            for line, call in dtypeless_allocations(path)
            if (module.as_posix(), call) not in ALLOCATION_ALLOWLIST
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=str(DEFAULT_TARGET))
    args = parser.parse_args(argv)
    problems = check_tree(Path(args.root))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} dtype-literal problem(s)", file=sys.stderr)
        return 1
    print("dtype literals: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
