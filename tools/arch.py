#!/usr/bin/env python
"""Architecture check: one layer order, and no public code only tests reach.

Two facts about ``src/repro`` are held here as data and checked in the
tier-1 suite (``tests/test_arch.py``):

1. **The layer order** (:data:`LAYERS`).  Packages are listed bottom up;
   packages joined by a comma share a layer.  A runtime import, at module
   level or inside a function, may point at its own layer or one below
   it, never above.  An import under ``if TYPE_CHECKING:`` is an
   annotation, not an edge.  A package missing from the order is reported
   too, so a new package has to say where it sits.
2. **Reachability from the entry points.**  A public top-level function or
   class is live when a body reached from an entry point refers to its
   name.  The entry points are ``repro/cli.py``, ``repro/__main__.py``,
   the names in ``repro.__all__``, and every file under ``examples/`` and
   ``benchmarks/``.  The module-level statements of every ``src/repro``
   module are reached too, but an import or an ``__all__`` entry is not a
   reference.  A live name's whole body is reached in turn.  Names are
   matched by spelling alone, so a dead name that shares its spelling
   with a live one goes unseen, and code reached only through a string
   (``getattr``) is reported.  A public name that no entry reaches is
   reported unless :data:`REACH_ALLOWLIST` gives a reason to keep it; an
   entry there that is reached, or names nothing, is reported as stale.

Run standalone (``python tools/arch.py``) or through the tier-1 suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = (
    "errors < core < tensor < nn < obs, faults < data < slicing < model"
    " < supervision < optim < training < monitoring < tuning < exec"
    " < deploy < api < serve < workloads < autopilot < baselines < cli"
)

# Public names no entry point reaches that stay on purpose, keyed by
# "path under src:name".  Delete code rather than add an entry; a stale
# entry fails the check, and tests/test_arch.py caps the count, so the
# list can only shrink.
REACH_ALLOWLIST: dict[str, str] = {
    "repro/autopilot/soak.py:run_soak": (
        "the deterministic drift and chaos soak of the supervisor; "
        "tests/autopilot/test_soak.py drives it and docs/robustness.md "
        "documents it"
    ),
}

# Each package's position in the order, bottom layer first.
_RANKS = {
    name.strip(): rank
    for rank, layer in enumerate(LAYERS.split("<"))
    for name in layer.split(",")
}


def _layer(module: str) -> str:
    """The package a dotted ``repro`` module belongs to.  The package's own
    front doors, ``repro/__init__.py`` and ``__main__.py``, sit with the CLI."""
    parts = module.split(".")
    if len(parts) == 1 or parts[1] in ("__init__", "__main__"):
        return "cli"
    return parts[1]


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST):
    """Every import node that runs, skipping ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _import_targets(node: ast.stmt, package: list[str]) -> list[str]:
    """Dotted modules one import statement names, from inside ``package``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = package[: len(package) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    if base == "repro":
        # ``from repro import data`` names a package; ``from repro import
        # Dataset`` names the front door.
        return [
            f"repro.{alias.name}" if alias.name in _RANKS else "repro"
            for alias in node.names
        ]
    return [base]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def layer_violations(root: Path = ROOT) -> list[str]:
    """Every runtime import under ``root/src/repro`` that goes up the order."""
    src = root / "src"
    problems = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).with_suffix("").parts
        own = _layer(".".join(module))
        where = path.relative_to(root)
        if own not in _RANKS:
            problems.append(f"{where}:1: package {own!r} is not in the layer order")
            continue
        imports = sorted(_runtime_imports(_parse(path)), key=lambda n: n.lineno)
        for node in imports:
            for target in _import_targets(node, list(module[:-1])):
                if target.split(".")[0] != "repro":
                    continue
                other = _layer(target)
                if _RANKS.get(other, -1) > _RANKS[own]:
                    problems.append(
                        f"{where}:{node.lineno}: {own} imports {target}, "
                        f"which sits above it ({other})"
                    )
    return problems


def _names(node: ast.AST) -> set[str]:
    """Every identifier a node refers to, as a name or an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _exported(init: Path) -> set[str]:
    for node in _parse(init).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _closure(seeds: set[str], bodies: dict[str, list[ast.AST]]) -> set[str]:
    """Every name ``seeds`` refer to, through the bodies of the defs named."""
    frontier, live = list(seeds), set()
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            for node in bodies.get(name, ()):
                frontier.extend(_names(node) - live)
    return live


def reach_violations(
    root: Path = ROOT, allowlist: dict[str, str] = REACH_ALLOWLIST
) -> list[str]:
    """Public top-level names under ``root/src/repro`` no entry reaches."""
    src = root / "src"
    bodies: dict[str, list[ast.AST]] = {}
    public: dict[str, ast.AST] = {}
    reached = _exported(src / "repro" / "__init__.py")
    for path in sorted((src / "repro").rglob("*.py")):
        key = path.relative_to(src).as_posix()
        tree = _parse(path)
        if key in ("repro/cli.py", "repro/__main__.py"):
            reached |= _names(tree)
            continue
        for node in tree.body:
            if isinstance(node, _DEFS):
                bodies.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public[f"{key}:{node.name}"] = node
            else:
                reached |= _names(node)
    for entry in ("examples", "benchmarks"):
        for path in sorted((root / entry).rglob("*.py")):
            reached |= _names(_parse(path))
    tested = set()
    for path in sorted((root / "tests").rglob("*.py")):
        tested |= _names(_parse(path))
    live = _closure(reached, bodies)
    # What an allowlisted name calls is kept along with it.
    kept = _closure(live | {entry.partition(":")[2] for entry in allowlist}, bodies)

    problems = []
    for entry, node in public.items():
        if node.name in kept:
            continue
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        why = "only tests/ refer to it" if node.name in tested else "nothing refers to it"
        problems.append(
            f"src/{entry.partition(':')[0]}:{node.lineno}: public {kind} "
            f"{node.name} is reached from no entry point ({why})"
        )
    for entry, reason in sorted(allowlist.items()):
        key, _, name = entry.partition(":")
        node = public.get(entry)
        if not reason.strip():
            problems.append(f"src/{key}: allowlisted {name} has no written reason")
        if node is None:
            problems.append(
                f"src/{key}: stale allowlist entry: no public {name} is defined there"
            )
        elif name in live:
            problems.append(
                f"src/{key}:{node.lineno}: stale allowlist entry: {name} is "
                "reached from an entry point"
            )
    return problems


def main() -> int:
    problems = layer_violations() + reach_violations()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} architecture problem(s)", file=sys.stderr)
        return 1
    print("architecture: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
