"""Tier-1 wiring for the architecture check (``tools/arch.py``).

The repository passes its own layer order and reachability check, the
allowlist can only shrink, and the checker itself reports each kind of
problem, naming the file and line, on small trees built under
``tmp_path``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("arch", ROOT / "tools" / "arch.py")
arch = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(arch)


def _tree(root: Path, files: dict[str, str]) -> Path:
    files = {"src/repro/__init__.py": "__all__ = []\n", **files}
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestRepository:
    def test_the_tree_passes(self, capsys):
        assert arch.main() == 0, capsys.readouterr().err

    def test_the_allowlist_only_shrinks(self):
        assert len(arch.REACH_ALLOWLIST) <= 1
        assert all(reason.strip() for reason in arch.REACH_ALLOWLIST.values())


class TestLayerOrder:
    def test_upward_module_level_import(self, tmp_path):
        _tree(tmp_path, {"src/repro/core/a.py": '"""A."""\nfrom repro.api import x\n'})
        problems = arch.layer_violations(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/repro/core/a.py:2: core imports repro.api")

    def test_upward_function_local_import(self, tmp_path):
        _tree(
            tmp_path,
            {"src/repro/data/a.py": "def load():\n    from repro.serve import y\n"},
        )
        problems = arch.layer_violations(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/repro/data/a.py:2: data imports repro.serve")

    def test_upward_relative_import(self, tmp_path):
        _tree(
            tmp_path,
            {"src/repro/deploy/sync.py": "from ..api.endpoint import Endpoint\n"},
        )
        problems = arch.layer_violations(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/repro/deploy/sync.py:1:")
        assert "repro.api.endpoint" in problems[0]

    def test_type_checking_import_is_not_an_edge(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/exec/trial.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.api import Application\n"
                    "from repro.core import Schema\n"
                )
            },
        )
        assert arch.layer_violations(tmp_path) == []

    def test_plain_import_statement(self, tmp_path):
        _tree(tmp_path, {"src/repro/tensor/a.py": "import repro.api.endpoint\n"})
        problems = arch.layer_violations(tmp_path)
        assert problems == [
            "src/repro/tensor/a.py:1: tensor imports repro.api.endpoint, "
            "which sits above it (api)"
        ]

    def test_import_inside_a_method(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/model/a.py": (
                    "class Head:\n"
                    "    def fit(self):\n"
                    "        import numpy\n"
                    "        from repro.training import Trainer\n"
                )
            },
        )
        problems = arch.layer_violations(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/repro/model/a.py:4: model imports repro.training")

    def test_each_upward_import_is_reported_on_its_own_line(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/core/a.py": (
                    "from repro.serve import x\n"
                    "from repro.errors import ReproError\n"
                    "from repro.cli import main\n"
                )
            },
        )
        problems = arch.layer_violations(tmp_path)
        assert [p.split(": ")[0] for p in problems] == [
            "src/repro/core/a.py:1",
            "src/repro/core/a.py:3",
        ]

    def test_downward_same_package_and_third_party_imports_pass(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/training/a.py": (
                    "import json\n"
                    "import numpy as np\n"
                    "from repro.errors import ReproError\n"
                    "from repro.optim import SGD\n"
                    "from repro.training.b import helper\n"
                    "from . import b\n"
                )
            },
        )
        assert arch.layer_violations(tmp_path) == []

    def test_packages_that_share_a_layer_may_import_each_other(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/obs/a.py": "from repro.faults import FaultPlan\n",
                "src/repro/faults/a.py": "from repro.obs import Tracer\n",
            },
        )
        assert arch.layer_violations(tmp_path) == []

    def test_a_package_named_from_the_front_door(self, tmp_path):
        _tree(tmp_path, {"src/repro/core/a.py": "from repro import api, errors\n"})
        problems = arch.layer_violations(tmp_path)
        assert problems == [
            "src/repro/core/a.py:1: core imports repro.api, which sits above it (api)"
        ]

    def test_a_name_from_the_front_door_sits_with_the_cli(self, tmp_path):
        _tree(tmp_path, {"src/repro/serve/a.py": "from repro import Dataset\n"})
        problems = arch.layer_violations(tmp_path)
        assert problems == [
            "src/repro/serve/a.py:1: serve imports repro, which sits above it (cli)"
        ]

    def test_the_front_door_may_import_any_layer(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/__init__.py": "from repro.cli import main\n__all__ = []\n",
                "src/repro/__main__.py": "from repro.cli import main\n",
            },
        )
        assert arch.layer_violations(tmp_path) == []

    def test_relative_import_of_a_parent_package(self, tmp_path):
        _tree(tmp_path, {"src/repro/deploy/sync.py": "from .. import api\n"})
        problems = arch.layer_violations(tmp_path)
        assert problems == [
            "src/repro/deploy/sync.py:1: deploy imports repro.api, which sits above it (api)"
        ]

    def test_typing_attribute_type_checking_is_not_an_edge(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/tuning/a.py": (
                    "import typing\n"
                    "if typing.TYPE_CHECKING:\n"
                    "    from repro.exec import Executor\n"
                )
            },
        )
        assert arch.layer_violations(tmp_path) == []

    def test_the_else_branch_of_type_checking_is_an_edge(self, tmp_path):
        _tree(
            tmp_path,
            {
                "src/repro/tuning/a.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.exec import Executor\n"
                    "else:\n"
                    "    from repro.api import Run\n"
                )
            },
        )
        problems = arch.layer_violations(tmp_path)
        assert len(problems) == 1
        assert problems[0].startswith("src/repro/tuning/a.py:5: tuning imports repro.api")

    def test_a_package_outside_the_order(self, tmp_path):
        _tree(tmp_path, {"src/repro/extras/__init__.py": ""})
        problems = arch.layer_violations(tmp_path)
        assert problems == [
            "src/repro/extras/__init__.py:1: package 'extras' is not in the layer order"
        ]


_REACH_TREE = {
    "src/repro/cli.py": (
        "from repro.core.a import used\n\n\ndef main():\n    return used()\n"
    ),
    "src/repro/core/__init__.py": "from repro.core.a import only_tested\n",
    "src/repro/core/a.py": (
        "def used():\n"
        "    return _helper()\n\n\n"
        "def _helper():\n"
        "    return called_by_helper()\n\n\n"
        "def called_by_helper():\n"
        "    return 1\n\n\n"
        "def only_tested():\n"
        "    return 2\n"
    ),
    "tests/test_a.py": "from repro.core import only_tested\n\nonly_tested()\n",
}


class TestReachability:
    def test_a_public_function_only_tests_call(self, tmp_path):
        _tree(tmp_path, _REACH_TREE)
        problems = arch.reach_violations(tmp_path, allowlist={})
        assert problems == [
            "src/repro/core/a.py:13: public function only_tested is reached "
            "from no entry point (only tests/ refer to it)"
        ]

    def test_an_allowlisted_name_is_kept(self, tmp_path):
        _tree(tmp_path, _REACH_TREE)
        allowlist = {"repro/core/a.py:only_tested": "oracle for used()"}
        assert arch.reach_violations(tmp_path, allowlist=allowlist) == []

    def test_an_example_is_an_entry_point(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "examples/demo.py": "from repro.core import only_tested\n\nonly_tested()\n",
            },
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_stale_allowlist_entries(self, tmp_path):
        _tree(tmp_path, _REACH_TREE)
        allowlist = {
            "repro/core/a.py:only_tested": "kept",
            "repro/core/a.py:used": "kept",
            "repro/core/a.py:gone": "kept",
        }
        assert arch.reach_violations(tmp_path, allowlist=allowlist) == [
            "src/repro/core/a.py: stale allowlist entry: no public gone is "
            "defined there",
            "src/repro/core/a.py:1: stale allowlist entry: used is reached "
            "from an entry point",
        ]

    def test_a_public_name_nothing_refers_to(self, tmp_path):
        _tree(tmp_path, {**_REACH_TREE, "tests/test_a.py": ""})
        assert arch.reach_violations(tmp_path, allowlist={}) == [
            "src/repro/core/a.py:13: public function only_tested is reached "
            "from no entry point (nothing refers to it)"
        ]

    def test_a_public_class_only_tests_call(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "src/repro/core/b.py": "class Spare:\n    pass\n",
                "tests/test_b.py": "from repro.core.b import Spare\n\nSpare()\n",
            },
        )
        problems = arch.reach_violations(tmp_path, allowlist={})
        assert "src/repro/core/b.py:1: public class Spare is reached from no entry " \
            "point (only tests/ refer to it)" in problems

    def test_private_names_are_not_reported(self, tmp_path):
        _tree(
            tmp_path,
            {**_REACH_TREE, "src/repro/core/b.py": "def _spare():\n    return 3\n"},
        )
        problems = arch.reach_violations(tmp_path, allowlist={})
        assert not any("_spare" in p for p in problems)

    def test_a_module_level_statement_is_a_reference(self, tmp_path):
        _tree(
            tmp_path,
            {**_REACH_TREE, "src/repro/core/b.py": "DEFAULT = only_tested()\n"},
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_a_re_export_is_not_a_reference(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "src/repro/core/__init__.py": (
                    "from repro.core.a import only_tested\n"
                    "__all__ = ['only_tested']\n"
                ),
            },
        )
        assert len(arch.reach_violations(tmp_path, allowlist={})) == 1

    def test_the_front_door_all_is_an_entry_point(self, tmp_path):
        _tree(
            tmp_path,
            {**_REACH_TREE, "src/repro/__init__.py": "__all__ = ['only_tested']\n"},
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_the_main_module_is_an_entry_point(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "src/repro/__main__.py": (
                    "from repro.core.a import only_tested\n\nonly_tested()\n"
                ),
            },
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_a_benchmark_is_an_entry_point(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "benchmarks/e2e/run.py": "import repro.core.a as a\n\na.only_tested()\n",
            },
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_a_reached_class_reaches_what_its_methods_call(self, tmp_path):
        _tree(
            tmp_path,
            {
                **_REACH_TREE,
                "src/repro/cli.py": (
                    "from repro.core.a import used\n"
                    "from repro.core.b import Engine\n\n\n"
                    "def main():\n"
                    "    return Engine().run(), used()\n"
                ),
                "src/repro/core/b.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return only_tested()\n"
                ),
            },
        )
        assert arch.reach_violations(tmp_path, allowlist={}) == []

    def test_an_allowlisted_name_keeps_what_it_calls(self, tmp_path):
        tree = {
            **_REACH_TREE,
            "src/repro/core/b.py": (
                "def oracle():\n    return only_tested()\n"
            ),
        }
        _tree(tmp_path, tree)
        assert len(arch.reach_violations(tmp_path, allowlist={})) == 2
        allowlist = {"repro/core/b.py:oracle": "oracle for used(), compared in tests/"}
        assert arch.reach_violations(tmp_path, allowlist=allowlist) == []

    def test_an_allowlist_entry_needs_a_written_reason(self, tmp_path):
        _tree(tmp_path, _REACH_TREE)
        allowlist = {"repro/core/a.py:only_tested": "  "}
        assert arch.reach_violations(tmp_path, allowlist=allowlist) == [
            "src/repro/core/a.py: allowlisted only_tested has no written reason"
        ]
