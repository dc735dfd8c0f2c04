"""Tier-1 wiring for the documentation suite.

Three guarantees: the docstring lint (``tools/check_docs.py``) stays green
on ``src/repro``, the user-facing documents the README links to actually
exist and cover what they claim, and every ``repro.<dotted>`` name they
put in backticks still resolves.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestDocstringLint:
    def test_public_api_is_documented(self, capsys):
        assert check_docs.main([]) == 0, capsys.readouterr().out

    def test_lint_catches_missing_module_docstring(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        problems = check_docs.check_tree(tmp_path)
        assert len(problems) == 1
        assert "missing module docstring" in problems[0]

    def test_lint_catches_missing_class_docstring(self, tmp_path):
        (tmp_path / "mod.py").write_text('"""Doc."""\n\nclass Thing:\n    pass\n')
        problems = check_docs.check_tree(tmp_path)
        assert len(problems) == 1
        assert "class Thing" in problems[0]

    def test_private_names_are_exempt(self, tmp_path):
        (tmp_path / "_internal.py").write_text("x = 1\n")
        (tmp_path / "mod.py").write_text('"""Doc."""\n\nclass _Helper:\n    pass\n')
        assert check_docs.check_tree(tmp_path) == []

    def test_unparseable_file_is_reported(self, tmp_path):
        (tmp_path / "mod.py").write_text("def broken(:\n")
        problems = check_docs.check_tree(tmp_path)
        assert len(problems) == 1
        assert "cannot parse" in problems[0]


class TestDocumentationSuite:
    def test_readme_exists_and_links_the_guides(self):
        readme = (ROOT / "README.md").read_text()
        for guide in ("docs/lifecycle.md", "docs/serving.md", "docs/tuning.md"):
            assert guide in readme, f"README must link {guide}"

    def test_readme_maps_every_package(self):
        readme = (ROOT / "README.md").read_text()
        packages = sorted(
            p.name
            for p in (ROOT / "src" / "repro").iterdir()
            if p.is_dir() and not p.name.startswith("_")
        )
        for package in packages:
            assert f"repro/{package}" in readme, (
                f"README architecture map must mention src/repro/{package}"
            )

    def test_guides_exist_and_cover_their_claims(self):
        lifecycle = (ROOT / "docs" / "lifecycle.md").read_text()
        assert "app.json" in lifecycle
        assert "Application" in lifecycle and "Endpoint" in lifecycle

        serving = (ROOT / "docs" / "serving.md").read_text()
        assert "set_latest=False" in serving  # staging a version, documented
        assert "refresh()" in serving
        assert "CHANGES.md" in serving  # cross-links, not duplicated tables

        tuning = (ROOT / "docs" / "tuning.md").read_text()
        assert "workers" in tuning
        assert "coverage" in tuning
        assert "cache" in tuning


# A backticked span that starts with a dotted ``repro.`` name.
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")
# The one section allowed to name what no longer exists.
_REMOVED_NAMES_SECTION = ("lifecycle.md", "## Migrating from the removed facades")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then ``getattr`` the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def _documented_names() -> list[tuple[str, str]]:
    """``(document, name)`` for every backticked ``repro.`` name."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text()
        if path.name == _REMOVED_NAMES_SECTION[0]:
            head, _, rest = text.partition(_REMOVED_NAMES_SECTION[1])
            _, _, tail = rest.partition("\n## ")
            text = head + tail
        found += [(path.name, name) for name in _DOTTED_NAME.findall(text)]
    return found


class TestDocumentedNames:
    def test_every_backticked_repro_name_resolves(self):
        names = _documented_names()
        assert len(names) > 20
        unresolved = [(doc, name) for doc, name in names if not _resolves(name)]
        assert unresolved == []

    def test_the_removed_names_table_is_the_only_exception(self):
        lifecycle = (ROOT / "docs" / "lifecycle.md").read_text()
        assert _REMOVED_NAMES_SECTION[1] in lifecycle
        assert not _resolves("repro.Overton")
        assert not _resolves("repro.TrainedModel")
        assert not _resolves("repro.exec.parallel_quality_report")
        assert _resolves("repro.exec.WorkerTeam")


class TestDocumentedSpecs:
    """The JSON a document shows an operator loads as the spec it names."""

    @pytest.mark.parametrize(
        "document, module, name",
        [
            ("robustness.md", "repro.faults", "FaultPlan"),
            ("tuning.md", "repro.core", "TuningSpec"),
        ],
    )
    def test_example_json_loads(self, document, module, name):
        text = (ROOT / "docs" / document).read_text()
        example = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
        spec_class = getattr(importlib.import_module(module), name)
        spec = spec_class.from_dict(example)
        assert spec_class.from_dict(spec.to_dict()) == spec
