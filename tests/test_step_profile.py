"""Smoke coverage for the per-step profile (tools/step_profile.py).

The numbers are a host's; what is pinned is the stage table's shape, that
every ``Tensor._make`` call finds a call site, a recurrent layer shows up as
one node per step, every profiled second lands in a family, the tape-free
forward table has a batch-of-1 and a batch-of-32 row, and the script stays
``print()``-free.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import pytest
import step_profile
from check_print_calls import violations_in


@pytest.fixture(scope="module")
def result() -> dict:
    return step_profile.profile_steps(
        "synth-medium", scale=150, seed=1, encoder="lstm", size=8, epochs=1
    )


def test_every_tape_node_has_a_call_site(result):
    sites, steps = result["sites"], result["steps"]
    assert steps == 3 and "<outside repro>" not in sites
    assert sites["nn/recurrent.py:_RecurrentLayer.forward"] == steps
    assert sites["nn/linear.py:Linear.forward"] % steps == 0


@pytest.mark.parametrize("mode", ["taped", "free"])
def test_every_profiled_second_lands_in_a_family(result, mode):
    families, total = result[mode]
    assert set(families) <= set(step_profile.FAMILIES)
    assert 0.95 * total <= sum(families.values()) <= 1.001 * total
    assert families[step_profile.RECURRENT] > 0
    assert (families[step_profile.OPTIMIZER] > 0) == (mode == "taped")


def test_report_is_two_markdown_tables_and_the_script_never_prints(result):
    report = step_profile.render(result)
    assert "| call site | `Tensor._make` calls per step |" in report
    assert "| op family | taped ms / step |" in report
    assert all(f"| {family} |" in report for family in step_profile.FAMILIES)
    assert violations_in(REPO_ROOT / "tools" / "step_profile.py") == []


def test_the_stage_table_leads_with_every_stage_of_the_step(result):
    assert step_profile.STAGES == (
        "batch", "forward", "loss", "backward", "clip", "optimizer"
    )
    assert len(result["stages"]) == 6 and min(result["stages"]) >= 0
    lines = step_profile.render(result).splitlines()
    start = lines.index("| stage | ms / step, min over fits |")
    rows = [line.split(" | ")[0].lstrip("| ") for line in lines[start + 2 : start + 9]]
    assert rows == [*step_profile.STAGES, "**total**"]


def test_the_tape_free_forward_rows_are_one_row_and_a_full_batch(result):
    sizes = [size for size, _, _ in result["forward"]]
    assert sizes == list(step_profile.FORWARD_SIZES) == [1, 32]
    assert all(micros > 0 and calls > 0 for _, micros, calls in result["forward"])
    lines = step_profile.render(result).splitlines()
    start = lines.index(step_profile.FORWARD_HEADER)
    assert [line.split(" | ")[0] for line in lines[start + 2 : start + 4]] == [
        "| batch of 1", "| batch of 32"
    ]
