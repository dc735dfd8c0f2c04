"""Unit coverage for the paired-run verdict (tools/bench_pairs.py).

The rule under test is choosing-metrics section 8: a side is *better* only
with at least nine tenths of the pairs won (ties count for neither) and a
median gap wider than the parent's own quartile distance; the regression
bound is judged on the medians, in the metric's own direction.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import json

import bench_pairs
import pytest
from bench_pairs import compare, parse_workloads, render

LATENCY = {"name": "short_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
RATE = {"name": "long_items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}

PARENT = [7.0, 7.2, 7.4, 7.1, 7.3, 7.2, 7.0, 7.5, 7.1, 7.2]


def test_clear_gain_on_a_lower_is_better_metric():
    row = compare(LATENCY, PARENT, [v - 4.0 for v in PARENT])
    assert (row["wins"], row["losses"], row["verdict"]) == (10, 0, "better")
    assert row["within_bound"] is True and row["shift"] < -0.5


def test_eight_of_ten_pairs_is_unresolved_however_large_the_gap():
    change = [v - 4.0 for v in PARENT]
    change[0] = change[1] = 9.0
    assert compare(LATENCY, PARENT, change)["verdict"] == "unresolved"


def test_a_gap_inside_the_parents_own_spread_is_unresolved():
    row = compare(LATENCY, PARENT, [v - 0.05 for v in PARENT])
    assert row["wins"] == 10 and row["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    change = [v - 4.0 for v in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    row = compare(LATENCY, PARENT, change)
    assert (row["wins"], row["losses"], row["verdict"]) == (8, 0, "unresolved")


def test_direction_follows_the_metric():
    parent = [v * 1000 for v in PARENT]
    slower = compare(RATE, parent, [v * 0.5 for v in parent])
    assert slower["verdict"] == "worse" and slower["within_bound"] is False
    faster = compare(RATE, parent, [v * 1.5 for v in parent])
    assert faster["verdict"] == "better" and faster["within_bound"] is True


def test_layer_metrics_hold_no_bound_and_render_as_a_table():
    layer = {"name": "serve.gateway.resolve_ms.bulk", "unit": "ms", "better": "lower"}
    row = compare(layer, PARENT, [v / 2 for v in PARENT])
    assert row["within_bound"] is None
    table = render([row]).splitlines()
    assert len(table) == 3 and table[2].count("|") == table[0].count("|")
    assert "| - | better |" in table[2]


SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "serve_light"}, {"name": "fit"}, {"name": "tune"}],
    "end_to_end": [LATENCY, RATE],
    "per_layer": [],
}


def test_workload_lists_and_all_resolve_against_the_spec():
    assert parse_workloads("fit", SPEC) == ["fit"]
    assert parse_workloads("tune, fit", SPEC) == ["tune", "fit"]
    assert parse_workloads("all", SPEC) == ["serve_light", "fit", "tune"]
    for bad in ("fit,nope", "", ","):
        with pytest.raises(SystemExit, match="unknown workload"):
            parse_workloads(bad, SPEC)


def test_one_invocation_prints_a_table_per_workload(tmp_path, monkeypatch, capsys):
    """Sides still alternate within each workload; each gets its own verdict."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, checkout.name, seed))
        # The change halves tune's latency and leaves fit alone.
        faster = workload == "tune" and checkout.name == "change"
        latency = (3.5 if faster else 7.0) + 0.01 * (seed % 3)
        return {
            "correct": True, "failed": 0, "attempted": 40,
            "metrics": {"short_p50_ms": {"value": latency},
                        "long_items_per_s": {"value": 100.0}},
        }

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"),
         "--workload", "fit,tune", "--pairs", "10", "--seed", "40"]
    )
    assert code == 0
    assert [c[0] for c in calls] == ["fit"] * 20 + ["tune"] * 20
    per_workload = [c[1:] for c in calls[:20]]
    assert per_workload == [c[1:] for c in calls[20:]]
    assert per_workload[:4] == [
        ("parent", 40), ("change", 40), ("change", 41), ("parent", 41)
    ]
    out = capsys.readouterr().out
    fit_table, tune_table = out.split("## fit:")[1].split("## tune:")
    assert "| short_p50_ms |" in fit_table and "| unresolved |" in fit_table
    assert "| yes | better |" not in fit_table
    assert "10/0 of 10 | yes | better |" in tune_table


def test_more_failed_runs_on_the_change_fail_the_invocation(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def fake_run(checkout, workload, seed, seconds, trace):
        broken = workload == "tune" and checkout.name == "change" and seed == 1
        return {
            "correct": not broken, "failed": int(broken), "attempted": 40,
            "metrics": {"short_p50_ms": {"value": 7.0},
                        "long_items_per_s": {"value": 100.0}},
        }

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "2", "--seed", "0"]
    assert bench_pairs.main(argv + ["--workload", "fit"]) == 0
    assert bench_pairs.main(argv + ["--workload", "fit,tune"]) == 1


def exit_code(tmp_path, monkeypatch, run) -> int:
    """``main`` over ten fit pairs of ``run(side, seed) -> (latency, failed, attempted)``."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def fake_run(checkout, workload, seed, seconds, trace):
        latency, failed, attempted = run(checkout.name, seed)
        return {
            "correct": failed == 0, "failed": failed, "attempted": attempted,
            "metrics": {"short_p50_ms": {"value": latency},
                        "long_items_per_s": {"value": 100.0}},
        }

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    return bench_pairs.main(
        [str(tmp_path / "parent"), str(tmp_path / "change"),
         "--workload", "fit", "--pairs", "10", "--seed", "0"]
    )


def test_a_median_outside_the_bound_fails_even_when_unresolved(tmp_path, monkeypatch, capsys):
    """Seven pairs lost by 40%, three won: the verdict is unresolved, the
    median is out of bound."""
    def run(side, seed):
        slow = side == "change" and seed < 7
        return PARENT[seed] * (1.4 if slow else 0.9 if side == "change" else 1.0), 0, 50

    assert exit_code(tmp_path, monkeypatch, run) == 1
    table = capsys.readouterr().out
    assert "| NO | unresolved |" in table


def test_a_worse_verdict_within_the_bound_fails(tmp_path, monkeypatch, capsys):
    def run(side, seed):
        return PARENT[seed] * (1.1 if side == "change" else 1.0) + 0.001 * seed, 0, 50

    assert exit_code(tmp_path, monkeypatch, run) == 1
    assert "| yes | worse |" in capsys.readouterr().out


def test_a_single_failed_operation_among_many_fails(tmp_path, monkeypatch, capsys):
    def run(side, seed):
        return PARENT[seed], int(side == "change" and seed == 3), 500

    assert exit_code(tmp_path, monkeypatch, run) == 1
    out = capsys.readouterr().out
    assert "# failed operations: parent 0/5000 (0.000%), change 1/5000 (0.020%)" in out


def test_failed_operations_compare_as_a_share_not_as_runs(tmp_path, monkeypatch):
    """One failing run a side, but five operations against one."""
    def run(side, seed):
        return PARENT[seed], (5 if side == "change" else 1) * (seed == 3), 500

    assert exit_code(tmp_path, monkeypatch, run) == 1


def test_an_unchanged_change_passes(tmp_path, monkeypatch):
    assert exit_code(tmp_path, monkeypatch, lambda side, seed: (PARENT[seed], 0, 50)) == 0
