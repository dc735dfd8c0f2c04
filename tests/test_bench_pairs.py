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

from bench_pairs import compare, render

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
