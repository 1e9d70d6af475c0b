"""The statistics of tools/bench_pairs.py, on canned numbers (no runs)."""
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [5.0, 5.2, 4.9, 5.1, 5.3, 5.0, 4.8, 5.2, 5.1, 5.0]
CHANGE = [4.0, 4.1, 4.2, 3.9, 4.0, 5.1, 4.1, 4.0, 4.2, 4.1]


def test_quartiles_are_numpy_percentiles():
    tool = _tool()
    assert tool.quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_wins_follow_the_better_direction_and_ties_win_nothing():
    tool = _tool()
    assert tool.wins([3, 3, 3], [2, 3, 4], "lower") == 1
    assert tool.wins([3, 3, 3], [2, 3, 4], "higher") == 1
    assert tool.wins([1, 1], [1, 1], "lower") == 0
    with pytest.raises(ValueError):
        tool.wins([1, 2], [1], "lower")


def test_summary_of_a_lower_is_better_metric():
    tool = _tool()
    s = tool.summarize(PARENT, CHANGE, "lower")
    assert s["pairs"] == 10 and s["change_wins"] == 9 and s["parent_wins"] == 1
    assert s["parent_median"] == 5.05 and s["change_median"] == 4.1
    assert s["parent_quartiles"] == [5.0, 5.175]
    assert s["parent_iqr"] == pytest.approx(0.175)
    assert s["ratio"] == pytest.approx(4.1 / 5.05)
    assert json.loads(json.dumps(s)) == s
    assert tool.claim_met(s)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    tool = _tool()
    eight = list(CHANGE)
    eight[0] = 5.5  # the change loses a second pair
    assert tool.summarize(PARENT, eight, "lower")["change_wins"] == 8
    assert not tool.claim_met(tool.summarize(PARENT, eight, "lower"))
    close = [p - 0.01 for p in PARENT]  # wins every pair by less than the IQR
    s = tool.summarize(PARENT, close, "lower")
    assert s["change_wins"] == 10 and not tool.claim_met(s)
    # higher is better: the same runs read the other way round
    assert tool.claim_met(tool.summarize(CHANGE, PARENT, "higher"))
    assert not tool.claim_met(tool.summarize(PARENT, CHANGE, "higher"))


def test_parent_runs_first_on_even_seeds():
    tool = _tool()
    assert tool.order(4) == ("parent", "change") and tool.order(5) == ("change", "parent")
    assert tool.parse_seeds("4-13") == list(range(4, 14))
    assert tool.parse_seeds("1,3") == [1, 3]


def test_metrics_are_read_from_the_last_line_of_a_run():
    tool = _tool()
    out = 'env {}\nmetric case_p50_s = 0.004 s\n{"correct": true, "metrics": {"case_p50_s": {"unit": "s", "value": 0.004}}}\n'
    assert tool.read_metrics(out) == {"case_p50_s": 0.004}
