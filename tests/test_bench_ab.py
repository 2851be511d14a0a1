"""`tools/bench_ab.py`: how it summarizes paired benchmark runs.

No benchmark is run here (a pair takes a minute at the benchmark's run
length); the report is fed run results made up for the purpose, so nothing
below depends on timing.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def run(wall_s, rate, attempted=100, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": wall_s, "rate": rate}}


def pairs(base, head):
    """Pairs of (wall_s, rate) per side, the base first in even pairs."""
    return [{"seed": 101 + p, "first": ("base", "head")[p % 2],
             "base": run(*b), "head": run(*h)}
            for p, (b, h) in enumerate(zip(base, head))]


def test_a_change_that_wins_nine_pairs_in_ten_by_more_than_the_spread_is_a_gain():
    base = [(1.0 + 0.01 * k, 100.0) for k in range(10)]
    head = [(0.8 + 0.01 * k, 100.0) for k in range(9)] + [(1.5, 100.0)]
    wall = bench_ab.report({"w": pairs(base, head)}, SPEC)["w"]["metrics"]["wall_s"]
    assert (wall["pairs"], wall["head_better"], wall["head_worse"]) == (10, 9, 1)
    assert wall["base_quartiles"] == pytest.approx([1.0225, 1.045, 1.0675])
    assert wall["verdict"] == "gain"
    # the paired ratios head / base: 0.8/1.0 ... 0.88/1.08, then 1.5/1.09
    assert wall["ratio_quartiles"][1] == pytest.approx((0.84 / 1.04 + 0.85 / 1.05) / 2)
    # equal values are ties: they win for neither side, and nothing is a gain
    rate = bench_ab.report({"w": pairs(base, head)}, SPEC)["w"]["metrics"]["rate"]
    assert (rate["head_better"], rate["head_worse"], rate["verdict"]) == (0, 0, "within bound")


def test_eight_wins_in_ten_or_a_gap_inside_the_spread_is_no_gain():
    base = [(1.0 + 0.02 * k, 100.0) for k in range(10)]  # IQR 0.09
    near = [(b - 0.03, r) for b, r in base]  # wins every pair, by less than the IQR
    assert bench_ab.report({"w": pairs(base, near)}, SPEC)["w"]["metrics"]["wall_s"][
        "verdict"] == "within bound"
    base = [(1.0, 100.0)] * 10
    eight = [(0.5, 100.0)] * 8 + [(1.1, 100.0)] * 2
    wall = bench_ab.report({"w": pairs(base, eight)}, SPEC)["w"]["metrics"]["wall_s"]
    assert (wall["head_better"], wall["verdict"]) == (8, "within bound")


def test_worse_beyond_the_bound_and_a_spread_wider_than_it():
    base = [(1.0, 100.0)] * 4
    slower = [(1.3, 89.0)] * 4  # 30% slower against a 25% bound; 11% fewer against 10%
    metrics = bench_ab.report({"w": pairs(base, slower)}, SPEC)["w"]["metrics"]
    assert metrics["wall_s"]["verdict"] == "worse"
    assert metrics["rate"]["verdict"] == "worse"
    base = [(1.0, 100.0), (2.0, 100.0), (1.0, 100.0), (2.0, 100.0)]  # IQR 1 > 25% of 1.5
    same = [(1.5, 100.0)] * 4
    assert bench_ab.report({"w": pairs(base, same)}, SPEC)["w"]["metrics"]["wall_s"][
        "verdict"] == "unresolved"


def test_a_run_without_a_result_counts_as_failed_operations_not_zeros():
    runs = pairs([(1.0, 100.0)] * 3, [(0.5, 200.0)] * 3)
    runs[1]["head"] = {"error": "ModuleNotFoundError: No module named 'mirrorqed'"}
    summary = bench_ab.report({"w": runs}, SPEC)["w"]
    assert summary["operations"] == {
        "base": {"correct": True, "attempted": 300, "failed": 0, "runs_without_result": 0},
        "head": {"correct": False, "attempted": 300, "failed": 100, "runs_without_result": 1},
    }
    wall = summary["metrics"]["wall_s"]
    assert (wall["pairs"], wall["base"], wall["head"]) == (2, [1.0, 1.0], [0.5, 0.5])
    # faster in every pair, but a larger share of its operations failed
    assert wall["verdict"] == "within bound"
    lines = bench_ab.summary_lines({"w": summary})
    assert lines[0] == ("w: base correct, 0 of 300 operations failed; head NOT correct, "
                        "100 of 300 operations failed, 1 runs without a result")
    assert lines[1].startswith("  wall_s           base 1 head 0.5 s   ratio 0.500 [0.500, 0.500]"
                               "  head better 2/2, worse 0/2  within bound")
    # the base without a result in 2 of 10 pairs: 8 wins of the 10 pairs run are no
    # gain, however few of the head's operations failed; in 1 of 10, 9 wins are
    base = [(1.0 + 0.01 * k, 100.0) for k in range(10)]
    for lost in (2, 1):
        runs = pairs(base, [(0.5, 100.0)] * 10)
        for pair in runs[:lost]:
            pair["base"] = {"error": "exit code 1"}
        summary = bench_ab.report({"w": runs}, SPEC)["w"]
        assert summary["operations"]["base"]["failed"] == 100 * lost
        wall = summary["metrics"]["wall_s"]
        assert (wall["pairs"], wall["head_better"]) == (10 - lost, 10 - lost)
        assert wall["verdict"] == ("within bound" if lost == 2 else "gain")


def test_a_side_with_no_result_at_all_has_no_pairs():
    runs = pairs([(1.0, 100.0)] * 2, [(1.0, 100.0)] * 2)
    for pair in runs:
        pair["base"] = {"error": "exit code 1"}
    summary = bench_ab.report({"w": runs}, SPEC)["w"]
    assert summary["operations"]["base"]["failed"] == 200
    assert summary["metrics"]["wall_s"] == {
        "unit": "s", "better": "lower", "bound": 0.25, "pairs": 0, "base": [], "head": [],
        "verdict": "no pairs"}
    assert bench_ab.summary_lines({"w": summary})[1] == (
        "  wall_s           no pairs with a value on both sides")
