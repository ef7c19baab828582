"""tools/pairs.py: the run order and the paired statistics on hand-made records."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, pair, kind, side, failed=0, **metrics):
    return {"workload": workload, "trace": 0, "pair": pair, "kind": kind, "side": side,
            "result": {"correct": True, "attempted": 1000, "failed": failed,
                       "metrics": {name: {"value": v, "unit": ""} for name, v in metrics.items()}}}


def _records(parent, change, nulls):
    """Pairs with the given op_ms.p90 values on each side, and null pairs
    (a, b) of the parent."""
    runs = []
    for k, (a, b) in enumerate(zip(parent, change)):
        runs += [_run("knot_arm6", k, "pair", "parent", **{"op_ms.p90": a, "ops_per_s.p10": 1000 / a}),
                 _run("knot_arm6", k, "pair", "change", **{"op_ms.p90": b, "ops_per_s.p10": 1000 / b})]
    for k, (a, b) in enumerate(nulls):
        runs += [_run("knot_arm6", k, "null", "parent", **{"op_ms.p90": a}),
                 _run("knot_arm6", k, "null", "parent_b", **{"op_ms.p90": b})]
    return runs


METRICS = {"op_ms.p90": {"better": "lower", "bound": 0.25}, "ops_per_s.p10": {"better": "higher", "bound": 0.25},
           "track_cost": {"better": "lower", "bound": 0.2}}


def _group(pairs, runs):
    return pairs.summarize(runs, METRICS)["knot_arm6"]["untraced"]


def _summary(pairs, runs, metric="op_ms.p90"):
    return _group(pairs, runs)["metrics"][metric]


# a clear gain: every pair better, the median beyond the null spread and the
# parent IQR, and the spread well inside the 0.25 bound
PARENT = [2.0, 2.1, 1.9, 2.2, 2.0, 2.05]
CHANGE = [1.7, 1.8, 1.75, 1.9, 1.6, 2.0]
NULLS = [(2.0, 2.1), (1.9, 1.85)]


def test_benchmark_reads_run_length_workloads_and_metrics(pairs):
    bench = pairs.benchmark()
    raw = json.loads((PAIRS.parent.parent / "BENCHMARK.json").read_text())
    assert bench["run_seconds"] == raw["run_seconds"]
    assert bench["workloads"] == [w["name"] for w in raw["workloads"]]
    assert bench["metrics"]["op_ms.p90"] == {"better": "lower", "bound": 0.25}
    assert bench["metrics"]["condense.build.ms"]["bound"] is None


def test_schedule_alternates_and_interleaves_nulls(pairs):
    plan = pairs.schedule(4)
    assert [(k, kind) for k, kind, _ in plan] == [(0, "pair"), (1, "pair"), (1, "null"), (2, "pair"),
                                                  (3, "pair"), (3, "null")]
    assert [order for _, kind, order in plan if kind == "pair"] == [("parent", "change"), ("change", "parent")] * 2
    assert all(order == ("parent", "parent_b") for _, kind, order in plan if kind == "null")


def test_a_median_move_beyond_the_null_spread_is_a_gain(pairs):
    runs = _records(PARENT, CHANGE, NULLS)
    group = _group(pairs, runs)
    assert group["pairs_run"] == 6
    assert group["outcomes"] == {"parent": {"failed": 0, "bad_runs": 0}, "change": {"failed": 0, "bad_runs": 0}}
    s = group["metrics"]["op_ms.p90"]
    assert s["pairs"] == 6
    assert s["median_diff"] == pytest.approx(-0.3)  # diffs -0.3 -0.3 -0.15 -0.3 -0.4 -0.05
    assert s["median_diff_rel"] == pytest.approx(-0.3 / 2.025)
    assert (s["better_pairs"], s["worse_pairs"], s["equal_pairs"]) == (6, 0, 0)
    assert s["null_diffs"] == pytest.approx([0.1, -0.05])
    assert s["null_spread"] == pytest.approx(0.1)
    assert s["parent_median"] == pytest.approx(2.025)
    assert s["parent_iqr"] == pytest.approx(2.0875 - 2.0)
    assert (s["verdict"], s["bound"], s["bound_check"]) == ("gain", 0.25, "holds")
    # throughput is better when higher: the same runs are better in every
    # pair, and without null pairs for that metric there is no verdict
    t = _summary(pairs, runs, "ops_per_s.p10")
    assert t["better_pairs"] == 6 and t["verdict"] == "no null"
    # a metric no run reports is left out
    assert "track_cost" not in group["metrics"]


def test_a_gain_needs_nine_of_ten_pairs_and_a_move_beyond_the_parent_iqr(pairs):
    # one pair in six worse: the median moves as far, but it is no gain
    s = _summary(pairs, _records(PARENT, CHANGE[:-1] + [2.1], NULLS[:1]))
    assert (s["better_pairs"], s["median_diff"]) == (6 - 1, pytest.approx(-0.3))
    assert s["verdict"] == "noise"
    # every pair better and beyond a zero null spread, but inside the
    # parent's own interquartile range of 0.3
    parent = [1.8, 2.0, 2.2, 1.8, 2.0, 2.2]
    s = _summary(pairs, _records(parent, change=[p - 0.1 for p in parent], nulls=[(2.0, 2.0)]))
    assert (s["better_pairs"], s["null_spread"], s["parent_iqr"]) == (6, 0.0, pytest.approx(0.3))
    assert s["verdict"] == "noise"


def test_a_move_inside_the_null_spread_is_noise_and_beyond_it_against_is_a_loss(pairs):
    parent = [2.0, 2.1, 1.9, 2.2]
    noise = _records(parent, change=[1.9, 2.0, 1.8, 2.1], nulls=[(2.0, 1.8)])
    assert _summary(pairs, noise)["verdict"] == "noise"
    loss = _records(parent, change=[2.4, 2.5, 2.3, 2.6], nulls=[(2.0, 1.8)])
    s = _summary(pairs, loss)
    assert s["verdict"] == "loss" and s["worse_pairs"] == 4
    # equal pairs are counted apart, and a zero difference is never a gain
    s = _summary(pairs, _records(parent, change=parent, nulls=[(2.0, 2.0)]))
    assert (s["equal_pairs"], s["verdict"]) == (4, "noise")


def test_a_pair_missing_a_side_or_a_result_is_left_out_of_the_statistics(pairs):
    runs = _records(parent=[2.0, 2.1, 1.9], change=[1.0, 1.1, 0.9], nulls=[(2.0, 2.05)])
    runs = [r for r in runs if not (r["pair"] == 2 and r["side"] == "change")]
    runs[0]["result"] = None  # pair 0's parent produced no result line
    group = _group(pairs, runs)
    s = group["metrics"]["op_ms.p90"]
    assert s["pairs"] == 1 and s["median_diff"] == pytest.approx(-1.0)
    assert group["pairs_run"] == 3 and group["outcomes"]["parent"]["bad_runs"] == 1


def test_a_pair_missing_a_result_counts_against_the_change(pairs):
    # five pairs better and one whose parent run gave no result line: the
    # change is better in 5 of the 6 pairs run, short of nine in ten, even
    # though every pair with both results is better
    runs = _records(PARENT, CHANGE, NULLS)
    next(r for r in runs if r["kind"] == "pair" and r["pair"] == 5 and r["side"] == "parent")["result"] = None
    group = _group(pairs, runs)
    s = group["metrics"]["op_ms.p90"]
    assert (s["pairs"], s["better_pairs"], group["pairs_run"]) == (5, 5, 6)
    assert group["outcomes"]["parent"]["bad_runs"] == 1 and group["outcomes"]["change"]["bad_runs"] == 0
    assert s["verdict"] == "noise"


def test_a_change_that_fails_more_operations_or_runs_is_no_gain(pairs):
    runs = _records(PARENT, CHANGE, NULLS)
    change_runs = [r for r in runs if r["side"] == "change"]
    change_runs[0]["result"]["failed"] = 2
    group = _group(pairs, runs)
    assert (group["outcomes"]["parent"]["failed"], group["outcomes"]["change"]["failed"]) == (0, 2)
    assert group["metrics"]["op_ms.p90"]["better_pairs"] == 6
    assert group["metrics"]["op_ms.p90"]["verdict"] == "noise"
    # as many failures on the parent's side: the gain stands
    next(r for r in runs if r["side"] == "parent" and r["kind"] == "pair")["result"]["failed"] = 2
    assert _summary(pairs, runs)["verdict"] == "gain"
    # a change run whose output check failed is a run without a passing result
    change_runs[1]["result"]["correct"] = False
    group = _group(pairs, runs)
    assert group["outcomes"]["change"]["bad_runs"] == 1
    assert group["metrics"]["op_ms.p90"]["verdict"] == "noise"


def test_the_bound_check_holds_breaks_or_cannot_tell(pairs):
    # worse by 0.6 on a parent median of 2.0: beyond its bound of 0.25 x 2.0
    parent = [2.0, 2.0, 2.0, 2.0]
    s = _summary(pairs, _records(parent, change=[2.6] * 4, nulls=[(2.0, 2.05)]))
    assert (s["verdict"], s["bound_check"]) == ("loss", "broken")
    # worse by 0.3, inside the bound, with a null spread of 0.05: it holds,
    # although the verdict is a loss
    s = _summary(pairs, _records(parent, change=[2.3] * 4, nulls=[(2.0, 2.05)]))
    assert (s["verdict"], s["bound_check"]) == ("loss", "holds")
    # no move, but two runs of the parent differ by 0.6, wider than the bound
    s = _summary(pairs, _records(parent, change=parent, nulls=[(2.0, 2.6)]))
    assert (s["verdict"], s["bound_check"]) == ("noise", "unresolved")
    # a parent IQR wider than the bound cannot tell either
    s = _summary(pairs, _records([1.0, 1.0, 3.0, 3.0], change=[1.0, 1.0, 3.0, 3.0], nulls=[(2.0, 2.0)]))
    assert (s["parent_iqr"], s["bound_check"]) == (2.0, "unresolved")
    # ... unless every run of the change reads better than every run of the parent
    s = _summary(pairs, _records([1.0, 1.0, 3.0, 3.0], change=[0.5, 0.5, 0.9, 0.9], nulls=[(2.0, 2.0)]))
    assert (s["parent_iqr"], s["bound_check"]) == (2.0, "holds")
    # a metric without a bound is not checked
    runs = _records(PARENT, CHANGE, NULLS)
    summary = pairs.summarize(runs, {"op_ms.p90": {"better": "lower", "bound": None}})
    assert summary["knot_arm6"]["untraced"]["metrics"]["op_ms.p90"]["bound_check"] is None
