"""tools/pairs.py: the run order, the paired statistics, the fixed-work comparison
and the exit status on hand-made records."""

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


@pytest.fixture
def few_pairs(pairs, monkeypatch):
    """The module with verdicts from any number of pairs, for the tests of
    the statistics on small hand-made records."""
    monkeypatch.setattr(pairs, "MIN_PAIRS", 1)
    return pairs


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


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
def test_a_pair_missing_a_side_or_a_result_is_left_out_of_the_statistics(pairs):
    runs = _records(parent=[2.0, 2.1, 1.9], change=[1.0, 1.1, 0.9], nulls=[(2.0, 2.05)])
    runs = [r for r in runs if not (r["pair"] == 2 and r["side"] == "change")]
    runs[0]["result"] = None  # pair 0's parent produced no result line
    group = _group(pairs, runs)
    s = group["metrics"]["op_ms.p90"]
    assert s["pairs"] == 1 and s["median_diff"] == pytest.approx(-1.0)
    assert group["pairs_run"] == 3 and group["outcomes"]["parent"]["bad_runs"] == 1


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
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


@pytest.mark.usefixtures("few_pairs")
def test_one_outlier_null_does_not_set_the_bar(pairs):
    # the clear gain above with a third null pair that the host disturbed:
    # its difference of 3.0 is set aside and the next largest, 0.1, is the bar
    s = _summary(pairs, _records(PARENT, CHANGE, NULLS + [(2.0, 5.0)]))
    assert s["null_diffs"] == pytest.approx([0.1, -0.05, 3.0])
    assert (s["null_spread"], s["verdict"], s["bound_check"]) == (pytest.approx(0.1), "gain", "holds")


@pytest.mark.usefixtures("few_pairs")
def test_null_differences_of_one_sign_still_set_the_bar(pairs):
    # the second run of the parent reads 0.4 slower every time, an order
    # effect larger than the change's move of 0.3
    s = _summary(pairs, _records(PARENT, CHANGE, [(2.0, 2.4), (1.9, 2.3), (2.1, 2.5)]))
    assert (s["null_spread"], s["verdict"]) == (pytest.approx(0.4), "noise")


WORKLOADS = ("knot_arm6", "empc_arm6")


def _table(pairs, cost=1.0, failed=0):
    return {w: {str(s): {"failed": failed, "attempted": 1000, "track_cost": cost + s / 1000} for s in pairs.FIXED_SEEDS}
            for w in WORKLOADS}


def test_fewer_than_ten_pairs_give_no_verdict(pairs):
    # two pairs of identical code have read "gain" and "loss"; below
    # MIN_PAIRS pairs run no metric gets a verdict, whatever its numbers
    assert pairs.MIN_PAIRS == 10
    parent = [2.0, 2.1, 1.9, 2.2, 2.0, 2.05, 2.1, 1.95, 2.0, 2.1]
    change = [p - 0.4 for p in parent]
    nulls = [(2.0, 2.05)] * 5
    for n in (1, 2, 9):
        group = _group(pairs, _records(parent[:n], change[:n], nulls[: n // 2]))
        assert group["pairs_run"] == n
        assert {s["verdict"] for s in group["metrics"].values()} == {"too few pairs"}
    s = _summary(pairs, _records(parent, change, nulls))
    assert (s["pairs"], s["verdict"]) == (10, "gain")


def test_fixed_work_gives_relative_moves_and_flags_failures(pairs):
    old = _table(pairs)
    new = _table(pairs)
    new["knot_arm6"]["209"]["track_cost"] = old["knot_arm6"]["209"]["track_cost"] * (1 + 2e-7)
    result = pairs.compare_fixed_work(old, new)
    knot = result["workloads"]["knot_arm6"]
    assert knot["seeds"]["209"]["track_cost_rel"] == pytest.approx(2e-7, rel=1e-6)
    assert knot["seeds"]["7"] == {"track_cost_rel": 0.0, "failed_before": 0, "failed": 0}
    assert knot["median_track_cost_rel"] == 0.0
    assert not result["failures_rose"]

    # every 401-410 cost up by 1e-3 of its own value moves the median by 1e-3
    for s in pairs.MEDIAN_SEEDS:
        new["empc_arm6"][str(s)]["track_cost"] *= 1.001
    new["empc_arm6"]["405"]["failed"] = 1
    result = pairs.compare_fixed_work(old, new)
    assert result["workloads"]["empc_arm6"]["median_track_cost_rel"] == pytest.approx(1e-3, rel=1e-9)
    assert result["failures_rose"]


def test_a_fixed_work_seed_that_loses_its_cost_counts_as_failing(pairs):
    old = _table(pairs)
    new = _table(pairs)
    new["knot_arm6"]["7"]["track_cost"] = None
    result = pairs.compare_fixed_work(old, new)
    assert result["workloads"]["knot_arm6"]["seeds"]["7"]["track_cost_rel"] is None
    assert result["workloads"]["knot_arm6"]["median_track_cost_rel"] == 0.0
    assert result["failures_rose"]


def _main(pairs, monkeypatch, tmp_path, failed=0, result=True, parity_edit=lambda p: None):
    """``pairs.main`` over one pair of ``knot_arm6`` with stubbed exports,
    runs and parity report: the change's fixed-work runs fail ``failed``
    operations, or give no result line when ``result`` is false, and
    ``parity_edit`` edits the change's report of one preset.  Returns the
    exit status and the written record."""
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "benchmark", lambda: {"run_seconds": 40, "workloads": ["knot_arm6"], "metrics": METRICS})
    monkeypatch.setattr(pairs, "export", lambda rev, scratch: (rev, tmp_path / rev))

    def run_once(tree, workload, seed, seconds, trace):
        fixed_change = seconds == 0 and tree.name == "change"
        res = {"correct": True, "attempted": 1000, "failed": failed if fixed_change else 0,
               "metrics": {"track_cost": {"value": 0.7, "unit": "ratio"}}}
        return {"exit": 0, "env": None, "jiffies": {}, "result": res if result or not fixed_change else None}

    report = {name: {"hash_unchanged": True, "max_rel_actual_cost": 0.0, "changed_controllers": [],
                     "failures": 1, "failures_before": 1} for name in ("closedloop_arms", "horizon_sweep")}
    parity_edit(report["horizon_sweep"])
    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "parity", lambda trees, scratch: report)
    status = pairs.main(["--parent", "parent", "--change", "change", "--slug", "t", "--pairs", "1"])
    return status, json.loads((tmp_path / "BENCH_t.json").read_text())


@pytest.mark.parametrize("failed, status", [(0, 0), (2, 1)], ids=["same", "failures-rose"])
def test_exits_nonzero_when_fixed_work_failures_rise(pairs, monkeypatch, tmp_path, failed, status):
    got, doc = _main(pairs, monkeypatch, tmp_path, failed=failed)
    assert got == status
    assert doc["fixed_work"]["compare"]["failures_rose"] == bool(status)
    assert list(doc["fixed_work"]["parent"]["knot_arm6"]) == [str(s) for s in pairs.FIXED_SEEDS]


@pytest.mark.parametrize(
    "edit, status",
    [
        (lambda p: p.update(hash_unchanged=False, max_rel_actual_cost=2e-11, changed_controllers=["small:0"]), 0),
        (lambda p: p.update(failures=2), 1),
    ],
    ids=["hash-changed", "failures-rose"],
)
def test_parity_failures_that_rise_fail_the_record_and_a_changed_hash_alone_does_not(
        pairs, monkeypatch, tmp_path, edit, status):
    got, doc = _main(pairs, monkeypatch, tmp_path, parity_edit=edit)
    assert got == status
    assert doc["parity"]["closedloop_arms"]["hash_unchanged"]


def test_a_fixed_work_run_without_a_result_fails_the_record(pairs, monkeypatch, tmp_path):
    status, doc = _main(pairs, monkeypatch, tmp_path, result=False)
    assert status == 1 and doc["fixed_work"]["compare"] is None
    assert doc["fixed_work"]["change"]["knot_arm6"]["7"] is None
