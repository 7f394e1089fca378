"""The pair summary of tools/bench_pairs.py on fixed runs: wins, the gain rule
and the memory fit, with no benchmark run."""

import json
import statistics
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    # exec the source rather than import it, so nothing is written beside it
    namespace = {"__name__": "bench_pairs", "__file__": str(BENCH_PAIRS)}
    exec(compile(BENCH_PAIRS.read_text(), str(BENCH_PAIRS), "exec"), namespace)
    return namespace


def _runs(bp, parent_p50, change_p50):
    """Ten pairs: every metric but p50_ms ties; each change run does 10%
    more operations, and the peak grows by 128 B an operation over 20 MiB."""
    runs = {"parent": [], "change": []}
    for i, (p50_a, p50_b) in enumerate(zip(parent_p50, change_p50)):
        sides = (("parent", p50_a, 10_000 + 100 * i), ("change", p50_b, 11_000 + 110 * i))
        for side, p50, ops in sides:
            run = {name: 1.0 for name in bp["METRICS"]}
            run.update(p50_ms=p50, attempted=ops, failed=0,
                       peak_rss_mb=20 + ops * 128 / 2**20)
            runs[side].append(run)
    return runs


def _summary(bp, runs):
    seeds = list(range(len(runs["parent"])))
    return bp["summarize"](runs, seeds, ["parent", "change"] * (len(seeds) // 2))


def test_a_lower_is_better_gain_meets_the_rule(bp):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change = [0.90] * 9 + [1.05]  # nine wins of ten, one loss
    summary = _summary(bp, _runs(bp, parent, change))
    p50 = summary["p50_ms"]
    assert p50["change_wins"] == 9
    assert p50["median_gap"] == pytest.approx(0.10)
    assert p50["parent_spread"] == pytest.approx(0.0175)
    assert p50["gain_rule"] is True
    assert "p50_ms 1.0 -> 0.9 (-10.0%, 9 wins, gain rule met)" in bp["finding"](summary)


def test_eight_wins_of_ten_or_a_gap_inside_the_spread_fail_the_rule(bp):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    eight = _summary(bp, _runs(bp, parent, [0.90] * 8 + [1.05] * 2))["p50_ms"]
    assert eight["change_wins"] == 8 and eight["gain_rule"] is False
    # ten wins, but the medians are 0.005 apart and the quartiles 0.0175
    narrow = _summary(bp, _runs(bp, parent, [x - 0.005 for x in parent]))["p50_ms"]
    assert narrow["change_wins"] == 10 and narrow["gain_rule"] is False


def test_a_tie_counts_for_neither_side(bp):
    parent = [1.0] * 10
    summary = _summary(bp, _runs(bp, parent, parent))
    for name in bp["METRICS"]:
        if name == "peak_rss_mb":
            continue
        m = summary[name]
        assert m["change_wins"] == 0 and m["change_over_parent"] == 1.0, name
        assert m["median_gap"] == 0 and m["gain_rule"] is False, name
    assert "ops_per_s 1.0 -> 1.0 (+0.0%, 0 wins, gain rule not met)" in bp["finding"](summary)
    assert bp["finding"](summary).endswith("; failed 0 and 0.")


def test_the_memory_fit_recovers_bytes_per_operation_and_the_crossing(bp):
    runs = _runs(bp, [1.0] * 10, [1.0] * 10)
    fit = bp["rss_fit"](runs)
    assert fit["runs"] == 20
    assert fit["bytes_per_op"] == 128.0 and fit["intercept_mb"] == 20.0
    peak = statistics.median(r["peak_rss_mb"] for r in runs["change"])
    ops = statistics.fmean(r["attempted"] for r in runs["change"])
    # the 10% bound is crossed when the operations grow by 1 + 0.1 * P / (b * N)
    assert bp["RSS_BOUND"] == 0.1
    assert fit["change_median_peak_mb"] == peak and fit["change_mean_attempted"] == round(ops)
    assert fit["crossing_factor"] == round(1 + 0.1 * peak * 2**20 / (128 * ops), 3)


def test_every_workload_summary_carries_its_memory_fit_and_labels(bp):
    # the same fixed runs, summed up as a pullback and as a verify-sweep workload
    for workload in ("pullback", "verify-sweep"):
        runs = _runs(bp, [1.0] * 10, [1.0] * 10)
        for side, label in (("parent", "(2,2) charpoly"), ("change", "(2,1) det")):
            for i, run in enumerate(runs[side]):
                run["labels"] = {"p50": label, "p90": "(3,3) inverse" if i % 5 else "(0,6) inverse"}
        summary = bp["workload_summary"](runs, list(range(10)), ["parent", "change"] * 5)
        assert summary["rss_fit"] == bp["rss_fit"](runs), workload
        assert summary["rss_fit"]["bytes_per_op"] == 128.0
        assert summary["labels"]["parent"] == {
            "p50": {"(2,2) charpoly": 10}, "p90": {"(3,3) inverse": 8, "(0,6) inverse": 2}}
        assert summary["labels"]["change"]["p50"] == {"(2,1) det": 10}
        assert summary["p50_ms"] == bp["summarize"](runs, list(range(10)), ["parent", "change"] * 5)["p50_ms"]


def test_labels_at_the_median_and_p90_of_a_run(bp):
    per_label = {
        "(3,3) inverse": {"samples": 15, "p50_ms": 9.0, "min_ms": 8.0},
        "(2,1) det": {"samples": 30, "p50_ms": 0.05, "min_ms": 0.04},
        "(0,6) inverse": {"samples": 15, "p50_ms": 12.0, "min_ms": 11.0},
        "(2,2) charpoly": {"samples": 20, "p50_ms": 0.09, "min_ms": 0.08},
        "(2,2) det": {"samples": 20, "p50_ms": 0.4, "min_ms": 0.3},
    }
    # the running counts are 30, 50, 70, 85 and 100: the median is reached on
    # the second label exactly, and p90 inside the last
    assert bp["labels_at"](per_label) == {"p50": "(2,2) charpoly", "p90": "(0,6) inverse"}
    one = {"(1,0) det": {"samples": 7, "p50_ms": 1.0, "min_ms": 1.0}}
    assert bp["labels_at"](one) == {"p50": "(1,0) det", "p90": "(1,0) det"}


def test_labels_are_read_from_the_result_file_of_the_run(bp, tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    per_label = {"a": {"samples": 1, "p50_ms": 1.0, "min_ms": 1.0},
                 "b": {"samples": 9, "p50_ms": 2.0, "min_ms": 2.0}}
    record = {"environment": {"workload": "pullback", "seed": 7}, "per_label": per_label}
    (out / "result-pullback-7-trace0.json").write_text(json.dumps(record))
    assert bp["read_labels"](tmp_path, "pullback", 7) == {"p50": "b", "p90": "b"}
    with pytest.raises(FileNotFoundError):
        bp["read_labels"](tmp_path, "pullback", 8)


def test_a_peak_that_does_not_grow_with_the_operations_gives_no_crossing(bp):
    runs = _runs(bp, [1.0] * 10, [1.0] * 10)
    for i, run in enumerate(runs["parent"] + runs["change"]):
        run["peak_rss_mb"] = 21.6 + (0.1 if i % 2 else -0.1)  # noise, no growth
    fit = bp["rss_fit"](runs)
    assert abs(fit["bytes_per_op"]) < 2 * fit["bytes_per_op_stderr"]
    assert fit["crossing_factor"] is None
    exact = bp["rss_fit"](_runs(bp, [1.0] * 10, [1.0] * 10))
    assert exact["bytes_per_op_stderr"] == 0.0 and exact["crossing_factor"] is not None
