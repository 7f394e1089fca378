"""Alternating parent/change benchmark pairs, written as one BENCH_<pr>.json.

Usage, from the repository root, with the parent commit checked out (by
``git clone`` or ``git archive``) in another directory:

    python3 tools/bench_pairs.py --parent ../parent --out BENCH_26.json \\
        --pairs rep-stream=10 --pairs pullback=3 --pairs verify-sweep=3 \\
        --seed 2601 --split-reps 5

For each workload, pair i runs ``perfbench/run.py --trace 0`` once in each
checkout at seed ``--seed + 100 * w + i`` (w the workload's place on the
command line), the parent first in even pairs and the change first in odd
ones.  Each run is a fresh process, started with PYTHONDONTWRITEBYTECODE=1.
The summary gives, per end-to-end metric, the median and quartiles
(inclusive method) of each side, the ratio of the medians, the number of
pairs in which the change reads better, and whether the gain rule holds: the
change wins at least nine tenths of the pairs, ties counting for neither,
and its median is better than the parent's by more than the distance between
the parent's quartiles.  Each ``findings`` line says so per metric.

``--split-reps`` adds the rep-stream operations timed stage by stage in
fresh processes, the sides alternating: the operations of the first 40
rounds of perfbench's own ``RepStream``, warmed by its own warmers, are run
with no checks through a copy of the library whose ``parse_multivector``,
``represent`` and ``format_matrix`` add up their time; best of three passes
per process.  The runs of both sides of each workload also give a
least-squares fit of ``peak_rss_mb`` against ``attempted``: the bytes the
harness keeps per operation, and the factor on the operation count at which
the change's runs would cross the ``peak_rss_mb`` bound.  Each run's
``.bench_out/result-<workload>-<seed>-trace0.json`` in its checkout gives the
operation label at the median and at p90 (see ``labels_at``); the summary
counts them per side.

The metrics and their bounds are read from BENCHMARK.json and every run has
perfbench/run.py's own length.  Standard library only; perfbench/ is run as
it is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = {metric["name"]: metric["better"] for metric in END_TO_END}
RSS_BOUND = next(metric["bound"] for metric in END_TO_END if metric["name"] == "peak_rss_mb")
STAGES = {"parse": "parse_multivector", "represent": "represent", "format": "format_matrix"}
SPLIT_ROUNDS = 40
LEVELS = (50, 90)  # the percentiles of perfbench's p50_ms and of its tail_ms


def labels_at(per_label: dict[str, dict]) -> dict[str, str]:
    """The operation label at each of LEVELS in one run, from its per_label
    records: the labels in the order of their own median latency, each
    standing for all its samples, and at each level the first label whose
    running sample count reaches that share of the run's samples."""
    order = sorted(per_label.items(), key=lambda item: (item[1]["p50_ms"], item[0]))
    total = sum(record["samples"] for _, record in order)
    out, seen = {}, 0
    for label, record in order:
        seen += record["samples"]
        for level in LEVELS:
            if f"p{level}" not in out and 100 * seen >= level * total:
                out[f"p{level}"] = label
    return out


def read_labels(root: Path, workload: str, seed: int) -> dict[str, str]:
    """labels_at of the result file a --trace 0 run left in its checkout."""
    path = root / ".bench_out" / f"result-{workload}-{seed}-trace0.json"
    return labels_at(json.loads(path.read_text())["per_label"])


def run_once(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS},
            "labels": read_labels(root, workload, seed)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict[str, list[dict]], seeds: list[int], first: list[str]) -> dict:
    """Per metric: each side's quartiles, the ratio of the medians, the pairs
    the change won (ties count for neither side), and whether the gain rule
    holds: at least nine tenths of the pairs won, and the medians apart, in
    the better direction, by more than the parent's quartile spread."""
    out = {"k_pairs": len(seeds), "seeds": seeds, "first": first}
    for name, better in METRICS.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        ratios = [c / p for p, c in zip(parent, change)]
        wins = sum(r > 1 if better == "higher" else r < 1 for r in ratios)
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        gap = statistics.median(change) - statistics.median(parent)
        gap = gap if better == "higher" else -gap
        out[name] = {
            "parent": quartiles(parent), "change": quartiles(change),
            "change_over_parent": round(statistics.median(change) / statistics.median(parent), 4),
            "change_wins": wins,
            "median_gap": round(gap, 4), "parent_spread": round(q3 - q1, 4),
            "gain_rule": wins >= 0.9 * len(ratios) and gap > q3 - q1,
            "per_pair_change_over_parent": [round(r, 4) for r in ratios],
            "parent_runs": [round(x, 4) for x in parent],
            "change_runs": [round(x, 4) for x in change],
        }
    for key in ("failed", "attempted"):
        out[key] = {side: [r[key] for r in runs[side]] for side in ("parent", "change")}
    return out


def finding(summary: dict) -> str:
    parts = []
    for metric in METRICS:
        m = summary[metric]
        rule = "gain rule met" if m["gain_rule"] else "gain rule not met"
        parts.append(f"{metric} {m['parent']['median']} -> {m['change']['median']} "
                     f"({m['change_over_parent'] - 1:+.1%}, {m['change_wins']} wins, {rule})")
    failed = summary["failed"]
    return (f"{summary['k_pairs']} pairs: " + "; ".join(parts)
            + f"; failed {sum(failed['parent'])} and {sum(failed['change'])}.")


def label_counts(runs: dict[str, list[dict]]) -> dict:
    """Per side and level, how many runs had each operation label there,
    the most frequent first."""
    return {side: {f"p{level}": dict(Counter(r["labels"][f"p{level}"] for r in side_runs)
                                      .most_common())
                   for level in LEVELS}
            for side, side_runs in runs.items()}


def workload_summary(runs: dict[str, list[dict]], seeds: list[int], first: list[str]) -> dict:
    """summarize, with the memory fit and the label counts of the workload."""
    return {**summarize(runs, seeds, first), "rss_fit": rss_fit(runs),
            "labels": label_counts(runs)}


def rss_fit(runs: dict[str, list[dict]]) -> dict:
    """Least squares of peak_rss_mb on attempted over every run of both sides.
    The crossing factor is given only when the slope is more than two of its
    standard errors above zero: where the runs' operation counts spread too
    little against the peaks' own noise, the fit resolves no growth."""
    points = [(r["attempted"], r["peak_rss_mb"]) for side in runs.values() for r in side]
    xs = [x for x, _ in points]
    slope, intercept = statistics.linear_regression(xs, [y for _, y in points])
    residual = sum((y - intercept - slope * x) ** 2 for x, y in points) / (len(points) - 2)
    mean = statistics.fmean(xs)
    stderr = (residual / sum((x - mean) ** 2 for x in xs)) ** 0.5
    change = runs["change"]
    peak = statistics.median(r["peak_rss_mb"] for r in change)
    ops = statistics.fmean(r["attempted"] for r in change)
    resolved = slope > 2 * stderr
    return {
        "what": "least squares of peak_rss_mb (MiB) on attempted, every run of both sides;"
                f" crossing_factor is 1 + {RSS_BOUND} * P / (b * N), with P the "
                "change's median peak, N its mean attempted and b the fitted bytes per "
                "operation, and null when b is within two standard errors of zero",
        "runs": len(points), "bytes_per_op": round(slope * 2**20, 1),
        "bytes_per_op_stderr": round(stderr * 2**20, 1),
        "intercept_mb": round(intercept, 3),
        "change_median_peak_mb": peak, "change_mean_attempted": round(ops),
        "crossing_factor": round(1 + RSS_BOUND * peak / (slope * ops), 3) if resolved else None,
    }


def split_child(seed: int) -> None:
    """Print one process's stage times; run with a checkout as the working
    directory, whose perfbench/ and src/ it imports."""
    sys.path[:0] = ["perfbench"]
    from run import import_library
    from workloads import RepStream

    lib = import_library()
    spent = dict.fromkeys(STAGES, 0.0)

    def timed(stage: str, fn):
        def call(*args):
            start = time.perf_counter()
            out = fn(*args)
            spent[stage] += time.perf_counter() - start
            return out
        return call

    stream = RepStream(types.SimpleNamespace(**{
        **vars(lib), **{fn: timed(stage, getattr(lib, fn)) for stage, fn in STAGES.items()}}))
    for _, warm in stream.warmers():
        warm()
    ops = [op for index in range(SPLIT_ROUNDS) for op in stream.round(seed, index)]
    best = None
    for _ in range(3):
        spent.update(dict.fromkeys(STAGES, 0.0))
        for op in ops:
            op.run()
        if best is None or sum(spent.values()) < sum(best.values()):
            best = dict(spent)
    print(json.dumps({"ops": len(ops), **best}))


def split_one(root: Path, seed: int) -> dict[str, float]:
    """Time each stage of rep-stream's operations in a fresh process."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import bench_pairs; bench_pairs.split_child({seed})")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def split(roots: dict[str, Path], reps: int, seed: int) -> dict:
    samples: dict[str, list[dict]] = {"parent": [], "change": []}
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(split_one(roots[side], seed))
    out = {"what": f"fresh processes, sides alternating, {reps} each: parse_multivector, "
                   f"represent and format_matrix over the operations of RepStream rounds "
                   f"0-{SPLIT_ROUNDS - 1} at seed {seed}, no checks; each process reports "
                   f"the best of 3 passes; ms per pass, best and median over the processes",
           "ops_per_pass": samples["parent"][0]["ops"]}
    for side, runs in samples.items():
        totals = [sum(r[s] for s in STAGES) for r in runs]
        out[side] = {stage: {"best_ms": round(min(r[stage] for r in runs) * 1e3, 2),
                             "median_ms": round(statistics.median(r[stage] for r in runs) * 1e3, 2),
                             "share_of_median_total": round(
                                 statistics.median(r[stage] for r in runs)
                                 / statistics.median(totals), 3)}
                     for stage in STAGES}
        out[side]["total"] = {"best_ms": round(min(totals) * 1e3, 2),
                              "median_ms": round(statistics.median(totals) * 1e3, 2)}
    out["change_over_parent_median"] = {
        stage: round(out["change"][stage]["median_ms"] / out["parent"][stage]["median_ms"], 4)
        for stage in (*STAGES, "total")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=K")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--split-reps", type=int, default=0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {
        "description": "Parent against this change: alternating runs of perfbench/run.py "
                       "--trace 0, the side that runs first alternating from pair to pair; "
                       "medians and quartiles (inclusive method) of each side; change_wins "
                       "counts the pairs in which the change read better; gain_rule holds "
                       "when it won at least 9/10 of the pairs and median_gap, the medians' "
                       "distance in the better direction, exceeds parent_spread, the "
                       "distance between the parent's quartiles.",
        "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W "
                   "--seed S --trace 0",
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "workloads": {}, "findings": {},
    }
    for place, spec in enumerate(args.pairs):
        workload, k = spec.split("=")
        if int(k) < 2:
            parser.error("quartiles need at least 2 pairs a workload")
        seeds = [args.seed + 100 * place + i for i in range(int(k))]
        first = ["parent" if i % 2 == 0 else "change" for i in range(int(k))]
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed, lead in zip(seeds, first):
            for side in (lead, "change" if lead == "parent" else "parent"):
                start = time.perf_counter()
                runs[side].append(run_once(roots[side], workload, seed))
                print(f"{workload} seed {seed} {side}: ops_per_s "
                      f"{runs[side][-1]['ops_per_s']:.1f} ({time.perf_counter() - start:.0f} s)",
                      file=sys.stderr)
        summary = report["workloads"][workload] = workload_summary(runs, seeds, first)
        report["findings"][workload] = finding(summary)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.split_reps:
        report["rep_stream_split"] = split(roots, args.split_reps, args.seed)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
