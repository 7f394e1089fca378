"""Self-test of the benchmark harness, on tiny runs of every workload.

Run from the repository root with ``python3 perfbench/test_selftest.py``
(about 75 s on two cores), or under pytest by naming this file.
It checks that a run
  * prints every end-to-end metric of BENCHMARK.json, with its unit;
  * counts a deliberately damaged output as a failed operation;
  * produces a trace whose layer self times plus the unattributed
    remainder add up to the traced wall time;
  * refuses to run under ``python -O`` or without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "0.5"]

sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import LAYERS  # noqa: E402


def run(*args: str, python: tuple[str, ...] = (), cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *python, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"run failed with {done.returncode}: {done.stderr[-2000:]}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(last)}")
    return last


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_metrics_and_damaged_output() -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in SPEC["workloads"]:
        done = run(*RUN, "--workload", workload["name"], "--trace", "0", "--corrupt", "0")
        last = result(done)
        got = {name: entry["unit"] for name, entry in last["metrics"].items()}
        expect(got == wanted, f"{workload['name']}: metrics {got} != {wanted}")
        expect(all(entry["value"] > 0 for entry in last["metrics"].values()),
               f"{workload['name']}: a metric is not positive")
        expect(last["failed"] >= 1 and not last["correct"],
               f"{workload['name']}: damaged output not counted: {last}")
        expect(f"failed_ratio = {last['failed'] / last['attempted']:.6g}" in done.stdout,
               f"{workload['name']}: failed_ratio line missing")


def test_trace_adds_up() -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in SPEC["workloads"]:
        last = result(run(*RUN, "--workload", workload["name"], "--trace", "1"))
        values = {name: entry["value"] for name, entry in last["metrics"].items()}
        got = {name: entry["unit"] for name, entry in last["metrics"].items()}
        expect(got == wanted, f"{workload['name']}: per-layer metrics differ from BENCHMARK.json")
        expect(last["correct"] and last["failed"] == 0, f"{workload['name']}: traced run failed")
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["trace.unattributed_s"]
        wall = values["trace.wall_s"]
        expect(abs(total - wall) <= 1e-6 * wall,
               f"{workload['name']}: self times {total} do not add up to {wall}")
        expect(values["represent.represent.calls"] + values["verify.check_unit.calls"] > 0,
               f"{workload['name']}: no spans recorded")


def test_refusals() -> None:
    done = run(*RUN, "--workload", "pullback", python=("-O",))
    expect(done.returncode != 0 and not done.stdout.strip(), "ran under python -O")
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(*RUN, "--workload", "pullback", cwd=bare)
        expect(done.returncode != 0 and not done.stdout.strip(), "ran without library sources")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for test in (test_metrics_and_damaged_output, test_trace_adds_up, test_refusals):
        test()
        print(f"ok {test.__name__}")
