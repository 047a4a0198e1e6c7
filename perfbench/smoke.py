"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs one short round of every workload in BENCHMARK.json, untraced and
traced, and asserts that the last line of each run is the result object
with every declared metric, by name, with its declared unit; that no op
failed; and that on eval-warm the self times of sq/cq, reduce_argument and
horner_sparse add up to the sq/cq call time.  Last, it runs the benchmark
from a directory holding only BENCHMARK.json and the benchmark's files and
asserts that it exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench_out" / "bare"
TIMEOUT_S = 170


def run(spec, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *spec["command"][1:]] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    attempted = result.get("attempted", 0)
    if result.get("correct") is not True or result.get("failed") != 0 or not attempted >= 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metric names differ by {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        is_number = isinstance(value, (int, float)) and math.isfinite(value)
        if entry.get("unit") != unit or not is_number:
            problems.append(f"{where}: {name} = {entry!r}, declared unit {unit}")
    if trace and workload == "eval-warm" and not problems:
        v = {name: entry["value"] for name, entry in metrics.items()}
        calls = v["evalcore.sq_cq.calls"]
        parts = v["evalcore.sq_cq.self_us"] + (
            v["evalcore.reduce_argument.self_us"] * v["evalcore.reduce_argument.calls"]
            + v["evalcore.horner_sparse.self_us"] * v["evalcore.horner_sparse.calls"]
        ) / calls
        if not math.isclose(parts, v["evalcore.sq_cq.total_us"], rel_tol=1e-6):
            total = v["evalcore.sq_cq.total_us"]
            problems.append(f"{where}: self times add to {parts} us, sq/cq calls take {total} us")
    return problems


def check_bare(spec) -> list[str]:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(spec, BARE, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace, run(spec, ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_bare(spec)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
