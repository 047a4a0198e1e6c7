"""Benchmark of the squigonometry package, one workload per process.

    python3 perfbench/run.py --workload eval-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/
directory and nowhere else.  Workloads (see workloads.py):

  eval-warm       sq/cq batches on prebuilt contexts (reduce_argument, horner_sparse)
  constants-cold  build_context + beta_value at a fresh eps (maclaurin, compute_pi)
  exact-integer   triangles, numerators, factors, explicit rows, root ladders

A run sets up SETUP_REPS times (a fresh import plus the workload's context
builds) and reports the median as setup_s, then runs whole rounds of fresh
seeded ops, each op once, until --seconds have passed.  Every op's output is
checked outside the timed region.  With --trace 0 the last stdout line
reports the end-to-end metrics; with --trace 1 the run spends half its time
untraced and half traced, both measured the same way, and reports the
per-layer metrics, the tracing overhead and the ROADMAP reference points.
Results go to .perfbench_out/, with the spans of the latest traced run of
each workload.

Reference-host time.  Other tenants of a small cloud host slow it by 1.3 to
2x for stretches of seconds to minutes, longer than one run.  So before every
op and around every set-up the run times a fixed probe (HostProbe, code of
the benchmark's own that never calls the library), and every end-to-end time
is reported as wall time x REF_PROBE_S / (probe time measured alongside).
REF_PROBE_S is the probe's time on the unloaded host the benchmark was
defined on, so there the figures equal wall time; elsewhere, and under
load, they read as that host's milliseconds.  The uncorrected figures are
printed on the line before the result and kept in the result file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

import accuracy
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 9
MAX_SPANS = 300_000
MAX_REPORTED_ERRORS = 5
REF_POINTS = 2000
REF_REPEATS = 5
# Probe time on the reference host (Xeon, Sapphire Rapids, 2 vCPU, CPython
# 3.11, unloaded); the median of many probes in its fast state.
REF_PROBE_S = 93e-6
# Probes around an op, or around a set-up, whose median is its host speed.
PROBE_WINDOW = 9
SETUP_PROBES = 4


class HostProbe:
    """A fixed slice of interpreter work that never calls the library.

    Its three parts mirror where the library spends its time: float Horner
    sums with calls (evaluation), a banded float recurrence over a list
    (the MacLaurin recursion) and a big-integer recurrence (the exact
    kernels).  On the reference host their sum tracked the host's slowdown
    of sq/cq batches, pi_p solves and triangle builds to within about 5%.
    """

    COEFFS = tuple(1.0 / (k + 1) for k in range(60))
    POINTS = tuple(math.fmod(0.37 * k, 1.1) - 0.55 for k in range(12))

    @staticmethod
    def _horner(coeffs, x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def _band(p: int, m: int, depth: int) -> list[float]:
        f = [0.0] * (depth + 1)
        f[0] = 1.0
        for k in range(p * depth):
            lo = max(-(-(k + 1) // p), 0)
            hi = min(k + 1 - (-(-(k + 1 - m) // p)), depth)
            for j in range(hi, max(lo - 1, 0), -1):
                f[j] = ((p * j - k) * f[j] + (m + k * (p - 1) - p * (j - 1)) * f[j - 1]) / (k + 1)
        return f

    def time(self) -> float:
        horner, coeffs = self._horner, self.COEFFS
        t0 = perf_counter()
        total = 0.0
        for x in self.POINTS:
            total += horner(coeffs, x)
        total += sum(self._band(4, 1, 8))
        a, b = 1, 1
        for _ in range(250):
            a, b = b, a * 3 + b
        dt = perf_counter() - t0
        if not (math.isfinite(total) and b > a):
            raise RuntimeError("host probe computed a wrong value")
        return dt


def import_library():
    """A fresh import of the package from src/, dropping any earlier one."""
    for key in [k for k in sys.modules if k == "squigonometry" or k.startswith("squigonometry.")]:
        del sys.modules[key]
    lib = importlib.import_module("squigonometry")
    if Path(lib.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported squigonometry from {lib.__file__}, not from {SRC}")
    return lib


def timed_setup(workload_cls, refs, probe: HostProbe):
    """Import and set up SETUP_REPS times; return the last library and workload,
    and each set-up's wall time and reference-host time."""
    wall, corrected = [], []
    for _ in range(SETUP_REPS):
        before = [probe.time() for _ in range(SETUP_PROBES)]
        t0 = perf_counter()
        lib = import_library()
        workload = workload_cls(lib, refs)
        workload.setup()
        dt = perf_counter() - t0
        after = [probe.time() for _ in range(SETUP_PROBES)]
        wall.append(dt)
        corrected.append(dt * REF_PROBE_S / statistics.median(before + after))
    return lib, workload, wall, corrected


class Phase:
    """Wall time, host probe and outcome of every op of one measured phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def corrected(self) -> list[float]:
        """Each op's time on the reference host: its wall time scaled by the
        median probe of the PROBE_WINDOW ops around it."""
        half = PROBE_WINDOW // 2
        probes = self.probes
        return [
            dt * REF_PROBE_S / statistics.median(probes[max(0, i - half): i + half + 1])
            for i, dt in enumerate(self.latencies)
        ]

    def figures(self) -> dict[str, float]:
        """Throughput and latency quantiles, on the reference host and as
        measured.  Throughput counts ops per second spent inside ops: the
        phase's other time goes to probes and output checks."""
        out = {}
        for prefix, times in (("", self.corrected()), ("wall.", self.latencies)):
            q = statistics.quantiles(times, n=100)
            out[prefix + "throughput_ops_s"] = len(times) / sum(times)
            out[prefix + "latency_p50_ms"] = q[49] * 1e3
            out[prefix + "latency_p90_ms"] = q[89] * 1e3
        return out


def run_op(phase: Phase, workload, op, probe: HostProbe) -> None:
    """Probe the host, then run, time and check one op."""
    workload.prepare(op)
    phase.probes.append(probe.time())
    t0 = perf_counter()
    try:
        result = workload.run(op)
        error = None
    except Exception as exc:
        error = exc
    phase.latencies.append(perf_counter() - t0)
    if error is not None:
        phase.fail(f"{op!r:.200}\n{''.join(traceback.format_exception(error))}")
        return
    try:
        problem = workload.check(op, result)
    except Exception:
        problem = f"check raised\n{traceback.format_exc()}"
    if problem:
        phase.fail(problem)


def measure(workload, rng, seconds: float, probe: HostProbe, tracer=None) -> Phase:
    """Run whole rounds of fresh ops until `seconds` have passed (or the span store is full)."""
    phase = Phase()
    deadline = perf_counter() + seconds
    while True:
        for op in workload.make_round(rng):
            if tracer is not None:
                tracer.op = len(phase.latencies)
            run_op(phase, workload, op, probe)
        if perf_counter() >= deadline or (tracer is not None and tracer.full()):
            return phase


def _median_per_call(runs) -> float:
    """Median over `runs` (pairs of a callable and its call count) of the time per call."""
    times = []
    for fn, calls in runs:
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def reference_points(lib, refs, rng) -> dict[str, float]:
    """The ROADMAP aim-1 baselines, timed on the untraced library (wall time).

    Every repeat of the sq split evaluates fresh points, so that a memo in
    the library cannot turn the later repeats into cache hits.
    """
    ev = lib.evalcore
    ctx = ev.build_context(4)
    span = 4.0 * float(refs[4])
    sq, reduce_argument, horner_sparse = ev.sq, ev.reduce_argument, ev.horner_sparse

    def fresh_points():
        return [rng.uniform(-span, span) for _ in range(REF_POINTS)]

    def run_sq(points):
        for t in points:
            sq(ctx, t)

    def run_reduce(points):
        for t in points:
            reduce_argument(ctx, t)

    def run_horner(pairs):
        for table, t in pairs:
            horner_sparse(table, t)

    def reduced_pairs(points):
        reductions = [ev.reduce_argument(ctx, t) for t in points]
        return [(ctx.cq_table if r.use_co else ctx.sq_table, r.t_reduced) for r in reductions]

    def split(run, prepare=lambda points: points):
        args = [prepare(fresh_points()) for _ in range(REF_REPEATS)]
        return _median_per_call([(partial(run, a), REF_POINTS) for a in args]) * 1e6

    def build(p, repeats):
        def once():
            lib.constants.compute_pi.cache_clear()
            ev.build_context(p)
        return _median_per_call([(once, 1)] * repeats) * 1e3

    params = lib.triangle.SquigParams(p=6, m=1, n=0)
    t0 = perf_counter()
    lib.derivpoly.root_ladder(params, 30)
    ladder_s = perf_counter() - t0
    return {
        "ref.sq_p4.call_us": split(run_sq),
        "ref.sq_p4.reduce_us": split(run_reduce),
        "ref.sq_p4.horner_us": split(run_horner, reduced_pairs),
        "ref.build_context_p4.ms": build(4, REF_REPEATS),
        "ref.build_context_p10.ms": build(10, 3),
        "ref.root_ladder_p6_k30.ms": ladder_s * 1e3,
    }


def environment() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "squigonometry" / "__init__.py").is_file():
        print(f"no squigonometry package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rng = random.Random(f"{args.workload}:{args.seed}")
    probe = HostProbe()
    refs = {p: accuracy.pi_reference(p) for p in accuracy.P_RANGE}
    lib, workload, setup_wall, setup_times = timed_setup(WORKLOADS[args.workload], refs, probe)
    problems = accuracy.oracle_problems(refs, lib.constants.pi_gamma)
    problems += workload.references()

    spans_path = None
    if args.trace:
        untraced = measure(workload, rng, args.seconds / 2, probe)
        store = tracing.Tracer(MAX_SPANS)
        uninstall = tracing.install(store, lib)
        try:
            traced = measure(workload, rng, args.seconds / 2, probe, store)
        finally:
            uninstall()
        phases = (untraced, traced)
        figures = untraced.figures()
        metrics = store.layer_metrics(sum(traced.latencies))
        metrics["trace.overhead_ratio"] = (
            figures["throughput_ops_s"] / traced.figures()["throughput_ops_s"]
        )
        metrics.update(reference_points(lib, refs, rng))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-spans.csv.gz"
        store.dump(spans_path)
    else:
        phase = measure(workload, rng, args.seconds, probe)
        phases = (phase,)
        figures = phase.figures()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_s": figures["throughput_ops_s"],
            "latency_p50_ms": figures["latency_p50_ms"],
            "latency_p90_ms": figures["latency_p90_ms"],
            "ok_ratio": (len(phase.latencies) - phase.failed) / len(phase.latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update(accuracy.accuracy_metrics(lib, refs))
    figures["wall.setup_s"] = statistics.median(setup_wall)
    figures["probe_us"] = statistics.median(phases[0].probes) * 1e6

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    for message in problems + [e for p in phases for e in p.errors]:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "timing": figures,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({k: record[k] for k in ("env", "timing", "spans")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
