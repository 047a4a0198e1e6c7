"""Outside-in tracing: spans around the library's public functions.

install() replaces each traced function with a wrapper wherever a
squigonometry module holds it, so calls made through an import site (such as
constants' own binding of horner_sparse, maclaurin and pi_from_factors, or
evalcore's binding of maclaurin) are traced too.  A wrapper records one span
(name, start, end, parent, op) and adds the call's work counts, taken from
its arguments or result, to running totals.  Spans stay in flat arrays
until the run ends; self time is derived from them afterwards as a span's
duration minus the durations of its direct children.  Wrapper bookkeeping
between a child's clock reads lands in the parent's self time; the
overhead metric reports the total cost of tracing.

Which end-to-end figure each layer should move:

  evalcore.sq_cq / reduce_argument / horner_sparse   eval-warm throughput and p50;
      horner_sparse also constants-cold p50 (raw tables, no reduction)
  evalcore.build_context                             eval-warm setup_s, constants-cold latency
  series.maclaurin, constants.compute_pi, beta_value constants-cold p50 and p90
  series.integer_maclaurin, triangle, factors,
  explicit                                           exact-integer throughput
  derivpoly.root_ladder                              exact-integer p90 and throughput
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter


def _table_terms(args, kwargs, result):
    return args[0].J + 1


def _maclaurin_terms(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["J"]) + 1


def _max_bits(args, kwargs, result):
    return max(v.bit_length() for v in result)


def _triangle_entries(args, kwargs, result):
    return sum(len(row) for row in result.rows)


def _ladder_roots(args, kwargs, result):
    return sum(len(level.negative_roots) for level in result)


def _ladder_levels(args, kwargs, result):
    return len(result)


# (module, function, span name, time unit, work counters as (metric, fn)).
# A counter named max_* reports its largest value, any other its mean per call.
TARGETS = (
    ("evalcore", "sq", "evalcore.sq_cq", "us", ()),
    ("evalcore", "cq", "evalcore.sq_cq", "us", ()),
    ("evalcore", "reduce_argument", "evalcore.reduce_argument", "us", ()),
    ("evalcore", "horner_sparse", "evalcore.horner_sparse", "us", (("terms", _table_terms),)),
    ("evalcore", "pow_general", "evalcore.pow_general", "us", ()),
    ("evalcore", "build_context", "evalcore.build_context", "ms", ()),
    ("series", "maclaurin", "series.maclaurin", "ms", (("terms", _maclaurin_terms),)),
    ("series", "integer_maclaurin", "series.integer_maclaurin", "ms", (("max_bits", _max_bits),)),
    ("constants", "compute_pi", "constants.compute_pi", "ms", ()),
    ("constants", "beta_value", "constants.beta_value", "ms", ()),
    ("factors", "factor_sequence", "factors.factor_sequence", "ms", ()),
    ("factors", "integer_cf_terms", "factors.integer_cf_terms", "ms", ()),
    ("factors", "pi_from_factors", "factors.pi_from_factors", "us", ()),
    (
        "triangle", "build_triangle", "triangle.build_triangle", "ms",
        (("entries", _triangle_entries),),
    ),
    (
        "derivpoly", "root_ladder", "derivpoly.root_ladder", "ms",
        (("roots", _ladder_roots), ("levels", _ladder_levels)),
    ),
    ("explicit", "explicit_coefficient", "explicit.explicit_coefficient", "ms", ()),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
_UNITS = {t[2]: t[3] for t in TARGETS}
_COUNTERS = {t[2]: t[4] for t in TARGETS}
_SCALE = {"us": 1e6, "ms": 1e3}


class Tracer:
    """Span store and wrapper factory; one per traced phase."""

    def __init__(self, max_spans: int) -> None:
        self.max_spans = max_spans
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("H")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.op = -1
        # (span name, counter) -> [sum, max]
        self.counters = {(name, c[0]): [0.0, 0.0] for name in SPAN_NAMES for c in _COUNTERS[name]}
        # (span index, Newton steps) of every compute_pi call that missed its cache
        self.pi_misses: list[tuple[int, int]] = []

    def full(self) -> bool:
        return len(self.names) >= self.max_spans

    def wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, failed, stack = self.starts, self.ends, self.failed, self.stack
        counters = [(self.counters[(name, metric)], count) for metric, count in _COUNTERS[name]]
        cache_info = getattr(fn, "cache_info", None)
        pi_misses = self.pi_misses

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            failed.append(0)
            misses = cache_info().misses if cache_info else 0
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if cache_info and cache_info().misses > misses:
                pi_misses.append((idx, result.iterations))
            for acc, count in counters:
                value = count(args, kwargs, result)
                acc[0] += value
                acc[1] = max(acc[1], value)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Write every span as gzipped CSV: index, op, name, parent, start_s, end_s, failed."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("index,op,name,parent,start_s,end_s,failed\n")
            for i in range(len(self.names)):
                out.write(
                    f"{i},{self.ops[i]},{SPAN_NAMES[self.names[i]]},{self.parents[i]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f},{self.failed[i]}\n"
                )

    def layer_metrics(self, busy_s: float) -> dict[str, float]:
        """Per-layer metrics derived from the stored spans and counters.

        busy_s is the summed op time of the traced phase; a layer's
        busy_share is its self time over it.
        """
        n = len(self.names)
        names, parents = self.names, self.parents
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        maclaurin_children = [0] * n
        maclaurin_id = self.name_ids["series.maclaurin"]
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur[i]
                if names[i] == maclaurin_id:
                    maclaurin_children[parent] += 1

        k = len(SPAN_NAMES)
        calls = [0] * k
        fails = [0] * k
        self_sum = [0.0] * k
        total_sum = [0.0] * k
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            fails[nid] += self.failed[i]
            self_sum[nid] += dur[i] - child[i]
            total_sum[nid] += dur[i]

        out: dict[str, float] = {}
        for name, nid in self.name_ids.items():
            c = calls[nid]
            unit = _UNITS[name]
            out[f"{name}.self_{unit}"] = self_sum[nid] / c * _SCALE[unit] if c else 0.0
            if name == "evalcore.sq_cq":
                out[f"{name}.total_us"] = total_sum[nid] / c * 1e6 if c else 0.0
            for metric, _fn in _COUNTERS[name]:
                total, peak = self.counters[(name, metric)]
                mean = total / c if c else 0.0
                out[f"{name}.{metric}"] = peak if metric.startswith("max_") else mean
            if name == "constants.compute_pi":
                # A miss runs the sizing loop, which builds the sq and cq
                # tables once per round; a hit calls nothing.
                m = len(self.pi_misses)
                out[f"{name}.hit_ratio"] = (c - m) / c if c else 0.0
                out[f"{name}.newton_steps"] = sum(it for _i, it in self.pi_misses) / m if m else 0.0
                out[f"{name}.sizing_rounds"] = (
                    sum(maclaurin_children[i] for i, _it in self.pi_misses) / 2 / m if m else 0.0
                )
            out[f"{name}.calls"] = float(c)
            out[f"{name}.failed"] = float(fails[nid])
            out[f"{name}.busy_share"] = self_sum[nid] / busy_s if busy_s > 0 else 0.0
        out["trace.spans"] = float(n)
        return out


def install(tracer: Tracer, lib):
    """Rebind every traced function at every import site; return an undo function."""
    modules = [
        module for key, module in list(sys.modules.items())
        if key == "squigonometry" or key.startswith("squigonometry.")
    ]
    undo = []
    for modname, fname, span, _unit, _counters in TARGETS:
        original = getattr(getattr(lib, modname), fname)
        wrapper = tracer.wrap(span, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def uninstall() -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return uninstall
