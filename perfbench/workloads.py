"""The three workloads: seeded inputs, the timed op, and its output check.

A workload hands the runner one round of ops at a time.  Every round holds
the same multiset of op shapes (parameters and depth strata) and the seed
picks the values inside each stratum and the order, so the cost of a round
barely depends on the seed.
Ops reach the library through module attributes looked up at call time, so
a traced run sees the wrappers installed in its place.

Checks run outside the timed region; a failed check counts as a failed op.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from accuracy import BETA_FLOOR, BETA_MN, EVAL_P, P_RANGE, eval_mix_point, mix_buckets

EVAL_BATCH = 60
EVAL_BATCHES_PER_P = 4  # on even p, one of these is a pow_general batch
PYTH_BOUND = 5e-14  # the bound squig verify applies

LOG2_EPS_RANGE = (20.0, 53.0)
PI_FLOOR_ULPS = 4.0
# beta_value must meet max(BETA_FLOOR, eps) relative to beta_gamma, except on
# these known misses of the library, each allowed up to the given multiple:
# the p = 2 table sizing ignores m and n, and (3, 2) needs the most terms.
# Worst seen on a 3001-point grid of eps in [2^-53, 2^-20]: 16.4x at
# p = 2 (eps near 1.2e-11) and 1.63x at p = 3 (eps near 2.1e-7).  Every
# other (p, m, n) of the mix stayed below 0.07x.
KNOWN_BETA_MISSES = {(2, 3, 2): 20.0, (3, 3, 2): 2.0}

EXACT_P = range(2, 7)
EXACT_MN = ((1, 0), (0, 1), (2, 1), (1, 2))
EXACT_PASSES = 6  # non-ladder ops per (p, m, n) and kind in one round
TRIANGLE_K = (40, 120)
SERIES_J = (20, 60)
EXPLICIT_K = (6, 14)
LADDER_K = (4, 10)
TAIL_LADDER = (6, 1, 0, 30)  # the ROADMAP reference case, once per round


def _strata(rng, lo: int, hi: int, count: int) -> list[int]:
    # One integer from each of `count` equal slices of [lo, hi], shuffled.
    values = [lo + int((hi - lo + 1) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(values)
    return values


class Workload:
    """Defaults for the hooks a workload may leave empty."""

    def setup(self) -> None:
        """Program set-up, timed as setup_s."""

    def references(self) -> list[str]:
        """Untimed preparation of inputs and references; returns problems found."""
        return []

    def prepare(self, op) -> None:
        """Untimed step before each run of an op."""


class EvalWarm(Workload):
    """sq/cq batches on prebuilt contexts: only the evaluation hot path is timed."""

    name = "eval-warm"

    def __init__(self, lib, refs) -> None:
        self.lib = lib
        self.pi = {p: float(refs[p]) for p in EVAL_P}
        # Largest |cq^2 sq| on the p-circle, at sq^p = 1/3, cq^p = 2/3.
        self.pow_bound = {p: (4.0 / 27.0) ** (1.0 / p) * (1.0 + 1e-12) for p in EVAL_P}
        self.contexts = {}

    def setup(self) -> None:
        build = self.lib.evalcore.build_context
        self.contexts = {p: build(p) for p in EVAL_P}

    def make_round(self, rng) -> list:
        ops = []
        for p in EVAL_P:
            for b in range(EVAL_BATCHES_PER_P):
                kind = "pow" if p % 2 == 0 and b == 0 else "sqcq"
                buckets = mix_buckets(EVAL_BATCH)
                rng.shuffle(buckets)
                ops.append((kind, p, [eval_mix_point(rng, self.pi[p], bk) for bk in buckets]))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, p, points = op
        ctx = self.contexts[p]
        ev = self.lib.evalcore
        if kind == "pow":
            pow_general = ev.pow_general
            return [pow_general(ctx, 2, 1, t) for t in points]
        sq, cq = ev.sq, ev.cq
        return [sq(ctx, t) for t in points], [cq(ctx, t) for t in points]

    def check(self, op, result) -> str | None:
        kind, p, points = op
        if kind == "pow":
            bound = self.pow_bound[p]
            for t, v in zip(points, result):
                if not abs(v) <= bound:
                    return f"pow_general(p={p}, 2, 1, t={t!r}) = {v!r} exceeds {bound!r}"
            return None
        for t, s, c in zip(points, *result):
            resid = abs(abs(c) ** p + abs(s) ** p - 1.0)
            if not resid <= PYTH_BOUND:
                return f"p={p}, t={t!r}: |cq|^p + |sq|^p - 1 = {resid!r}"
        return None


class ConstantsCold(Workload):
    """Fresh pi_p solves at a requested accuracy: build_context then beta_value."""

    name = "constants-cold"

    def __init__(self, lib, refs) -> None:
        self.lib = lib
        self.refs = refs
        self.compute_pi = None

    def references(self) -> list[str]:
        # Keep the lru_cache itself: a traced run rebinds the name to a wrapper.
        self.compute_pi = self.lib.constants.compute_pi
        return []

    def make_round(self, rng) -> list:
        # Each p meets each quarter of the log2(1/eps) range once per round.
        lo, hi = LOG2_EPS_RANGE
        ops = []
        for p in P_RANGE:
            quarters = list(range(len(BETA_MN)))
            rng.shuffle(quarters)
            for (m, n), q in zip(BETA_MN, quarters):
                log2_eps = lo + (hi - lo) * (q + rng.random()) / len(BETA_MN)
                ops.append((p, m, n, 2.0 ** -log2_eps))
        rng.shuffle(ops)
        return ops

    def prepare(self, op) -> None:
        self.compute_pi.cache_clear()

    def run(self, op):
        p, m, n, eps = op
        ctx = self.lib.evalcore.build_context(p, eps)
        return ctx, self.lib.constants.beta_value(p, m, n, eps)

    def check(self, op, result) -> str | None:
        # pi_p must meet the requested eps (floored at 4 ulp, the oracle's
        # own agreement with pi_gamma); beta_value as KNOWN_BETA_MISSES says.
        p, m, n, eps = op
        ctx, beta = result
        ref = self.refs[p]
        pi_rel = float(abs(Decimal(ctx.pi_p) - ref) / ref)
        if not pi_rel <= max(eps, PI_FLOOR_ULPS * math.ulp(float(ref)) / float(ref)):
            return f"build_context({p}, eps={eps!r}): pi_p relative error {pi_rel!r}"
        want = self.lib.constants.beta_gamma(p, m, n)
        rel = abs(beta - want) / want
        if not rel <= KNOWN_BETA_MISSES.get((p, m, n), 1.0) * max(BETA_FLOOR, eps):
            return f"beta_value({p}, {m}, {n}, eps={eps!r}) relative error {rel!r}"
        return None


class ExactInteger(Workload):
    """Exact integer objects: triangles, numerators, factors, explicit rows, root ladders."""

    name = "exact-integer"

    def __init__(self, lib, refs) -> None:
        self.lib = lib
        self.reference = {}

    def references(self) -> list[str]:
        """Numerators and a deep triangle per (p, m, n), cross-checked once.

        Not timed and not set-up: they are the inputs of the factor ops and
        the references of every check.
        """
        series, triangle = self.lib.series, self.lib.triangle
        j_max = SERIES_J[1]
        problems = []
        for p in EXACT_P:
            for m, n in EXACT_MN:
                params = triangle.SquigParams(p=p, m=m, n=n)
                nums = series.integer_maclaurin(params, j_max)
                tri = triangle.build_triangle(params, n + p * j_max)
                if any(tri.rows[n + p * j].get(j, 0) != nums[j] for j in range(j_max + 1)):
                    problems.append(f"{params}: triangle and integer_maclaurin disagree")
                self.reference[(p, m, n)] = (params, nums, tri.rows)
        return problems

    def make_round(self, rng) -> list:
        # Every (p, m, n) gets one depth from each of EXACT_PASSES equal
        # slices of each kind's range, and the ladders of one p one slice
        # each of LADDER_K, so rounds cost about the same on every seed.
        ops = []
        for p in EXACT_P:
            for m, n in EXACT_MN:
                for kind, (lo, hi) in (
                    ("triangle", TRIANGLE_K),
                    ("numerators", SERIES_J),
                    ("factors", SERIES_J),
                    ("explicit", EXPLICIT_K),
                ):
                    ops += [(kind, (p, m, n), d) for d in _strata(rng, lo, hi, EXACT_PASSES)]
            ladder = _strata(rng, LADDER_K[0], LADDER_K[1], len(EXACT_MN))
            ops += [("ladder", (p, m, n), k) for (m, n), k in zip(EXACT_MN, ladder)]
        p, m, n, k = TAIL_LADDER
        ops.append(("ladder", (p, m, n), k))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, combo, depth = op
        params, nums, _rows = self.reference[combo]
        lib = self.lib
        if kind == "triangle":
            return lib.triangle.build_triangle(params, depth)
        if kind == "numerators":
            return lib.series.integer_maclaurin(params, depth)
        if kind == "factors":
            head = nums[: depth + 1]
            factors = lib.factors
            return factors.factor_sequence(head, params), factors.integer_cf_terms(head, params)
        if kind == "explicit":
            coefficient = lib.explicit.explicit_coefficient
            return [coefficient(params, depth, j) for j in range(depth + 1)]
        return lib.derivpoly.root_ladder(params, depth)

    def check(self, op, result) -> str | None:
        kind, (p, m, n), depth = op
        params, nums, rows = self.reference[(p, m, n)]
        where = f"{kind} p={p} m={m} n={n} depth={depth}"
        if kind == "triangle":
            orders = range((depth - n) // p + 1)
            if any(result.rows[n + p * j].get(j, 0) != nums[j] for j in orders):
                return f"{where}: entries at orders n + pj differ from the numerators"
            if self.lib.triangle.verify_structure(result):
                return f"{where}: verify_structure reports violations"
            return None
        if kind == "numerators":
            if list(result) != [rows[n + p * j].get(j, 0) for j in range(depth + 1)]:
                return f"{where}: numerators differ from the triangle"
            return None
        if kind == "factors":
            return self._check_factors(where, result, nums[: depth + 1], p, n)
        if kind == "explicit":
            if result != [rows[depth].get(j, 0) for j in range(depth + 1)]:
                return f"{where}: explicit row differs from the triangle"
            return None
        return self._check_ladder(where, result, p, m, n, depth)

    @staticmethod
    def _check_factors(where, result, nums, p, n) -> str | None:
        fs, (lead, levels) = result
        n_fact = math.factorial(n)
        if fs.exact[0] != Fraction(nums[0], n_fact) or lead != (nums[0], n_fact):
            return f"{where}: leading term differs"
        for j in range(1, len(nums)):
            if fs.exact[j] * nums[j - 1] * math.perm(n + p * j, p) != nums[j]:
                return f"{where}: factor {j} does not rebuild F_{j}"
            numer = nums[1] * math.factorial(n) if j == 1 else (
                nums[j - 2] * nums[j] * math.perm(n + p * (j - 1), p)
            )
            if levels[j - 1] != (numer, nums[j - 1] * math.perm(n + p * j, p), nums[j]):
                return f"{where}: continued-fraction level {j} differs"
        return None

    def _check_ladder(self, where, ladder, p, m, n, k_max) -> str | None:
        if len(ladder) != k_max + 1:
            return f"{where}: {len(ladder)} levels"
        interlaced = self.lib.derivpoly.interlacing_check
        for k, level in enumerate(ladder):
            j_lo = max(-((n - k) // p), 0)
            j_hi = k - max(-((m - k) // p), 0)
            if len(level.negative_roots) != j_hi - j_lo:
                found = len(level.negative_roots)
                return f"{where}: level {k} has {found} roots, band width {j_hi - j_lo}"
            if k and not interlaced(ladder[k - 1], level):
                return f"{where}: levels {k - 1} and {k} do not interlace"
        return None


WORKLOADS = {w.name: w for w in (EvalWarm, ConstantsCold, ExactInteger)}
