"""Independent pi_p reference and the fixed accuracy probes.

The reference evaluates the quarter-period series

    pi_p / 4 = 2^(-1/p) * sum_k ((1 - 1/p)_k / k!) * 2^(-k) / (p k + 1),

the binomial expansion of integral_0^(2^(-1/p)) (1 - u^p)^(1/p - 1) du, in
stdlib decimal at 40 significant digits.  It gains one bit per term and
shares nothing with the library's float recursion, Newton solve or gamma
oracle, so it can judge all of them.

The probes compute the accuracy metrics outside every timed region from a
fixed probe set, the same for every run and seed: a maximum over a finite
sample moves in coarse steps as the sample changes, so only a fixed sample
makes a change in these figures a change in the library.  Each p=2 error
is in units of 2^-53 against math.sin and math.cos; pi_err_rel_eps is the
largest relative error of compute_pi divided by the epsilon it was asked
for, and beta_err_rel_eps the same for beta_value against beta_gamma, with
eps floored at 1e-11.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext

DIGITS = 40
P_RANGE = range(2, 11)
EVAL_P = (2, 3, 4, 6, 10)
ORACLE_ULPS = 4.0
# Fixed requests for the pi_p and Beta probes: the library default, and
# the two points where beta_value falls furthest short of its request
# (p = 2 near 2^-36, p = 3 near 2^-22).  Fixed, so every seed agrees.
PROBE_EPS = (2.0 ** -53, 2.0 ** -36, 2.0 ** -22)
BETA_MN = ((0, 0), (1, 0), (2, 1), (3, 2))
BETA_FLOOR = 1e-11  # the bound squig verify applies at the default eps

PROBE_SEED = "accuracy-probe"
UNIT = 2.0 ** -53
NEAR_POINTS = 3000
FAR_POINTS = 1500
PYTH_POINTS = 1500


def pi_reference(p: int, digits: int = DIGITS) -> Decimal:
    """pi_p to `digits` significant digits from the quarter-period series."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        one = Decimal(1)
        rising = one - one / p
        tol = Decimal(10) ** -(digits + 5)
        term = one
        total = one
        k = 0
        while True:
            term = term * (rising + k) / (k + 1) / 2
            k += 1
            part = term / (p * k + 1)
            total += part
            if part < tol:
                break
        value = 4 * total * Decimal(2) ** (-one / p)
    with localcontext() as ctx:
        ctx.prec = digits
        return +value


def oracle_problems(refs: dict[int, Decimal], pi_gamma) -> list[str]:
    """Every p where the reference and pi_gamma differ by more than 4 ulp."""
    problems = []
    for p, ref in refs.items():
        ulps = abs(Decimal(pi_gamma(p)) - ref) / Decimal(math.ulp(float(ref)))
        if ulps > ORACLE_ULPS:
            problems.append(f"pi_{p}: series reference is {float(ulps):.2f} ulp from pi_gamma")
    return problems


def eval_mix_point(rng, pi_p: float, bucket: int) -> float:
    """One argument of the evaluation mix.

    Bucket 0 is uniform on |t| <= 4 pi_p, bucket 1 log-uniform on
    [10, 1e4] and bucket 2 log-uniform on [1e4, 1e9], each with a random sign.
    """
    if bucket == 0:
        return rng.uniform(-4.0 * pi_p, 4.0 * pi_p)
    lo, hi = (1.0, 4.0) if bucket == 1 else (4.0, 9.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi)


def mix_buckets(count: int) -> list[int]:
    """Bucket labels in the fixed 80/15/5 proportions of the evaluation mix."""
    mid = round(0.15 * count)
    far = round(0.05 * count)
    return [0] * (count - mid - far) + [1] * mid + [2] * far


def _stratified_log(rng, lo: float, hi: float, count: int) -> list[float]:
    # One draw per equal slice of [log lo, log hi], so the top slice always
    # lands within a fraction of a percent of hi.
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count) for i in range(count)]


def accuracy_metrics(lib, refs: dict[int, Decimal]) -> dict[str, float]:
    """The accuracy metrics, from fresh contexts and fresh pi_p solves."""
    rng = random.Random(PROBE_SEED)
    ev = lib.evalcore
    ctx2 = ev.build_context(2)
    near = 0.0
    for _ in range(NEAR_POINTS):
        t = rng.uniform(-8.0 * math.pi, 8.0 * math.pi)
        near = max(near, abs(ev.sq(ctx2, t) - math.sin(t)), abs(ev.cq(ctx2, t) - math.cos(t)))
    far = 0.0
    for mag in _stratified_log(rng, 8.0 * math.pi, 1e9, FAR_POINTS):
        t = rng.choice((-1.0, 1.0)) * mag
        far = max(far, abs(ev.sq(ctx2, t) - math.sin(t)), abs(ev.cq(ctx2, t) - math.cos(t)))

    resid = 0.0
    for p in EVAL_P:
        ctx = ctx2 if p == 2 else ev.build_context(p)
        pi_p = float(refs[p])
        for bucket in mix_buckets(PYTH_POINTS):
            t = eval_mix_point(rng, pi_p, bucket)
            resid = max(resid, abs(abs(ev.cq(ctx, t)) ** p + abs(ev.sq(ctx, t)) ** p - 1.0))

    constants = lib.constants
    pi_ratio = beta_ratio = 0.0
    for p in P_RANGE:
        for eps in PROBE_EPS:
            constants.compute_pi.cache_clear()
            value = Decimal(constants.compute_pi(p, eps).value)
            pi_ratio = max(pi_ratio, float(abs(value - refs[p]) / refs[p]) / eps)
            for m, n in BETA_MN:
                want = constants.beta_gamma(p, m, n)
                rel = abs(constants.beta_value(p, m, n, eps) - want) / want
                beta_ratio = max(beta_ratio, rel / max(BETA_FLOOR, eps))
    constants.compute_pi.cache_clear()
    return {
        "eval_err_p2_max": near / UNIT,
        "eval_drift_p2_max": far / UNIT,
        "pyth_resid_max": resid,
        "pi_err_rel_eps": pi_ratio,
        "beta_err_rel_eps": beta_ratio,
    }
