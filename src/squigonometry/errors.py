"""Exception hierarchy shared across the package.

Everything raised on purpose derives from SquigError, so callers can catch
one base class.  Each subclass also derives from the closest builtin so that
generic handlers (ValueError for bad inputs, ArithmeticError for numeric
breakdown) keep working.  The check_* validators below are the package's one
implementation of input checking.
"""

from __future__ import annotations

import math
import numbers


class SquigError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SquigError, ValueError):
    """Structural parameters out of range (p, m, n, orders, sizes, tolerances)."""


class DomainError(SquigError, ValueError):
    """Numeric argument outside the domain a routine is defined on."""


class PoleError(DomainError):
    """Evaluation requested at a pole of the target function."""


class ConvergenceError(SquigError, RuntimeError):
    """An iteration exhausted its budget before reaching its tolerance."""


class RootCountError(SquigError, RuntimeError):
    """Root isolation found a different number of roots than theory predicts."""


class ZeroDenominatorError(SquigError, ArithmeticError):
    """A continued-fraction denominator vanished at the evaluation point."""


class CostGuardError(SquigError, ValueError):
    """Requested combinatorial computation exceeds the supported problem size."""


# Validators shared by every public entry point: structural inputs fail with
# ParameterError, numeric arguments with DomainError, and bool (an int
# subclass) is never accepted as a number.

def check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Require a non-bool int within [low, high]; None leaves that side open."""
    if value.__class__ is bool or not isinstance(value, int) or not (
        (low is None or value >= low) and (high is None or value <= high)
    ):
        span = f"[{'-inf' if low is None else low}, {'inf' if high is None else high}]"
        raise ParameterError(f"{name} must be an int in {span}, got {value!r}")


def check_powers(m, n, low: int | None = 0) -> None:
    """Require int powers m and n, both >= low unless low is None."""
    check_int("m", m, low)
    check_int("n", n, low)


def check_tolerance(name: str, value) -> None:
    """Require a non-bool real strictly between 0 and 1."""
    if value.__class__ is bool or not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must be a real in (0, 1), got {value!r}")


def check_finite(name: str, value) -> None:
    """Require a finite non-bool real; one isfinite call when it holds."""
    try:
        if math.isfinite(value) and value.__class__ is not bool:
            return
    except (TypeError, ValueError, OverflowError):  # ValueError: Decimal('sNaN')
        pass
    raise DomainError(f"{name} must be a finite real, got {value!r}")


def checked_power(t, k: int) -> float:
    """t^k in binary64; DomainError when the power overflows."""
    try:
        return float(t) ** k
    except OverflowError:
        raise DomainError(f"t={t!r}: t^{k} overflows binary64") from None
