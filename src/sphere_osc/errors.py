"""Exception types shared across the package, and the argument checks that raise them.

Every generic check of an input (integer ranges, finite reals, angle and
coordinate intervals, validated numerical envelopes) goes through the four
helpers below, so the package states its domain once.  Checks that encode
the physics of one formula stay next to that formula.
"""

import math
import sys
from numbers import Integral


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(DomainError):
    """Input inside the domain but outside the validated numerical envelope."""


def check_int(name: str, v, lo: int | None = None, hi: int | None = None) -> int:
    """Return `v` as a Python int, or raise DomainError unless it is an integer in [lo, hi].

    Python and numpy integers are accepted alike; bool is not an integer here.
    One no double can hold raises RangeError: every formula takes it to a float.
    """
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise DomainError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if not -sys.float_info.max <= v <= sys.float_info.max:
        raise RangeError(f"{name} has {v.bit_length()} bits, more than a double can hold")
    if (lo is not None and v < lo) or (hi is not None and v > hi):
        bounds = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
        raise DomainError(f"{name} must be an integer {bounds}, got {v!r}")
    return v


def check_real(name: str, v, lo: float = -math.inf, strict: bool = False):
    """Return `v`, or raise DomainError unless it is finite and >= lo (> lo when strict)."""
    if not math.isfinite(v) or v < lo or (strict and v == lo):
        bound = "" if lo == -math.inf else f" and {'>' if strict else '>='} {lo:g}"
        raise DomainError(f"{name} must be finite{bound}, got {v!r}")
    return v


def check_range(name: str, x, lo: float, hi: float, closed: bool = True):
    """Return `x`, or raise DomainError unless every value lies in [lo, hi] ((lo, hi) if not closed).

    A Python number is checked and returned as is; anything else is
    converted with np.asarray(x, dtype=float) first and that array returned.
    NaN lies in no interval.
    """
    if isinstance(x, (int, float)):
        inside = lo <= x <= hi if closed else lo < x < hi
    else:
        import numpy as np  # only an array argument needs it

        x = np.asarray(x, dtype=float)
        inside = np.all((lo <= x) & (x <= hi) if closed else (lo < x) & (x < hi))
    if not inside:
        left, right = "[]" if closed else "()"
        got = f", got {x!r}" if getattr(x, "ndim", 0) == 0 else ""
        raise DomainError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}{got}")
    return x


def check_envelope(name: str, v: float, limit: float):
    """Raise RangeError unless |v| <= limit, the envelope in which results are validated."""
    if not abs(v) <= limit:
        raise RangeError(f"{name}={v:g} outside the validated envelope |{name}| <= {limit:g}")
