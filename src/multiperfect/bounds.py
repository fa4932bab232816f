"""Rigorous evaluation of the count-bound hierarchy.

Every quantity is either an exact integer/rational or an Interval whose
endpoints are exact dyadic rationals obtained from outward-rounded interval
arithmetic (mpmath's iv context). Comparisons against decimal constants are
done on the exact endpoints, never through floats. Natural logarithms
throughout: the final bound-chain step needs log(2^(4^r)) < 4^r, which
holds for ln (ln 2 < 1) and fails for any log base below 2.
"""

from __future__ import annotations

import threading
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

from .arithmetic import Record, nth_odd_prime

DEFAULT_PRECISION = 128
_MAX_PRECISION = 1 << 14
_REL_TOLERANCE = Fraction(1, 10**12)
# The largest r for which k*4^(r^3) and its inequality chain are evaluated.
MAX_ABSOLUTE_R = 20

# mpmath precision is context-global; serialize evaluations.
_iv_lock = threading.Lock()

Number = int | Fraction


class Interval(Record):
    """Closed interval with exact rational endpoints, lower <= upper."""

    __slots__ = ("lower", "upper")

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def contains(self, other: "Interval | Number") -> bool:
        if isinstance(other, Interval):
            return self.lower <= other.lower and other.upper <= self.upper
        return self.lower <= other <= self.upper

    def decimal(self, digits: int = 20) -> tuple[str, str]:
        """Outward-rounded scientific-notation endpoint strings."""
        return (
            _decimal_str(self.lower, digits, up=False),
            _decimal_str(self.upper, digits, up=True),
        )

    def __str__(self) -> str:
        lo, hi = self.decimal(20)
        return f"[{lo}, {hi}]"


def _decimal_str(value: Fraction, digits: int, up: bool) -> str:
    """value to digits significant digits, rounded up or down, as d.dde+XX."""
    if value == 0:
        return "0"
    context = Context(prec=digits, rounding=ROUND_CEILING if up else ROUND_FLOOR)
    q = context.divide(Decimal(value.numerator), Decimal(value.denominator))
    mantissa, exp = f"{q:.{digits - 1}e}".split("e")
    return f"{mantissa}e{int(exp):+03d}"


def _mpf_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ArithmeticError("non-finite interval endpoint")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _as_interval(x) -> Interval:
    lo, hi = x._mpi_
    return Interval(_mpf_fraction(lo), _mpf_fraction(hi))


def _iv_number(iv, v: Number):
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / iv.mpf(v.denominator)
    return iv.mpf(v)


def _evaluate(build, prec: int) -> Interval:
    from mpmath import iv  # loaded by the first evaluation, not by import
    with _iv_lock:
        saved = iv.prec
        try:
            iv.prec = prec
            return _as_interval(build(iv))
        finally:
            iv.prec = saved


def _rigorous(build) -> Interval:
    """Evaluate with a precision-doubling self-check.

    The returned interval must contain the interval recomputed at twice the
    working precision and must have relative width within _REL_TOLERANCE;
    otherwise the working precision doubles and the evaluation repeats.
    """
    prec = DEFAULT_PRECISION
    while prec <= _MAX_PRECISION:
        base = _evaluate(build, prec)
        refined = _evaluate(build, 2 * prec)
        tight = base.width <= _REL_TOLERANCE * abs(base.midpoint)
        if tight and base.contains(refined):
            return base
        prec *= 2
    raise ArithmeticError("interval evaluation did not stabilize")


def _log_limit(iv, r: int, x: Number | None):
    """Interval for ln x; x=None means the conceptual limit 2^(4^r)."""
    if x is None:
        return iv.mpf(4) ** r * iv.log(iv.mpf(2))
    return iv.log(_iv_number(iv, x))


def _require_limit(x: Number | None) -> None:
    if x is not None and x < 3:
        raise ValueError("limit must be at least 3")


# ---------------------------------------------------------------------------
# The bound functions
# ---------------------------------------------------------------------------

def count_coefficient(r: int) -> Interval:
    """r^2 / (2 * ln q_1 * ... * ln q_r) with q_i the i-th odd prime.

    This is the coefficient in front of (ln x)^r in the count bound for odd
    primitive alpha-perfect numbers; it peaks at r = 3 and decreases beyond.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    qs = [nth_odd_prime(i) for i in range(1, r + 1)]

    def build(iv):
        denom = iv.mpf(2)
        for q in qs:
            denom *= iv.log(iv.mpf(q))
        return iv.mpf(r * r) / denom

    return _rigorous(build)


def primitive_count_bound(alpha: Fraction, r: int, x: Number | None) -> Interval:
    """Bound on the number of odd primitive alpha-perfect n <= x, omega <= r.

    1.31 * alpha/(alpha-1) * (ln x)^r in general; 0.05 * (ln x)^r when alpha
    is an integer (where the minimum prime count 9 or 11 applies).
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    _require_limit(x)
    ratio = alpha / (alpha - 1)

    def build(iv):
        lx = _log_limit(iv, r, x)
        if alpha.denominator == 1:
            return _iv_number(iv, Fraction(5, 100)) * lx**r
        return _iv_number(iv, Fraction(131, 100)) * _iv_number(iv, ratio) * lx**r

    return _rigorous(build)


def multiperfect_count_bound(k: int, r: int, x: Number | None) -> Interval:
    """Bound k * (ln x)^((r^2+8r)/9) on odd k-perfect n <= x with omega <= r."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    _require_limit(x)
    expo = Fraction(r * r + 8 * r, 9)

    def build(iv):
        lx = _log_limit(iv, r, x)
        return iv.mpf(k) * iv.exp(iv.log(lx) * _iv_number(iv, expo))

    return _rigorous(build)


def absolute_count_bound(k: int, r: int) -> int:
    """Exact k * 4^(r^3), the limit-free bound for odd k-perfect numbers."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not 1 <= r <= MAX_ABSOLUTE_R:
        raise ValueError(f"r must be between 1 and {MAX_ABSOLUTE_R}")
    return k * 4 ** (r**3)


def omega_floor(alpha_integer: int) -> int:
    """Minimum distinct prime count of a hypothetical odd alpha-perfect n.

    9 for alpha = 2 and 11 for integer alpha >= 3; cited constants, not
    re-proven here.
    """
    if alpha_integer < 2:
        raise ValueError("integer alpha must be >= 2")
    return 9 if alpha_integer == 2 else 11


def bound_chain_check(k: int, r: int) -> list[tuple[str, bool]]:
    """Verify the inequality chain linking the (ln x)-bound to k * 4^(r^3).

    With x = 2^(4^r): k*(ln x)^((r^2+8r)/9) < k*4^((r^3+8r^2)/9) <= k*4^(r^3).
    Exponent steps are exact rational arithmetic; the value comparison runs
    in interval arithmetic against the exact right-hand integer.
    """
    return _chain_check(k, r, None)


def _chain_check(k: int, r: int, lhs: Interval | None) -> list[tuple[str, bool]]:
    # lhs is multiperfect_count_bound(k, r, None), or None to evaluate it here.
    final = absolute_count_bound(k, r)  # also rejects k < 2 and r out of range
    q = Fraction(r * r + 8 * r, 9)
    mid_expo = Fraction(r**3 + 8 * r**2, 9)

    ln2 = _rigorous(lambda iv: iv.log(iv.mpf(2)))
    lnx = _rigorous(lambda iv: _log_limit(iv, r, None))
    if lhs is None:
        lhs = multiperfect_count_bound(k, r, None)
    if mid_expo.denominator == 1:
        mid = k * 4 ** int(mid_expo)
        mid_ok = lhs.upper < mid <= final
    else:
        mid = _rigorous(
            lambda iv: iv.mpf(k) * iv.exp(iv.log(iv.mpf(4)) * _iv_number(iv, mid_expo))
        )
        mid_ok = lhs.upper < mid.lower and mid.upper < final

    return [
        ("ln 2 < 1 (natural log keeps ln x below 4^r)", ln2.upper < 1),
        (f"ln(2^(4^{r})) < 4^{r}", lnx.upper < 4**r),
        (
            f"r*(r^2+8r)/9 = (r^3+8r^2)/9 for r={r}",
            r * q == mid_expo,
        ),
        (
            f"(r^3+8r^2)/9 <= r^3 for r={r}",
            mid_expo <= r**3,
        ),
        (
            f"k*(ln x)^((r^2+8r)/9) < k*4^((r^3+8r^2)/9) <= k*4^(r^3), k={k}",
            mid_ok,
        ),
    ]


class BoundReport(Record):
    """All bound values for one (alpha, r, x) triple.

    ``f_values`` maps i = 1..r to the Interval f(i), ``primitive_count`` is
    an Interval and ``chain_inequalities`` lists (description, holds) pairs.
    The integer-only ``multiperfect_count`` (an Interval) and the exact int
    ``absolute_count`` are None for non-integer alpha.
    """

    __slots__ = (
        "f_values", "primitive_count", "multiperfect_count", "absolute_count",
        "chain_inequalities",
    )


def bound_report(alpha: Fraction, r: int, x: Number | None = None) -> BoundReport:
    """Evaluate every bound at (alpha, r, x) plus f(1..r) and the chain check.

    ``x = None`` stands for the conceptual limit 2^(4^r).
    """
    alpha = Fraction(alpha)
    integer = alpha.denominator == 1
    f_values = {i: count_coefficient(i) for i in range(1, r + 1)}
    primitive = primitive_count_bound(alpha, r, x)
    multi = multiperfect_count_bound(int(alpha), r, x) if integer else None
    exact = integer and r <= MAX_ABSOLUTE_R
    absolute = absolute_count_bound(int(alpha), r) if exact else None
    chain = _chain_check(int(alpha), r, multi if x is None else None) if exact else []
    return BoundReport(
        f_values=f_values,
        primitive_count=primitive,
        multiperfect_count=multi,
        absolute_count=absolute,
        chain_inequalities=chain,
    )
