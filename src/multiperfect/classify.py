"""Multiperfection tests, primitivity, and the peeling decomposition.

A number n is k-perfect when sigma(n) = k*n for an integer k >= 2, and
primitive when no unitary divisor d with 1 < d < n satisfies d | sigma(d).
Non-primitive numbers factor into pairwise coprime pieces by repeatedly
peeling off the smallest qualifying unitary divisor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arithmetic import (
    FactoredInteger,
    Record,
    abundancy,
    sigma,
    sigma_prime_power,
)


class PerfectionClass(Record):
    """Abundancy of n plus the multiperfection flags derived from it."""

    __slots__ = ("alpha", "multiperfect", "rational_multiperfect")

    @property
    def status(self) -> str:
        return "multiperfect" if self.multiperfect else "not_multiperfect"


class PrimitiveDecomposition(Record):
    """n = parts[0] * ... * parts[-1] * leftover, FactoredIntegers pairwise coprime.

    Each part d satisfies d | sigma(d) with sigma(d) = multiplier * d and
    was the smallest unitary divisor of the remaining cofactor doing so;
    the leftover admits no such divisor.
    """

    __slots__ = ("parts", "multipliers", "leftover", "leftover_is_multiperfect")

    def __post_init__(self) -> None:
        product = self.leftover.value
        for part in self.parts:
            if gcd(product, part.value) != 1:
                raise ValueError("decomposition pieces are not pairwise coprime")
            product *= part.value
        if len(self.parts) != len(self.multipliers):
            raise ValueError("one multiplier per part required")

    @property
    def value(self) -> int:
        out = self.leftover.value
        for part in self.parts:
            out *= part.value
        return out


def is_k_perfect(n: FactoredInteger, k: int) -> bool:
    """True iff sigma(n) = k*n."""
    return sigma(n) == k * n.value


def classify(n: FactoredInteger) -> PerfectionClass:
    """Compute alpha = sigma(n)/n and flag integer/rational multiperfection."""
    alpha = abundancy(n)
    integer = alpha.denominator == 1 and alpha >= 2
    rational = alpha.denominator > 1 and alpha > 1
    return PerfectionClass(alpha, integer, rational)


def _unitary_sigma_pairs(n: FactoredInteger) -> list[tuple[int, int]]:
    """(d, sigma(d)) for every unitary divisor d of n, in subset order.

    Subset products of n's prime powers, in plain integers: building a
    FactoredInteger per divisor would test n's primes for primality
    again, 2^omega times.
    """
    pairs = [(1, 1)]
    for p, e in n.factors:
        pe, spe = p**e, sigma_prime_power(p, e)
        pairs += [(d * pe, s * spe) for d, s in pairs]
    return pairs


def is_primitive(n: FactoredInteger) -> bool:
    """True iff no unitary divisor d of n with 1 < d < n has d | sigma(d)."""
    return all(s % d for d, s in _unitary_sigma_pairs(n) if 1 < d < n.value)


def primitive_decomposition(n: FactoredInteger) -> PrimitiveDecomposition:
    """Peel the smallest qualifying unitary divisor until none remains.

    At each step the smallest d with 1 < d < cofactor, d unitary in the
    cofactor, and d | sigma(d) is split off; its multiplier is sigma(d)/d.
    The unitary divisors of a cofactor are those of n coprime to what was
    peeled, so one ascending pass over n's finds every step: a divisor
    passed over stays passed over, as the cofactor only shrinks.
    """
    parts: list[FactoredInteger] = []
    multipliers: list[int] = []
    rest = n.value
    for d, s in sorted(_unitary_sigma_pairs(n)):
        if d >= rest:
            break
        if d > 1 and s % d == 0 and gcd(d, n.value // rest) == 1:
            # d is unitary, so its primes are exactly n's primes dividing it.
            parts.append(
                FactoredInteger(d, tuple((p, e) for p, e in n.factors if d % p == 0))
            )
            multipliers.append(s // d)
            rest //= d
    # A new FactoredInteger tests its primes again; a primitive n needs none.
    cofactor = n if rest == n.value else FactoredInteger(
        rest, tuple((p, e) for p, e in n.factors if rest % p == 0)
    )
    return PrimitiveDecomposition(
        tuple(parts), tuple(multipliers), cofactor, classify(cofactor).multiperfect
    )
