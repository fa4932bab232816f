"""Prime-chain signatures of primitive multiperfect numbers.

A primitive number n with sigma(n)/n = alpha is pinned down by its smallest
prime p1 and its exponent sequence alone: peeling prime powers off n in the
order forced by a valuation inequality always yields the same prime at each
step, and that prime can be recomputed from the already-peeled prefix
without knowing n. ``extract_signature`` runs the peeling top-down on n;
``reconstruct`` rebuilds n bottom-up from (alpha, p1, exponents).

The bottom-up rule: with S = product of sigma(p_j^e_j) over the chain so
far, the next prime is the smallest p not yet used with nu_p(S) > nu_p(alpha).
This is equivalent to the top-down rule because sigma is multiplicative:
sigma(n / prefix) = alpha * n / S, so the valuation excess of p in the
unpeeled cofactor equals nu_p(S) - nu_p(alpha).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .arithmetic import (
    FactoredInteger,
    Record,
    factored_sigma_prime_power,
    factorize,
    is_prime,
    nu,
    sigma,
    sigma_prime_power,
)
from .classify import is_primitive


class NotPrimitive(Exception):
    """The input has a unitary divisor d with d | sigma(d); no chain exists."""


class EmptyChain(Exception):
    """The first chain prime is a free choice, not determined by the rule."""


class ChainSignature(Record):
    """(alpha, p1, exponents) plus the prime chain they determine."""

    __slots__ = ("alpha", "p1", "exponents", "chain_primes")

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.chain_primes):
            raise ValueError("one exponent per chain prime required")
        if not self.chain_primes or self.chain_primes[0] != self.p1:
            raise ValueError("chain must start at p1")
        if len(set(self.chain_primes)) != len(self.chain_primes):
            raise ValueError("chain primes must be distinct")

    @property
    def s(self) -> int:
        """Number of distinct primes in the signature."""
        return len(self.chain_primes)

    @property
    def value(self) -> int:
        out = 1
        for p, e in zip(self.chain_primes, self.exponents):
            out *= p**e
        return out


class Reconstruction(Record):
    """Result of rebuilding a number from (alpha, p1, exponents).

    ``failure`` is None on success, otherwise one of "chain_broke_at_step"
    (with ``failed_step`` set), "chain_overran", or "not_alpha_perfect".
    """

    __slots__ = ("number", "chain", "failure", "failed_step")
    _defaults = {"failure": None, "failed_step": None}

    @property
    def ok(self) -> bool:
        return self.failure is None


def extract_signature(n: FactoredInteger) -> ChainSignature:
    """Top-down peeling of a primitive number with sigma(n)/n > 1.

    p1 is the smallest prime factor; after removing each full prime power,
    the next prime is the smallest p dividing the cofactor m with
    nu_p(m) > nu_p(sigma(m)). Raises NotPrimitive when n is not primitive.
    """
    if n.value <= 1:
        raise ValueError("signature requires n > 1")
    if not is_primitive(n):
        raise NotPrimitive(f"{n.value} has a unitary divisor d with d | sigma(d)")
    sm = sigma(n)
    alpha = Fraction(sm, n.value)
    chain = [n.factors[0]]
    remaining = dict(n.factors[1:])
    # remaining keeps n's increasing prime order; sm is sigma of the unpeeled
    # cofactor m, and sigma is multiplicative, so peeling p^e off m divides
    # sigma(p^e) out of sm exactly. The rule cannot stall: a stall would
    # leave m | sigma(m), a unitary divisor 1 < m < n that is_primitive
    # has already rejected.
    sm //= sigma_prime_power(*chain[0])
    while remaining:
        nxt = next(p for p, e in remaining.items() if e > nu(p, sm))
        chain.append((nxt, remaining.pop(nxt)))
        sm //= sigma_prime_power(*chain[-1])
    return ChainSignature(
        alpha=alpha,
        p1=chain[0][0],
        exponents=tuple(e for _, e in chain),
        chain_primes=tuple(p for p, _ in chain),
    )


class ChainRule:
    """The bottom-up rule as incremental state for one alpha.

    Holds the chain (``used``: prime to exponent, in chain order) and
    ``excess``: each nonzero nu_q(S) - nu_q(alpha), S the sigma product over
    the chain. ``add`` and ``undo`` change both by one prime power. The
    excess gives ``next_prime``, the valuation budget and ladder floors.
    """

    __slots__ = ("excess", "used")

    def __init__(self, alpha: Fraction):
        self.excess = {p: -e for p, e in factorize(alpha.numerator).factors}
        self.excess.update(factorize(alpha.denominator).factors)
        self.used: dict[int, int] = {}

    def _shift(self, sigma_factors: Sequence[tuple[int, int]], sign: int) -> None:
        excess = self.excess
        for q, k in sigma_factors:
            x = excess.get(q, 0) + sign * k
            if x:
                excess[q] = x
            else:
                del excess[q]

    def add(self, p: int, e: int, sigma_factors: Sequence[tuple[int, int]]) -> None:
        """Append p^e, whose divisor sum has factorization sigma_factors."""
        self.used[p] = e
        self._shift(sigma_factors, 1)

    def undo(self, p: int, sigma_factors: Sequence[tuple[int, int]]) -> None:
        """Reverse the matching ``add``, leaving the state exactly as before."""
        del self.used[p]
        self._shift(sigma_factors, -1)

    def mandatory(self) -> list[int]:
        """Every unused prime q with nu_q(S) > nu_q(alpha), in no set order.

        Each one divides every n = chain * m (m coprime to the chain) with
        sigma(n) = alpha*n: comparing q-valuations of sigma(chain)*sigma(m)
        = alpha*chain*m gives nu_q(m) = nu_q(S) - nu_q(alpha) + nu_q(sigma(m))
        > 0. A denominator prime that S lacks qualifies too: its excess
        starts out positive.
        """
        used = self.used
        return [q for q, x in self.excess.items() if x > 0 and q not in used]

    def budget_moduli(self, below: Sequence[tuple[int, int]]) -> list[int]:
        """q^(b_q + 1), or 1 if b_q < 0, for each prime q of known exponent in n.

        Those are the used primes (their chain exponents) and each (q, 0) of
        below, a prime n lacks. Comparing q-valuations of S * sigma(m) =
        alpha*n, n = chain * m, gives nu_q(sigma(m)) = b_q = nu_q(n) -
        (nu_q(S) - nu_q(alpha)): no n exists where some b_q < 0, nor for a
        child chain * p^e with q^(b_q + 1) | sigma(p^e).
        """
        excess = self.excess
        return [
            q ** max(e - excess.get(q, 0) + 1, 0)
            for q, e in (*self.used.items(), *below)
        ]

    def next_prime(self) -> int | None:
        """Smallest unused prime p with nu_p(S) > nu_p(alpha), or None."""
        return min(self.mandatory(), default=None)


def next_chain_prime(
    alpha: Fraction, chain: Sequence[tuple[int, int]]
) -> int | None:
    """Smallest unused prime p with nu_p(prod sigma(p_j^e_j)) > nu_p(alpha).

    Returns None when no prime qualifies (the chain is closed).
    """
    if not chain:
        raise EmptyChain("the first chain prime is not determined by the rule")
    rule = ChainRule(alpha)
    for p, e in chain:
        if e < 1:
            raise ValueError(f"exponent {e} for prime {p} must be >= 1")
        if p in rule.used:
            raise ValueError("chain primes must be distinct")
        rule.add(p, e, factored_sigma_prime_power(p, e))
    return rule.next_prime()


def reconstruct(
    alpha: Fraction, p1: int, exponents: Sequence[int]
) -> Reconstruction:
    """Rebuild the number determined by (alpha, p1, exponents), if any.

    Extends the chain one derived prime per exponent, then requires the
    chain to close (no further prime qualifies) and the product to satisfy
    sigma(n) = alpha * n. Failures are reported, not raised.
    """
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    exponents = tuple(exponents)
    if not exponents or any(e < 1 for e in exponents):
        raise ValueError("exponents must be a nonempty sequence of integers >= 1")
    if not is_prime(p1):
        raise ValueError(f"p1 = {p1} is not prime")
    rule = ChainRule(alpha)
    p = p1
    for e in exponents:
        if p is None:
            break
        rule.add(p, e, factored_sigma_prime_power(p, e))
        p = rule.next_prime()
    chain = tuple(rule.used.items())
    if len(chain) < len(exponents):
        return Reconstruction(None, chain, "chain_broke_at_step", len(chain) + 1)
    number = FactoredInteger.from_factors(sorted(chain))
    if sigma(number) * alpha.denominator != alpha.numerator * number.value:
        return Reconstruction(None, chain, "not_alpha_perfect")
    # Unreachable in theory: sigma(n) = alpha*n forces the criterion to fail
    # for every unused prime. Kept as a guard on the derivation itself.
    if p is not None:
        return Reconstruction(None, chain, "chain_overran")
    return Reconstruction(number, chain)
