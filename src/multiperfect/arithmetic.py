"""Exact arithmetic for divisor sums, factorization, valuations, and primes.

Everything here is integer or rational and exact; no floating point. The
divisor-sum machinery is multiplicative, so all operations work on numbers
carried together with their prime-power factorization (FactoredInteger).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt

# Trial division handles everything below this; larger cofactors go to rho.
TRIAL_DIVISION_LIMIT = 100_000
# Rho steps of x^2 + c per factorization: enough for sigma(13^36), the
# hardest value the odd-only walks at 10^50 and 10^60 (r = 20) split.
DEFAULT_RHO_BUDGET = 6_300_000


class FactorizationExhausted(Exception):
    """A cofactor resisted the rho step budget, DEFAULT_RHO_BUDGET."""


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its prime-power factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; their product equals ``value``.
    The number 1 has an empty factor tuple.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        prev = 1
        product = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError(f"primes not strictly increasing at {p}")
            if e < 1:
                raise ValueError(f"exponent {e} for prime {p} must be >= 1")
            if not is_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
            product *= p**e
            prev = p
        if product != self.value:
            raise ValueError(
                f"factor product {product} does not reproduce value {self.value}"
            )

    @classmethod
    def from_factors(cls, factors) -> "FactoredInteger":
        value = 1
        for p, e in factors:
            value *= p**e
        return cls(value, tuple(factors))

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )


# ---------------------------------------------------------------------------
# Prime sieve, memoized for concurrent readers
# ---------------------------------------------------------------------------

class _Sieve:
    def __init__(self, limit: int):
        self.limit = limit
        self.marks = bytearray([1]) * (limit + 1)
        self.marks[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if self.marks[p]:
                self.marks[p * p :: p] = bytes((limit - p * p) // p + 1)
        self.primes = tuple(compress(range(limit + 1), self.marks))


_sieve = _Sieve(1)


def _sieve_through(limit: int) -> _Sieve:
    # Readers take a reference to the current immutable _Sieve; growth swaps
    # in a replacement, so a reader never sees a table half built.
    global _sieve
    cur = _sieve
    if cur.limit >= limit:
        return cur
    # 2^17 covers TRIAL_DIVISION_LIMIT and search.CEILING_SIEVE: one build.
    _sieve = _Sieve(max(limit, 2 * cur.limit, 1 << 17))
    return _sieve


def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return ()
    s = _sieve_through(limit)
    return s.primes[: bisect_right(s.primes, limit)]


def prime_count_upto(t) -> int:
    """pi(t): the number of primes not exceeding t (t may be rational)."""
    if t < 0:
        raise ValueError("bound must be non-negative")
    bound = int(t)
    if bound < 2:
        return 0
    s = _sieve_through(bound)
    return bisect_right(s.primes, bound)


def nth_odd_prime(i: int) -> int:
    """The i-th odd prime: 3, 5, 7, 11, ... for i = 1, 2, 3, 4, ..."""
    if i < 1:
        raise ValueError("index must be >= 1")
    s = _sieve
    while len(s.primes) <= i:
        s = _sieve_through(2 * s.limit)
    return s.primes[i]


# ---------------------------------------------------------------------------
# Primality and factorization
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witness sets (thresholds from the usual tables).
_MR_THRESHOLDS = (
    (341_531, (9345883071009581737,)),
    (1_050_535_501, (336781006125, 9639812373923155)),
    (350_269_456_337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55_245_642_489_451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7_999_252_175_582_851, (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585_226_005_592_931_977, (2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437, 1263739024124850375)),
    (18_446_744_073_709_551_616, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    # True if a proves n composite.
    a %= n
    if a <= 1:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test (proven witness sets below ~3.3e24)."""
    if n < 2:
        return False
    s = _sieve
    if n <= s.limit:
        return s.marks[n] == 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for threshold, bases in _MR_THRESHOLDS:
        if n < threshold:
            break
    else:
        # Beyond the proven range; fixed bases keep the test deterministic.
        bases = tuple(primes_upto(100))
    return not any(_mr_witness(a, d, r, n) for a in bases)


def _pollard_rho(n: int, budget: int, k: int = 2) -> tuple[int | None, int]:
    """Brent-cycle rho on x^k + c with a deterministic parameter schedule.

    k = 2 is the classical map. An even k > 2 pays off when every prime
    factor q of n is 1 mod k: x^k then takes only (q - 1)/k + 1 values
    mod q, so the walk cycles about sqrt(k - 1) times sooner.
    The budget and the charge returned are in steps of x^2 + c. An
    evaluation of x^k + c, k > 2, is charged k.bit_length(): pow squares
    k.bit_length() - 1 times and multiplies once per further set bit, and
    measured with CPython 3.11 on 11-40-digit cofactors it cost 3.4-5.9
    steps of x^2 + c for k = 14..118, against a charge of 4-7. A gcd
    follows each batch of up to 128 evaluations (Brent, BIT 20, 1980),
    and the walk stops, spending nothing, before a round's advance of x
    plus first batch, a later batch or a backtrack step that the budget
    left cannot pay for. So a call that finishes within its budget
    returns what any larger budget returns, and a give-up charges no
    step after its last reachable gcd.
    Returns (factor, steps charged); factor is None if the budget ran out.
    """
    cost = 1 if k == 2 else k.bit_length()
    steps = 0
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + (r + min(128, r)) * cost > budget:
                return None, steps
            x = y
            for _ in range(r):
                y = (y * y + c) % n if k == 2 else (pow(y, k, n) + c) % n
            steps += r * cost
            j = 0
            while j < r and g == 1:
                batch = min(128, r - j)
                if steps + batch * cost > budget:
                    return None, steps
                ys = y
                for _ in range(batch):
                    y = (y * y + c) % n if k == 2 else (pow(y, k, n) + c) % n
                    q = q * abs(x - y) % n
                steps += batch * cost
                g = gcd(q, n)
                j += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1 and steps + cost <= budget:
                ys = (ys * ys + c) % n if k == 2 else (pow(ys, k, n) + c) % n
                g = gcd(abs(x - ys), n)
                steps += cost
        if 1 < g < n:
            return g, steps
    return None, steps


def _split_into(
    n: int,
    found: dict[int, int],
    budget: int,
    trial_primes,
    k: int,
    whole: int,
) -> int:
    """Add the prime factors of n to found; return the rho budget left.

    Trial division runs over trial_primes (ascending, or the primes of a
    piece's d and then ascending) while their square does not exceed the
    cofactor; what remains is split by rho on x^k + c, each call's charge
    taken from the budget. ``whole`` is the number being factored, for
    the error message.
    """
    for p in trial_primes:
        if p * p > n:
            break
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d, used = _pollard_rho(m, budget, k)
        budget -= used
        if d is None:
            raise FactorizationExhausted(
                f"cofactor {m} of {whole} exceeded the factorization budget"
            )
        stack.append(d)
        stack.append(m // d)
    return budget


def factorize(n: int) -> FactoredInteger:
    """Factor n >= 1 into a FactoredInteger.

    Trial division by sieved primes handles small factors; remaining
    cofactors go through deterministic Miller-Rabin plus Brent's rho.
    Raises FactorizationExhausted if a cofactor survives the step budget
    (never at desk scale; signals the caller to shrink its search limits).
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; expected n >= 1")
    found: dict[int, int] = {}
    if n > 1:
        _split_into(n, found, DEFAULT_RHO_BUDGET, _primes_one_mod(1), 2, n)
    return FactoredInteger(n, tuple(sorted(found.items())))


# ---------------------------------------------------------------------------
# Divisor sums and valuations
# ---------------------------------------------------------------------------

def sigma_prime_power(p: int, e: int) -> int:
    """Sum of divisors of p^e: 1 + p + ... + p^e = (p^(e+1) - 1)/(p - 1)."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    return (p ** (e + 1) - 1) // (p - 1)


def sigma(n: FactoredInteger) -> int:
    """Sum of all positive divisors of n (multiplicative over prime powers)."""
    out = 1
    for p, e in n.factors:
        out *= sigma_prime_power(p, e)
    return out


def abundancy(n: FactoredInteger) -> Fraction:
    """sigma(n)/n in lowest terms."""
    return Fraction(sigma(n), n.value)


def nu(p: int, n: int) -> int:
    """p-adic valuation: the largest e with p^e dividing n."""
    if n < 1:
        raise ValueError("n must be positive")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def nu_rational(p: int, q: Fraction) -> int:
    """Valuation extended to rationals: nu(numerator) - nu(denominator)."""
    return nu(p, q.numerator) - nu(p, q.denominator)


def unitary_divisors(n: FactoredInteger) -> list[FactoredInteger]:
    """All d | n with gcd(d, n/d) = 1, ascending (includes 1 and n).

    There are exactly 2^omega(n) of them, one per subset of prime powers.
    """
    divs: list[tuple[int, tuple[tuple[int, int], ...]]] = [(1, ())]
    for p, e in n.factors:
        pe = p**e
        divs += [(v * pe, f + ((p, e),)) for v, f in divs]
    divs.sort()
    return [FactoredInteger(v, f) for v, f in divs]


def _cyclotomic_pieces(p: int, n: int) -> list[tuple[int, int]]:
    """(d, Phi_d(p)) for every divisor d > 1 of n, ascending in d.

    Phi_d(p) = (p^d - 1) / prod of Phi_c(p) over the divisors c < d of d,
    with Phi_1(p) = p - 1; every division is exact.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    phi: dict[int, int] = {}
    for d in divisors:
        value = p**d - 1
        for c in divisors:
            if c >= d:
                break
            if d % c == 0:
                value //= phi[c]
        phi[d] = value
    return [(d, phi[d]) for d in divisors[1:]]


@lru_cache(maxsize=None)
def _primes_one_mod(k: int) -> tuple[int, ...]:
    """Primes q <= TRIAL_DIVISION_LIMIT with q = 1 (mod k), ascending.

    k = 1 gives all of them, the trial primes of factorize, and k = 2 the
    odd ones, each as a slice of the sieve's tuple: its int objects are
    shared, not built again.
    """
    if k <= 2:
        return primes_upto(TRIAL_DIVISION_LIMIT)[k - 1 :]
    marks = _sieve_through(TRIAL_DIVISION_LIMIT).marks[: TRIAL_DIVISION_LIMIT + 1]
    return tuple(compress(range(k + 1, len(marks), k), marks[k + 1 :: k]))


# The budget-hit message of each sigma(p^e) that resisted rho, keyed by
# (p, e, DEFAULT_RHO_BUDGET): lru_cache stores no exception, and a repeat
# would spend the whole budget again to fail the same way.
_exhausted: dict[tuple[int, int, int], str] = {}


@lru_cache(maxsize=200_000)
def factored_sigma_prime_power(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """Factorization of sigma(p^e); memoized because chains share prefixes.

    sigma(p^e) = prod of Phi_d(p) over the divisors d > 1 of e + 1, and
    each cyclotomic piece is factored on its own. A prime factor of
    Phi_d(p) divides d or is 1 mod d, so trial division takes the primes
    of d and then only the primes q = 1 (mod k), and rho iterates x^k + c,
    with k = d for even d and k = 2d for odd d (odd q = 1 mod d is then
    1 mod 2d). One rho budget of DEFAULT_RHO_BUDGET x^2 + c steps covers
    all pieces, and rho charges each evaluation of x^k + c its cost in
    such steps, so a budget hit takes no longer than on the unsplit value.
    Exponents are merged across pieces: a prime of e + 1 can divide two.
    A budget hit raises the same FactorizationExhausted on every repeat,
    without factoring again.
    """
    key = (p, e, DEFAULT_RHO_BUDGET)
    if key in _exhausted:
        raise FactorizationExhausted(_exhausted[key])
    value = sigma_prime_power(p, e)
    found: dict[int, int] = {}
    budget = DEFAULT_RHO_BUDGET
    try:
        for d, piece in _cyclotomic_pieces(p, e + 1):
            k = d if d % 2 == 0 else 2 * d
            of_d = [q for q in primes_upto(d) if d % q == 0]
            trial = chain(of_d, _primes_one_mod(k))
            budget = _split_into(piece, found, budget, trial, k, value)
    except FactorizationExhausted as exc:
        _exhausted[key] = str(exc)
        raise
    return FactoredInteger(value, tuple(sorted(found.items()))).factors
