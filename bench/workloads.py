"""Workload definitions and seeded input generation.

Nothing here imports the program under test or sympy: inputs are built
from the seed with plain integer arithmetic, so generating them costs the
same on every commit and leaks nothing into the timed phase.
"""

from __future__ import annotations

import random
from math import isqrt

# The three batch workloads drive one `mps` command each, one call a round
# (README.md gives the measured round times and rounds per run). The query
# workload issues QUERIES_PER_ROUND library calls per round.
BATCH_ARGV = {
    "verify-sieve": [
        "verify", "--alpha", "2", "--limit", "25000000", "--max-omega", "8",
        "--jobs", "1",
    ],
    "chain-walk": [
        "chain-search", "--alpha", "4", "--limit", str(10**18),
        "--max-omega", "14", "--jobs", "1",
    ],
    "chain-factor": [
        "chain-search", "--alpha", "2", "--limit", str(10**28),
        "--max-omega", "12", "--jobs", "1",
    ],
}
QUERY_WORKLOAD = "library-queries"
WORKLOADS = (*BATCH_ARGV, QUERY_WORKLOAD)

# Calls per round, by kind. The repository records no real call mix (the
# demos call each function a handful of times), so these shares are an
# assumption, not measured use: every kind gets at least 100 calls a
# round, each with its own spread of sizes. The counts are fixed so that every seed gives the
# same cost mix: only which numbers are drawn depends on the seed.
QUERY_MIX = {
    "factorize": 300,
    "classify": 200,
    "is_primitive": 150,
    "decompose": 100,
    "signature": 100,
    "bound_report": 150,
}
QUERIES_PER_ROUND = sum(QUERY_MIX.values())

# is_primitive inputs: 13 per omega for omega 2..11 and 20 at omega 12.
# The omega-12 class is the slowest 2% of calls, placed so that the 99th
# percentile of a round falls inside it rather than on a class boundary,
# where it would jump between classes: query_p99_ms thus reads the cost of
# is_primitive at omega 12 by construction, not a tail seen in real use.
# 2 of those 20 carry the prime 2^61 - 1, which lies above the program's
# prime sieve.
PRIMITIVE_PER_OMEGA = 13
PRIMITIVE_OMEGA_MAX = 12
PRIMITIVE_TOP_COUNT = 20
PRIMITIVE_WITH_M61 = 2
SIGNATURE_REPEATS = 20  # repeated signature inputs: they hit the sigma(p^e) cache

M61 = (1 << 61) - 1
# Primes above the trial-division limit, used as single large cofactors.
LARGE_PRIMES = (
    999_999_937, 1_000_000_007, 1_000_000_009, 2_147_483_647, 4_294_967_291,
    999_999_999_989, M61, 18_446_744_073_709_551_557,
)

# Multiperfect numbers as prime-power factorizations: the first perfect
# numbers (Euclid-Euler), the six known triperfect numbers (OEIS A005820)
# and small 4-perfect numbers (OEIS A027687).
CATALOG = (
    ((2, 1), (3, 1)),
    ((2, 2), (7, 1)),
    ((2, 4), (31, 1)),
    ((2, 6), (127, 1)),
    ((2, 12), (8191, 1)),
    ((2, 16), (131071, 1)),
    ((2, 18), (524287, 1)),
    ((2, 30), (2147483647, 1)),
    ((2, 60), (M61, 1)),
    ((2, 3), (3, 1), (5, 1)),
    ((2, 5), (3, 1), (7, 1)),
    ((2, 9), (3, 1), (11, 1), (31, 1)),
    ((2, 8), (5, 1), (7, 1), (19, 1), (37, 1), (73, 1)),
    ((2, 10), (3, 3), (5, 2), (23, 1), (31, 1), (89, 1)),
    ((2, 14), (5, 1), (7, 1), (19, 1), (31, 1), (151, 1)),
    ((2, 5), (3, 3), (5, 1), (7, 1)),
    ((2, 3), (3, 2), (5, 1), (7, 1), (13, 1)),
    ((2, 2), (3, 2), (5, 1), (7, 2), (13, 1), (19, 1)),
    ((2, 9), (3, 3), (5, 1), (11, 1), (31, 1)),
)

ALPHAS_INT = (2, 3, 4, 5, 6)
ALPHAS_RATIO = ("3/2", "5/2", "7/3", "9/4")


def _primes_below(limit: int) -> list[int]:
    marks = bytearray([1]) * limit
    marks[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if marks[p]:
            marks[p * p :: p] = b"\x00" * ((limit - 1 - p * p) // p + 1)
    return [i for i in range(limit) if marks[i]]


_PRIMES = _primes_below(1_000_000)
SMALL = [p for p in _PRIMES if p < 200]
MID = [p for p in _PRIMES if 200 <= p < 100_000]
RHO = [p for p in _PRIMES if p >= 200_000]  # pairs of these need Brent rho


def value_of(factors) -> int:
    n = 1
    for p, e in factors:
        n *= p**e
    return n


def _sigma_pp(p: int, e: int) -> int:
    return (p ** (e + 1) - 1) // (p - 1)


def primitive_by_factors(factors) -> bool:
    """No unitary divisor d with 1 < d < n divides its own divisor sum."""
    k = len(factors)
    for mask in range(1, (1 << k) - 1):
        d = s = 1
        for i, (p, e) in enumerate(factors):
            if mask >> i & 1:
                d *= p**e
                s *= _sigma_pp(p, e)
        if s % d == 0:
            return False
    return True


def _smooth(rng: random.Random, omega: int, pool, max_exp: int):
    primes = sorted(rng.sample(pool, omega))
    return [(p, rng.randint(1, max_exp)) for p in primes]


def _mixed_smooth(rng: random.Random, omega: int, i: int):
    # 0, 1 or 2 primes above 200 in turn: they set how far trial division runs.
    n_mid = min(i // 8 % 3, omega)
    primes = rng.sample(SMALL, omega - n_mid) + rng.sample(MID, n_mid)
    return [(p, rng.randint(1, 4)) for p in sorted(primes)]


def _omega(i: int) -> int:
    """Omega 1..8 in turn, so every seed gives the same omega mix."""
    return 1 + i % 8


def _factorize_input(rng: random.Random, i: int) -> int:
    # 150 smooth, 90 with one large prime cofactor, 60 with a rho pair.
    n = value_of(_mixed_smooth(rng, _omega(i), i))
    if i < 150:
        return n
    if i < 240:
        return n * rng.choice(LARGE_PRIMES)
    return n * rng.choice(RHO) * rng.choice(RHO)


def _primitive_input(rng: random.Random, i: int) -> int:
    # Even i: odd primes only, redrawn until primitive, so is_primitive
    # scans every unitary divisor. Odd i: 2 * 3 divides n exactly, so the
    # scan stops at d = 6. Fixing the share of each keeps the cost of a
    # round the same for every seed.
    below = PRIMITIVE_PER_OMEGA * (PRIMITIVE_OMEGA_MAX - 2)
    omega = 2 + i // PRIMITIVE_PER_OMEGA if i < below else PRIMITIVE_OMEGA_MAX
    while True:
        if i % 2:
            factors = [(2, 1), (3, 1)] + _smooth(rng, omega - 2, SMALL[2:], 3)
        else:
            factors = _smooth(rng, omega, SMALL[1:], 3)
        if i >= below + PRIMITIVE_TOP_COUNT - PRIMITIVE_WITH_M61:
            factors[-1] = (M61, 1)
        if i % 2 or primitive_by_factors(factors):
            return value_of(factors)


def _signature_inputs(rng: random.Random) -> list[int]:
    distinct = QUERY_MIX["signature"] - SIGNATURE_REPEATS
    catalog = [value_of(f) for f in CATALOG if primitive_by_factors(f)]
    out = rng.sample(catalog, min(len(catalog), distinct // 4))
    while len(out) < distinct:
        factors = _smooth(rng, 2 + len(out) % 5, SMALL + MID[:100], 4)
        if primitive_by_factors(factors):
            out.append(value_of(factors))
    return out + [rng.choice(out) for _ in range(SIGNATURE_REPEATS)]


def _bound_input(rng: random.Random, i: int) -> list:
    # r = 1..20 in turn; every other pass of r at the limit-free x = 2^(4^r).
    alpha = str(rng.choice(ALPHAS_INT)) if i < 90 else rng.choice(ALPHAS_RATIO)
    x = None if i // 20 % 2 else 10 ** rng.randint(3, 60)
    return [alpha, 1 + i % 20, x]


def library_queries(seed: int) -> list[list]:
    """One round of QUERIES_PER_ROUND calls as [kind, args] pairs, shuffled."""
    rng = random.Random(seed)
    queries: list[list] = []
    queries += [["factorize", [_factorize_input(rng, i)]] for i in range(300)]
    for i in range(QUERY_MIX["classify"]):
        if i < 20:
            n = value_of(rng.choice(CATALOG))
        else:
            n = value_of(_mixed_smooth(rng, _omega(i), i))
        queries.append(["classify", [n]])
    queries += [
        ["is_primitive", [_primitive_input(rng, i)]]
        for i in range(QUERY_MIX["is_primitive"])
    ]
    queries += [
        ["decompose", [value_of(_smooth(rng, 2 + i % 7, SMALL, 4))]]
        for i in range(QUERY_MIX["decompose"])
    ]
    queries += [["signature", [n]] for n in _signature_inputs(rng)]
    queries += [
        ["bound_report", _bound_input(rng, i)]
        for i in range(QUERY_MIX["bound_report"])
    ]
    rng.shuffle(queries)
    return queries
