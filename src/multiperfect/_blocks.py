"""The sieve's block kernel, the one user of numpy; loaded by the first sieve.

Each block is sieved in uint16, which wraps, so it holds sigma(n) mod 2^16
exactly at any limit. A candidate meets den*sigma(n) = num*n (mod 2^16) for
at least one target abundancy num/den. Equality implies congruence, so the
candidates hold every solution; the caller's exact test drops the rest.

sigma(n) is the sum of d + n/d over the divisors d of n with d*d < n, plus
sqrt(n) for a square. A block [lo, hi) folds each divisor d of P = 55440 =
2^4*3^2*5*7*11 with d*d < lo into one table. Write n = q*P + c, 0 <= c < P:
as d | P, d | n exactly when d | c, and then n/d = q*(P/d) + c/d. Each n in
the block is at least lo > d*d, so its pair is d + n/d, never the square,
and the folded pairs of n sum to K[c] + q*R[c], with K[c] = sum (d + c/d)
and R[c] = sum P/d over the folded d | c. The test is strict: at d*d = lo
the square n = lo holds d once, and the table would add it twice. Every
other d <= sqrt(hi - 1) adds its pairs as one strided ramp slice.
"""

from functools import lru_cache
from math import isqrt

import numpy as np

M = 1 << 16
P = 55440
DIVISORS_OF_P = tuple(d for d in range(1, P + 1) if P % d == 0)


def _ramp(size: int) -> np.ndarray:
    """RAMP[i] = i mod 2^16 for i < size + 2^16: size residues from any start."""
    return np.resize(np.arange(M, dtype=np.uint16), size + M)


@lru_cache(1)
def _fold_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """K and R mod 2^16 over the k least divisors of P; each term is at most P < 2^16."""
    K, R = np.zeros(P, dtype=np.uint16), np.zeros(P, dtype=np.uint16)
    for d in DIVISORS_OF_P[:k]:
        K[::d] += np.arange(d, d + P // d, dtype=np.uint16)
        R[::d] += P // d
    return K, R


def _sigma_block(lo: int, hi: int) -> np.ndarray:
    """sigma(n) mod 2^16 on [lo, hi): the fold table, then one slice per other d.

    Its multiples n = d*j, j >= d, gain d + j; the square d*d gains d twice, corrected.
    """
    K, R = _fold_tables(sum(d * d < lo for d in DIVISORS_OF_P))
    q, c = divmod(lo, P)
    rows = np.arange(q, q - (-(c + hi - lo) // P)).astype(np.uint16)
    table = np.multiply.outer(rows, R)
    table += K
    sig = table.ravel()[c : c + hi - lo]
    ramp = _ramp(hi - lo)
    for d in range(1, isqrt(hi - 1) + 1):
        if d * d < lo and P % d == 0:
            continue
        j0, j1 = max(d, -(-lo // d)), (hi - 1) // d
        if j0 > j1:
            continue
        s = (j0 + d) % M
        v = sig[d * j0 - lo :: d]
        np.add(v, ramp[s : s + j1 - j0 + 1], out=v)
        if j0 == d:
            sig[d * d - lo : d * d - lo + 1] -= d % M
    return sig


def _scan_block(task) -> list[int]:
    """The n in [lo, hi) whose sigma(n) mod 2^16 meets some target's congruence."""
    lo, hi, targets = task
    sig, n = _sigma_block(lo, hi), _ramp(hi - lo)[lo % M : lo % M + hi - lo]
    # One buffer for every target: num*n - den*sigma(n) wraps to 0 exactly
    # at a match, and miss keeps the n that no target has matched.
    diff, miss = np.empty_like(n), np.ones(hi - lo, dtype=bool)
    for t in targets:
        den, num = t.denominator % M, t.numerator % M
        np.multiply(n, num, out=diff)
        np.subtract(diff, sig if den == 1 else sig * den, out=diff)
        np.logical_and(miss, diff, out=miss)
    return (np.flatnonzero(np.logical_not(miss, out=miss)) + lo).tolist()
