"""The sieve's block kernel, the one user of numpy; loaded by the first sieve.

Each block is sieved in uint16, which wraps, so it holds sigma(n) mod 2^16
exactly at any limit. A candidate meets den*sigma(n) = num*n (mod 2^16) for
at least one target abundancy num/den. Equality implies congruence, so the
candidates hold every solution; the caller's exact test drops the rest.
"""

from math import isqrt

import numpy as np

M = 1 << 16


def _ramp(size: int) -> np.ndarray:
    """RAMP[i] = i mod 2^16 for i < size + 2^16: size residues from any start."""
    return np.resize(np.arange(M, dtype=np.uint16), size + M)


def _sigma_block(lo: int, hi: int) -> np.ndarray:
    """sigma(n) mod 2^16 for all n in [lo, hi) by paired-divisor accumulation.

    For each d <= sqrt(hi-1), the multiples n = d*j with j >= d gain the
    pairs d + j, one ramp slice; the square d*d gains d twice, corrected.
    """
    sig = np.zeros(hi - lo, dtype=np.uint16)
    ramp = _ramp(hi - lo)
    for d in range(1, isqrt(hi - 1) + 1):
        j0, j1 = max(d, -(-lo // d)), (hi - 1) // d
        if j0 > j1:
            continue
        s = (j0 + d) % M
        sig[d * j0 - lo :: d] += ramp[s : s + j1 - j0 + 1]
        if j0 == d:
            sig[d * d - lo : d * d - lo + 1] -= d % M
    return sig


def _scan_block(task) -> list[int]:
    """The n in [lo, hi) whose sigma(n) mod 2^16 meets some target's congruence."""
    lo, hi, targets = task
    sig, n = _sigma_block(lo, hi), _ramp(hi - lo)[lo % M : lo % M + hi - lo]
    hits = (sig * (t.denominator % M) == n * (t.numerator % M) for t in targets)
    hit = next(hits)
    for more in hits:
        hit |= more
    return (np.flatnonzero(hit) + lo).tolist()
