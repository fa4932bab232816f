"""The sieve's block kernel, the one user of numpy; loaded by the first sieve.

Each block is sieved in the narrowest exact integer width: int32 when
max(num, 7*den) * hi < 2^30 for the target num/den (1/1 for any integer
abundancy), int64 otherwise. The proof: sigma(n) < 7n for every n below
1.97e24 (OEIS A023199), so for n < hi the products ``_meets`` forms,
den*sigma(n) and num*n (and 2n for an integer abundancy), stay below 2^30.
A partial sum, at most sigma(n) + d before the square correction, stays
below 2^31 too. The caller's guard, max(num, 7*den) * limit < 2^62, is the
same proof for int64 with the same two bits of headroom.
"""

from math import isqrt

import numpy as np

from .search import _meets


def _block_dtype(target, hi: int):
    """int32 where a block of n < hi is exact in it for target, else int64."""
    num, den = (1, 1) if target is None else (target.numerator, target.denominator)
    return np.int32 if max(num, 7 * den) * hi < 1 << 30 else np.int64


def _sigma_block(lo: int, hi: int, dtype) -> np.ndarray:
    """sigma(n) for all n in [lo, hi) by paired-divisor accumulation.

    For each d <= sqrt(hi-1), every multiple n = d*j with j >= d gains the
    divisor pair d + j; the square n = d*d gains d twice and is corrected.
    """
    sig = np.zeros(hi - lo, dtype=dtype)
    for d in range(1, isqrt(hi - 1) + 1):
        j0 = max(d, -(-lo // d))
        j1 = (hi - 1) // d
        if j0 > j1:
            continue
        count = j1 - j0 + 1
        view = sig[d * j0 - lo :: d][:count]
        view += np.arange(j0 + d, j1 + d + 1, dtype=dtype)
        if j0 <= d <= j1:
            sig[d * d - lo] -= d
    return sig


def _scan_block(task) -> list[int]:
    lo, hi, target = task
    dtype = _block_dtype(target, hi)
    n_vals = np.arange(lo, hi, dtype=dtype)
    hits = np.nonzero(_meets(target, _sigma_block(lo, hi, dtype), n_vals))[0]
    return [int(n) for n in n_vals[hits]]
