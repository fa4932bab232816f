"""The sieve's block kernel, the one user of numpy; loaded by the first sieve."""

from math import isqrt

import numpy as np

from .search import _meets


def _sigma_block(lo: int, hi: int) -> np.ndarray:
    """sigma(n) for all n in [lo, hi) by paired-divisor accumulation.

    For each d <= sqrt(hi-1), every multiple n = d*j with j >= d gains the
    divisor pair d + j; the square n = d*d gains d twice and is corrected.
    """
    sig = np.zeros(hi - lo, dtype=np.int64)
    for d in range(1, isqrt(hi - 1) + 1):
        j0 = max(d, -(-lo // d))
        j1 = (hi - 1) // d
        if j0 > j1:
            continue
        count = j1 - j0 + 1
        view = sig[d * j0 - lo :: d][:count]
        view += np.arange(j0 + d, j1 + d + 1, dtype=np.int64)
        if j0 <= d <= j1:
            sig[d * d - lo] -= d
    return sig


def _scan_block(task) -> list[int]:
    lo, hi, target = task
    n_vals = np.arange(lo, hi, dtype=np.int64)
    hits = np.nonzero(_meets(target, _sigma_block(lo, hi), n_vals))[0]
    return [int(n) for n in n_vals[hits]]
