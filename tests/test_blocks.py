"""The sieve kernel's per-block integer width: int32 where exact, else int64."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multiperfect._blocks as blocks
from multiperfect.arithmetic import factorize, sigma
from multiperfect.search import brute_scan, multiperfect_scan

TARGETS = [Fraction(2), Fraction(9, 5), None]


def _scale(target):
    """max(num, 7*den), the factor the width rule multiplies hi by."""
    num, den = (1, 1) if target is None else (target.numerator, target.denominator)
    return max(num, 7 * den)


@st.composite
def blocks_near_switch(draw):
    """(target, lo, hi): up to 2e8, near 2e8, or with hi either side of the switch.

    Near 2e8 a width three bits too generous would overflow den*sigma(n)
    for 9/5 at most abundant n, so a wrong switch shows there.
    """
    target = draw(st.sampled_from(TARGETS))
    size = draw(st.integers(1, 200))
    switch = -(-(1 << 30) // _scale(target))  # the least hi that takes int64
    lo = draw(
        st.one_of(
            st.integers(1, 2 * 10**8),
            st.integers(15 * 10**7, 2 * 10**8),
            st.integers(switch - 2 * size, switch + size),
        )
    )
    return target, lo, lo + size


class TestWidth:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(blocks_near_switch())
    def test_block_is_exact_in_its_width(self, block):
        target, lo, hi = block
        dtype = blocks._block_dtype(target, hi)
        sig = blocks._sigma_block(lo, hi, dtype)
        n_vals = np.arange(lo, hi, dtype=dtype)
        exact = [sigma(factorize(n)) for n in range(lo, hi)]
        assert sig.dtype == dtype
        assert sig.tolist() == exact
        # The products _meets forms: den*sigma(n) and num*n, or 2n for None.
        num, den = (2, 1) if target is None else (target.numerator, target.denominator)
        assert (den * sig).tolist() == [den * s for s in exact]
        assert (num * n_vals).tolist() == [num * n for n in range(lo, hi)]

    @pytest.mark.parametrize(
        "target, hi64",
        [
            (Fraction(2), 153391690),  # 7 * hi64 = 2^30 + 6
            (None, 153391690),
            (Fraction(9, 5), 30678338),  # 35 * hi64 = 2^30 + 6
            (Fraction(8), 1 << 27),  # 8 * hi64 = 2^30: equality takes int64
        ],
    )
    def test_switch_is_at_two_to_the_thirty(self, target, hi64):
        assert _scale(target) * (hi64 - 1) < 1 << 30 <= _scale(target) * hi64
        assert blocks._block_dtype(target, hi64 - 1) is np.int32
        assert blocks._block_dtype(target, hi64) is np.int64

    @pytest.mark.parametrize("width", [np.int32, np.int64])
    def test_scans_agree_in_either_width(self, monkeypatch, width):
        used = set()
        monkeypatch.setattr(
            blocks, "_block_dtype", lambda target, hi: used.add(width) or width
        )
        scans = (
            [f.value for f in brute_scan(Fraction(2), 10**4, block_size=97)],
            [f.value for f in brute_scan(Fraction(9, 5), 3000, block_size=97)],
            [f.value for f in multiperfect_scan(10**4, block_size=97)],
        )
        assert used == {width}
        assert scans == ([6, 28, 496, 8128], [10], [6, 28, 120, 496, 672, 8128])
