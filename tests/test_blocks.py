"""The sieve kernel: sigma(n) mod 2^16 per block; candidates hold every solution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import multiperfect._blocks as blocks
from multiperfect.arithmetic import factorize, sigma
from multiperfect.search import _meets

# A scalar overflow in the square correction would only warn; make it fail.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

M = 1 << 16

# Mod 2^16, 65536/3 has num = 0 and 65537/65536 has den = 1; None is any integer.
TARGETS = {
    "2": Fraction(2),
    "9/5": Fraction(9, 5),
    "65536/3": Fraction(65536, 3),
    "65537/65536": Fraction(65537, 65536),
    "any-integer": None,
}

# Every n in 2..2e8 with an integer abundancy (OEIS A007691), and 10 (9/5).
SOLUTIONS = [
    6, 10, 28, 120, 496, 672, 8128, 30240, 32760, 523776, 2178540,
    23569920, 33550336, 45532800, 142990848,
]


def _exact(lo, hi):
    return [sigma(factorize(n)) for n in range(lo, hi)]


@st.composite
def block_bounds(draw):
    """(lo, hi) up to 2e8: anywhere, over a multiple of 2^16, or over a solution."""
    size = draw(st.integers(1, 300))
    offset = st.integers(0, size - 1)
    lo = draw(
        st.one_of(
            st.integers(1, 2 * 10**8),
            st.builds(lambda q, k: q * M - k, st.integers(1, 3000), offset),
            st.builds(lambda n, k: max(1, n - k), st.sampled_from(SOLUTIONS), offset),
        )
    )
    return lo, lo + size


class TestSigmaBlock:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(block_bounds())
    def test_block_is_sigma_mod_2_16(self, bounds):
        lo, hi = bounds
        assert blocks._sigma_block(lo, hi).tolist() == [s % M for s in _exact(lo, hi)]


class TestCandidates:
    @pytest.mark.parametrize("target", TARGETS.values(), ids=TARGETS.keys())
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(bounds=block_bounds())
    def test_candidates_hold_every_solution(self, target, bounds):
        lo, hi = bounds
        got = blocks._scan_block((lo, hi, target))
        assert got == sorted(set(got)) and all(lo <= n < hi for n in got)
        sigmas = zip(range(lo, hi), _exact(lo, hi))
        assert {n for n, s in sigmas if _meets(target, s, n)} <= set(got)
