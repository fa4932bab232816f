"""The sieve kernel: sigma(n) mod 2^16 per block; candidates hold every solution."""

import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import multiperfect._blocks as blocks
from multiperfect.arithmetic import factorize, sigma
from multiperfect.search import DEFAULT_BLOCK_SIZE, INTEGER_ABUNDANCIES

# A scalar overflow in the square correction would only warn; make it fail.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

M = 1 << 16
P = blocks.P

# Mod 2^16, 65536/3 has num = 0 and 65537/65536 has den = 1.
TARGETS = {
    "2": (Fraction(2),),
    "9/5": (Fraction(9, 5),),
    "65536/3": (Fraction(65536, 3),),
    "65537/65536": (Fraction(65537, 65536),),
    "any-integer": INTEGER_ABUNDANCIES,
}

# Every n in 2..2e8 with an integer abundancy (OEIS A007691), and 10 (9/5).
SOLUTIONS = [
    6, 10, 28, 120, 496, 672, 8128, 30240, 32760, 523776, 2178540,
    23569920, 33550336, 45532800, 142990848,
]


# lo = d*d with d | P and P | d*d: a fold that also took d*d = lo would
# count the pair (d, d) twice at n = lo.
FOLD_EDGES = [4620**2, 13860**2, 27720**2]


def _exact(lo, hi):
    return [sigma(factorize(n)) for n in range(lo, hi)]


def _reference_block(lo, hi):
    """sigma(n) mod 2^16 on [lo, hi): one ramp slice per d <= sqrt(hi-1), no fold."""
    sig = np.zeros(hi - lo, dtype=np.uint16)
    ramp = blocks._ramp(hi - lo)
    for d in range(1, isqrt(hi - 1) + 1):
        j0, j1 = max(d, -(-lo // d)), (hi - 1) // d
        if j0 > j1:
            continue
        s = (j0 + d) % M
        sig[d * j0 - lo :: d] += ramp[s : s + j1 - j0 + 1]
        if j0 == d:
            sig[d * d - lo : d * d - lo + 1] -= d % M
    return sig


def _traced_scan(targets):
    """Candidates of one warm 2^20 block, its traced peak and what it keeps, in bytes."""
    lo = 23 * DEFAULT_BLOCK_SIZE + 1
    task = (lo, lo + DEFAULT_BLOCK_SIZE, targets)
    blocks._scan_block(task)  # warm: the fold tables are cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = blocks._scan_block(task)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak - base, current - base


@st.composite
def block_bounds(draw):
    """(lo, hi) with lo anywhere to 2e8 or at an edge of the kernel.

    The edges: over a multiple of 2^16 or a solution, and near a multiple
    of P or the square of a divisor of P.
    """
    size = draw(st.integers(1, 300))
    offset = st.integers(0, size - 1)
    near = st.builds(
        lambda n, k: max(1, n + k),
        st.one_of(
            st.builds(lambda q: q * P, st.integers(1, 3600)),
            st.sampled_from([d * d for d in blocks.DIVISORS_OF_P]),
        ),
        st.integers(-8, 8),
    )
    lo = draw(
        st.one_of(
            st.integers(1, 2 * 10**8),
            st.builds(lambda q, k: q * M - k, st.integers(1, 3000), offset),
            st.builds(lambda n, k: max(1, n - k), st.sampled_from(SOLUTIONS), offset),
            near,
        )
    )
    return lo, lo + size


class TestSigmaBlock:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(block_bounds())
    @example((FOLD_EDGES[0], FOLD_EDGES[0] + 300))
    @example((FOLD_EDGES[1], FOLD_EDGES[1] + 300))
    @example((FOLD_EDGES[2], FOLD_EDGES[2] + 300))
    @example((M * P - 150, M * P + 150))  # the table's rows wrap past 2^16
    def test_block_is_sigma_mod_2_16(self, bounds):
        lo, hi = bounds
        assert blocks._sigma_block(lo, hi).tolist() == [s % M for s in _exact(lo, hi)]

    # A drawn block spans at most two rows of the fold table, a whole one 20.
    @pytest.mark.parametrize("k", [0, 23, FOLD_EDGES[0] // DEFAULT_BLOCK_SIZE])
    def test_whole_block_matches_the_unfolded_loop(self, k):
        lo = k * DEFAULT_BLOCK_SIZE + 1
        hi = lo + DEFAULT_BLOCK_SIZE
        assert np.array_equal(blocks._sigma_block(lo, hi), _reference_block(lo, hi))

    def test_scan_holds_at_most_four_block_arrays(self):
        """Four 2 MiB uint16 arrays at most, and nothing block-sized kept after."""
        _, peak, kept = _traced_scan((Fraction(2),))
        assert peak <= 4 * 2 * DEFAULT_BLOCK_SIZE
        assert kept < 1 << 20

    def test_more_targets_reuse_the_same_buffers(self):
        """Five targets peak within 0.5 MiB of one, and find each one's candidates."""
        five, peak5, _ = _traced_scan(INTEGER_ABUNDANCIES)
        one, peak1, _ = _traced_scan(INTEGER_ABUNDANCIES[:1])
        assert peak5 - peak1 <= 1 << 19
        each = [_traced_scan((t,))[0] for t in INTEGER_ABUNDANCIES]
        assert one == each[0] and five == sorted(set().union(*each))


class TestCandidates:
    @pytest.mark.parametrize("targets", TARGETS.values(), ids=TARGETS.keys())
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(bounds=block_bounds())
    def test_candidates_hold_every_solution(self, targets, bounds):
        lo, hi = bounds
        got = blocks._scan_block((lo, hi, targets))
        assert got == sorted(set(got)) and all(lo <= n < hi for n in got)
        sigmas = zip(range(lo, hi), _exact(lo, hi))
        assert {n for n, s in sigmas if Fraction(s, n) in targets} <= set(got)
