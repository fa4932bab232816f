from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from multiperfect import arithmetic
from multiperfect.arithmetic import (
    FactoredInteger,
    abundancy,
    factorize,
    sigma,
    unitary_divisors,
)
from multiperfect.classify import (
    PrimitiveDecomposition,
    classify,
    is_k_perfect,
    is_primitive,
    primitive_decomposition,
)

from conftest import check_decomposition, sigma_naive


class TestIsKPerfect:
    def test_examples(self):
        assert is_k_perfect(factorize(6), 2)
        assert not is_k_perfect(factorize(1), 2)
        assert is_k_perfect(factorize(120), 3)

    def test_against_naive_sigma(self):
        for n in range(1, 1000):
            for k in (2, 3):
                assert is_k_perfect(factorize(n), k) == (sigma_naive(n) == k * n)


class TestClassify:
    def test_multiperfect(self):
        perf = classify(factorize(28))
        assert perf.status == "multiperfect"
        assert perf.alpha == Fraction(2)
        assert not perf.rational_multiperfect

    def test_not_multiperfect(self):
        perf = classify(factorize(10))
        assert perf.status == "not_multiperfect"
        assert perf.alpha == Fraction(9, 5)

    def test_rational_flag(self):
        perf = classify(factorize(2))
        assert perf.rational_multiperfect
        assert perf.alpha == Fraction(3, 2)
        assert not perf.multiperfect

    def test_one_is_nothing(self):
        perf = classify(factorize(1))
        assert perf.alpha == 1
        assert not perf.multiperfect
        assert not perf.rational_multiperfect


class TestIsPrimitive:
    def test_examples(self):
        assert is_primitive(factorize(6))
        assert is_primitive(factorize(672))
        assert not is_primitive(factorize(210))

    def test_against_definition(self):
        # direct quantifier over unitary divisors
        for n in range(1, 3000):
            fi = factorize(n)
            expected = True
            for d in unitary_divisors(fi):
                if 1 < d.value < n and sigma_naive(d.value) % d.value == 0:
                    expected = False
                    break
            assert is_primitive(fi) == expected

    def test_does_not_retest_primality(self, monkeypatch):
        # n's primes were checked when n was factored; is_primitive must not
        # pay for that again on each of its 2^omega unitary divisors
        cases = {
            672: True,
            210: False,
            1379454720: False,  # 3 * 459818240, which is triperfect
            2178540: True,
            2**60 * (2**61 - 1): True,
            3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * (2**61 - 1): True,
        }
        inputs = {n: factorize(n) for n in cases}

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(arithmetic, "is_prime", refuse)
        assert {n: is_primitive(fi) for n, fi in inputs.items()} == cases

    def test_even_perfect_numbers_are_primitive(self):
        # every proper unitary divisor of a perfect number has abundancy
        # below 2, so none can divide its own divisor sum
        for n in (6, 28, 496, 8128, 33550336):
            fi = factorize(n)
            assert abundancy(fi) == 2
            for d in unitary_divisors(fi):
                if 1 < d.value < n:
                    assert abundancy(d) < 2
            assert is_primitive(fi)


class TestPrimitiveDecomposition:
    def test_primitive_number_has_no_parts(self):
        dec = primitive_decomposition(factorize(672))
        assert dec.parts == ()
        assert dec.leftover.value == 672
        assert dec.leftover_is_multiperfect

    def test_210(self):
        dec = primitive_decomposition(factorize(210))
        assert [p.value for p in dec.parts] == [6]
        assert dec.multipliers == (2,)
        assert dec.leftover.value == 35
        assert not dec.leftover_is_multiperfect

    def test_one(self):
        dec = primitive_decomposition(factorize(1))
        assert dec.parts == ()
        assert dec.leftover.value == 1
        assert not dec.leftover_is_multiperfect

    def test_constructed_composites(self):
        for n in (42, 210, 756, 2 * 3 * 11):
            check_decomposition(n, primitive_decomposition(factorize(n)))

    def test_42(self):
        dec = primitive_decomposition(factorize(42))
        assert [p.value for p in dec.parts] == [6]
        assert dec.leftover.value == 7

    def test_756(self):
        # 756 = 28 * 27; the smallest qualifying unitary divisor is 28
        dec = primitive_decomposition(factorize(756))
        assert [p.value for p in dec.parts] == [28]
        assert dec.multipliers == (2,)
        assert dec.leftover.value == 27

    def test_multiperfect_with_nonempty_parts(self):
        # 3 * 459818240 is 4-perfect; 459818240 is 3-perfect and coprime to 3
        n = 3 * 459818240
        fi = factorize(n)
        assert classify(fi).alpha == 4
        dec = primitive_decomposition(fi)
        check_decomposition(n, dec)
        assert dec.parts
        k = 4
        k_prod = 1
        for m in dec.multipliers:
            k_prod *= m
        assert k_prod <= k - 1
        assert sigma(dec.leftover) * k_prod == k * dec.leftover.value

    def test_determinism(self):
        for n in (210, 42, 756, 30240):
            first = primitive_decomposition(factorize(n))
            second = primitive_decomposition(factorize(n))
            assert first == second

    def test_matches_unitary_divisor_scan(self):
        # the peeling rule restated over unitary_divisors, ascending
        def reference(n):
            parts, cofactor = [], n
            while True:
                qualifying = [
                    d.value
                    for d in unitary_divisors(factorize(cofactor))
                    if 1 < d.value < cofactor and sigma(d) % d.value == 0
                ]
                if not qualifying:
                    return parts, cofactor
                parts.append(qualifying[0])
                cofactor //= qualifying[0]

        for n in list(range(1, 3000)) + [30240, 3 * 459818240, 2**6 * 3 * 127 * 5]:
            dec = primitive_decomposition(factorize(n))
            parts, leftover = reference(n)
            assert [p.value for p in dec.parts] == parts
            assert dec.leftover.value == leftover
            for part in dec.parts + (dec.leftover,):
                assert part == factorize(part.value)

    def test_counts_primality_tests(self, monkeypatch):
        # only the peeled parts and the cofactors are built as
        # FactoredIntegers, never each of the 2^omega unitary divisors
        big = 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * (2**61 - 1)
        primitive_input = factorize(3 * big)
        peeled_input = factorize(2 * 3 * big)
        calls = []
        real = arithmetic.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arithmetic, "is_prime", counting)
        dec = primitive_decomposition(primitive_input)
        assert dec.parts == () and dec.leftover == primitive_input
        assert calls == []
        dec = primitive_decomposition(peeled_input)
        assert [p.value for p in dec.parts] == [6]
        assert dec.leftover.value == big
        assert len(calls) == peeled_input.omega

    def test_rejects_non_coprime_pieces(self):
        with pytest.raises(ValueError):
            PrimitiveDecomposition(
                (factorize(6),), (2,), factorize(10), False
            )


def _unitary_divisors_from(factors: dict[int, int]) -> list[int]:
    powers = [p**e for p, e in factors.items()]
    return [prod(c) for k in range(len(powers) + 1) for c in combinations(powers, k)]


class TestPrimitiveDecompositionProperties:
    # A multiperfect seed (or 1) times prime powers that may or may not be
    # coprime to it: about a third of the examples have parts to peel.
    SEEDS = (1, 6, 28, 120, 496, 672, 8128, 30240, 32760, 523776, 459818240)
    PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 41)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.sampled_from(SEEDS),
        st.dictionaries(st.sampled_from(PRIMES), st.integers(1, 4), max_size=4),
    )
    def test_invariants(self, seed, powers):
        sympy = pytest.importorskip("sympy")
        value = seed * prod(p**e for p, e in powers.items())
        n = FactoredInteger.from_factors(sorted(sympy.factorint(value).items()))
        dec = primitive_decomposition(n)
        assert dec.value == n.value
        for part, mult in zip(dec.parts, dec.multipliers):
            assert n.value % part.value == 0
            assert gcd(part.value, n.value // part.value) == 1
            assert sympy.divisor_sigma(part.value) == mult * part.value
        # No unitary divisor 1 < d < leftover has d | sigma(d); the leftover
        # itself may, and then it is flagged multiperfect.
        leftover = dec.leftover.value
        for d in _unitary_divisors_from(sympy.factorint(leftover)):
            qualifies = sympy.divisor_sigma(d) % d == 0
            if 1 < d < leftover:
                assert not qualifies, d
            elif d == leftover > 1:
                assert qualifies == dec.leftover_is_multiperfect
