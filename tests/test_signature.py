from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from multiperfect import arithmetic
from multiperfect.arithmetic import (
    FactoredInteger,
    abundancy,
    factorize,
    nu,
    primes_upto,
    sigma,
)
from multiperfect.classify import is_primitive
from multiperfect.search import multiperfect_scan
from multiperfect.signature import (
    ChainSignature,
    EmptyChain,
    NotPrimitive,
    extract_signature,
    next_chain_prime,
    reconstruct,
)

CATALOG = [6, 28, 496, 8128, 120, 672, 523776, 30240, 32760, 2178540, 2]

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def prime_power_products(draw, bound, max_omega, max_exp):
    """A number with 1..max_omega distinct primes below bound, each to an
    exponent in 1..max_exp."""
    primes = draw(st.lists(st.sampled_from(primes_upto(bound)), min_size=1,
                           max_size=max_omega, unique=True))
    return FactoredInteger.from_factors(
        sorted((p, draw(st.integers(1, max_exp))) for p in primes)
    )


@st.composite
def chain_grown(draw, max_omega, max_exp):
    """A number grown one prime power at a time, each new prime drawn from
    the divisor sum of the part so far. Its primes cancel out of alpha, so
    its chain order need not be the sorted order, which a random product's
    almost always is."""
    factors = {draw(st.sampled_from(primes_upto(30))): draw(st.integers(1, max_exp))}
    for _ in range(draw(st.integers(0, max_omega - 1))):
        part = FactoredInteger.from_factors(sorted(factors.items()))
        unused = [q for q, _ in factorize(sigma(part)).factors if q not in factors]
        if not unused:
            break
        factors[draw(st.sampled_from(unused))] = draw(st.integers(1, max_exp))
    return FactoredInteger.from_factors(sorted(factors.items()))


class TestExtract:
    def test_672(self):
        sig = extract_signature(factorize(672))
        assert sig.p1 == 2
        assert sig.exponents == (5, 1, 1)
        assert sig.chain_primes == (2, 3, 7)
        assert sig.alpha == 3

    def test_prime_power(self):
        sig = extract_signature(factorize(2))
        assert sig.p1 == 2
        assert sig.exponents == (1,)
        assert sig.chain_primes == (2,)
        assert sig.alpha == Fraction(3, 2)

    def test_non_primitive_rejected(self):
        with pytest.raises(NotPrimitive):
            extract_signature(factorize(210))

    def test_requires_n_above_one(self):
        with pytest.raises(ValueError):
            extract_signature(factorize(1))

    def test_top_down_rule_hand_check(self):
        # peeling 672 = 2^5 * 3 * 7: cofactor 21 has sigma 32 and only p=3
        # carries excess valuation; then cofactor 7 with sigma 8 gives p=7
        assert sigma(factorize(21)) == 32
        assert nu(3, 21) == 1 and nu(3, 32) == 0
        assert sigma(factorize(7)) == 8

    def test_exponents_read_from_input(self):
        for n in (28, 496, 30240):
            sig = extract_signature(factorize(n))
            for p, e in zip(sig.chain_primes, sig.exponents):
                assert nu(p, n) == e


    def test_does_not_retest_primality(self, monkeypatch):
        # each cofactor's divisor sum comes from sigma(n) by division, so no
        # cofactor is built as a FactoredInteger with its primes re-tested
        inputs = [factorize(n) for n in (672, 2178540, 459818240, 14182439040)]
        expected = [extract_signature(fi) for fi in inputs]

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(arithmetic, "is_prime", refuse)
        assert [extract_signature(fi) for fi in inputs] == expected


class TestNextChainPrime:
    def test_examples(self):
        assert next_chain_prime(Fraction(3), [(2, 5)]) == 3
        assert next_chain_prime(Fraction(3), [(2, 5), (3, 1)]) == 7
        assert next_chain_prime(Fraction(3, 2), [(3, 1)]) == 2

    def test_empty_chain(self):
        with pytest.raises(EmptyChain):
            next_chain_prime(Fraction(3), [])

    def test_used_primes_excluded(self):
        # the valuation criterion holds spuriously for p = 2 here, but a
        # chain prime cannot recur
        chain = [(2, 5), (3, 1)]
        assert next_chain_prime(Fraction(3), chain) not in (2, 3)

    def test_closed_chain_returns_none(self):
        # 672's full chain closes: no prime has excess valuation left
        assert next_chain_prime(Fraction(3), [(2, 5), (3, 1), (7, 1)]) is None

    def test_denominator_primes_are_candidates(self):
        # nu_2(3/2) = -1, so 2 qualifies for any chain lacking it
        assert next_chain_prime(Fraction(3, 2), [(5, 1)]) == 2

    def test_rejects_duplicate_chain_primes(self):
        with pytest.raises(ValueError):
            next_chain_prime(Fraction(3), [(2, 1), (2, 2)])


class TestReconstruct:
    def test_672(self):
        result = reconstruct(Fraction(3), 2, [5, 1, 1])
        assert result.ok
        assert result.number.value == 672
        assert result.chain == ((2, 5), (3, 1), (7, 1))

    def test_not_alpha_perfect(self):
        assert reconstruct(Fraction(2), 3, [1]).failure == "not_alpha_perfect"
        assert reconstruct(Fraction(2), 2, [1]).failure == "not_alpha_perfect"

    def test_chain_broke(self):
        # after (2,1) with alpha=2 the only candidate is 3; after (3,1) the
        # sigma product 3*4 has no prime with excess valuation besides the
        # used ones, so a third exponent cannot be placed
        result = reconstruct(Fraction(2), 2, [1, 1, 1])
        assert result.failure == "chain_broke_at_step"
        assert result.failed_step == 4 or result.failed_step >= 3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reconstruct(Fraction(1), 2, [1])
        with pytest.raises(ValueError):
            reconstruct(Fraction(3), 4, [1])
        with pytest.raises(ValueError):
            reconstruct(Fraction(3), 2, [])
        with pytest.raises(ValueError):
            reconstruct(Fraction(3), 2, [0])


@pytest.fixture(scope="module")
def corpus():
    catalog = [factorize(n) for n in CATALOG]
    scanned = multiperfect_scan(10**6)
    seen = {fi.value for fi in catalog}
    for fi in scanned:
        if fi.value not in seen:
            catalog.append(fi)
    return [fi for fi in catalog if is_primitive(fi)]


class TestSignatureProperties:
    def test_round_trip(self, corpus):
        for fi in corpus:
            sig = extract_signature(fi)
            result = reconstruct(sig.alpha, sig.p1, sig.exponents)
            assert result.ok, f"round trip failed for {fi.value}"
            assert result.number.value == fi.value

    def test_top_down_equals_bottom_up(self, corpus):
        # the load-bearing agreement between the rule that reads n and the
        # rule that only sees (alpha, p1, exponents)
        for fi in corpus:
            sig = extract_signature(fi)
            result = reconstruct(sig.alpha, sig.p1, sig.exponents)
            assert result.ok
            rebuilt_chain = tuple(p for p, _ in result.chain)
            assert rebuilt_chain == sig.chain_primes, f"chain mismatch at {fi.value}"

    def test_injectivity(self, corpus):
        by_alpha: dict = {}
        for fi in corpus:
            sig = extract_signature(fi)
            key = (sig.alpha, sig.p1, sig.exponents)
            assert key not in by_alpha, f"{fi.value} collides with {by_alpha[key]}"
            by_alpha[key] = fi.value

    def test_p1_bound_for_odd_members(self, corpus):
        for fi in corpus:
            if fi.value % 2 == 0:
                continue
            alpha = abundancy(fi)
            s = fi.omega
            assert fi.factors[0][0] <= alpha * s / (alpha - 1)

    @PROPERTY
    @given(st.one_of(prime_power_products(1000, 6, 4), chain_grown(6, 4)))
    def test_round_trip_on_drawn_primitive_numbers(self, fi):
        # Any primitive n, of integer or non-integer abundancy: random
        # products as the benchmark's library queries draw them (primes
        # below 1000, exponents 1..4), and chain-grown numbers.
        assume(is_primitive(fi))
        sig = extract_signature(fi)
        result = reconstruct(sig.alpha, sig.p1, sig.exponents)
        assert result.ok, f"round trip failed for {fi.value}"
        assert result.number.value == fi.value

    @PROPERTY
    @given(st.one_of(prime_power_products(100, 4, 3), chain_grown(4, 3)), st.data())
    def test_reverse_round_trip_from_the_smallest_prime(self, m, data):
        # extract(reconstruct(alpha, p1, exps)) gives back (p1, exps) only
        # when p1 is the rebuilt n's smallest prime and n is primitive; see
        # TestReverseCounterexamples. alpha, p1 and the exponents come from
        # a drawn m, so that about half of the reconstructions succeed.
        alpha = abundancy(m)
        p1 = data.draw(st.sampled_from([p for p, _ in m.factors]))
        exponents = tuple(data.draw(st.permutations([e for _, e in m.factors])))
        result = reconstruct(alpha, p1, exponents)
        assume(result.ok)
        n = result.number
        assume(n.factors[0][0] == p1 and is_primitive(n))
        sig = extract_signature(n)
        assert (sig.alpha, sig.p1, sig.exponents) == (alpha, p1, exponents)

    def test_prime_power_parts_fit_the_limit(self, corpus):
        limit = max(fi.value for fi in corpus)
        for fi in corpus:
            for p, e in fi.factors:
                assert p**e <= limit


class TestReverseCounterexamples:
    """reconstruct can succeed where extract does not give its input back."""

    def test_chain_may_start_above_the_smallest_prime(self):
        result = reconstruct(Fraction(2), 3, [1, 1])
        assert result.ok
        assert result.number.value == 6
        assert extract_signature(result.number).p1 == 2

    def test_rebuilt_number_may_not_be_primitive(self):
        result = reconstruct(Fraction(12, 5), 2, [1, 1, 1])
        assert result.ok
        assert result.number.value == 30
        with pytest.raises(NotPrimitive):
            extract_signature(result.number)


class TestChainSignatureValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ChainSignature(Fraction(3), 2, (1, 1), (2,))

    def test_rejects_wrong_start(self):
        with pytest.raises(ValueError):
            ChainSignature(Fraction(3), 2, (1,), (3,))

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            ChainSignature(Fraction(3), 2, (1, 1), (2, 2))

    def test_value(self):
        sig = ChainSignature(Fraction(3), 2, (5, 1, 1), (2, 3, 7))
        assert sig.value == 672
        assert sig.s == 3
