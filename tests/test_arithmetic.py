import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import multiperfect.arithmetic as arithmetic
from multiperfect.arithmetic import (
    TRIAL_DIVISION_LIMIT,
    FactoredInteger,
    FactorizationExhausted,
    _pollard_rho,
    _primes_one_mod,
    _rho_step_cost,
    abundancy,
    factored_sigma_prime_power,
    factorize,
    is_prime,
    nth_odd_prime,
    nu,
    nu_rational,
    prime_count_upto,
    primes_upto,
    sigma,
    sigma_prime_power,
    unitary_divisors,
)

from conftest import divisors, sigma_naive, trial_factorize, unitary_divisors_naive

# Seeded, so every run draws the same examples; no per-example deadline,
# since a 24-digit semiprime can take rho a good fraction of a second.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)


class TestFactorize:
    def test_672(self):
        assert factorize(672).factors == ((2, 5), (3, 1), (7, 1))

    def test_one_has_empty_factorization(self):
        fi = factorize(1)
        assert fi.value == 1 and fi.factors == ()

    def test_523776(self):
        assert factorize(523776).factors == ((2, 9), (3, 1), (11, 1), (31, 1))

    def test_matches_trial_division_oracle(self):
        for n in list(range(1, 2000)) + [2**31 - 1, 10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13]:
            assert list(factorize(n).factors) == trial_factorize(n)

    def test_round_trip_on_random_inputs(self):
        rng = random.Random(20260810)
        for _ in range(300):
            n = rng.randrange(1, 10**12)
            fi = factorize(n)
            product = 1
            for p, e in fi.factors:
                product *= p**e
            assert product == n == fi.value

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 0)
        p, q = 1_000_003, 1_000_033
        with pytest.raises(FactorizationExhausted):
            factorize(p * q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestFactorizeProperties:
    # Digit counts 1..24 drawn evenly, so most examples need rho, not only
    # trial division.
    @PROPERTY
    @given(st.integers(1, 24).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)))
    def test_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))

    @PROPERTY
    @given(st.integers(1, 10**12), st.integers(TRIAL_DIVISION_LIMIT, 10**12))
    def test_prime_above_trial_division(self, m, start):
        # q is out of trial division's reach, so rho or Miller-Rabin must find it
        sympy = pytest.importorskip("sympy")
        n = m * sympy.nextprime(start)
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items()))


class TestFactoredInteger:
    def test_omega_counts_distinct_primes(self):
        assert factorize(672).omega == 3
        assert factorize(1).omega == 0

    def test_rejects_composite_factor(self):
        with pytest.raises(ValueError):
            FactoredInteger(4, ((4, 1),))

    def test_rejects_unsorted_primes(self):
        with pytest.raises(ValueError):
            FactoredInteger(6, ((3, 1), (2, 1)))

    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            FactoredInteger(10, ((2, 1), (3, 1)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            FactoredInteger(2, ((2, 0),))

    def test_str(self):
        assert str(factorize(672)) == "2^5 * 3 * 7"
        assert str(factorize(1)) == "1"


class TestSigma:
    def test_prime_power_examples(self):
        assert sigma_prime_power(2, 5) == 63
        assert sigma_prime_power(3, 1) == 4
        for p in (2, 3, 5, 97):
            assert sigma_prime_power(p, 0) == 1

    def test_prime_power_matches_enumeration(self):
        # every prime power p^e <= 10**6
        for p in primes_upto(1000):
            e = 1
            while p**e <= 10**6:
                assert sigma_prime_power(p, e) == sigma_naive(p**e)
                e += 1

    def test_sigma_examples(self):
        assert sigma(factorize(6)) == 12
        assert sigma(factorize(1)) == 1
        assert sigma(factorize(120)) == 360

    def test_sigma_matches_divisor_enumeration(self):
        for n in range(1, 3000):
            assert sigma(factorize(n)) == sigma_naive(n)

    def test_multiplicativity_on_coprime_pairs(self):
        rng = random.Random(1913)
        checked = 0
        while checked < 500:
            a = rng.randrange(2, 10**5)
            b = rng.randrange(2, 10**4)
            if a * b > 10**9:
                continue
            from math import gcd

            if gcd(a, b) != 1:
                continue
            assert sigma(factorize(a * b)) == sigma(factorize(a)) * sigma(factorize(b))
            checked += 1


class TestAbundancy:
    def test_examples(self):
        assert abundancy(factorize(6)) == Fraction(2)
        assert abundancy(factorize(1)) == Fraction(1)
        assert abundancy(factorize(2)) == Fraction(3, 2)

    def test_reciprocal_sum_identity(self):
        # abundancy(n) equals the sum of reciprocals of the divisors of n
        for n in range(1, 2000):
            assert abundancy(factorize(n)) == sum(
                Fraction(1, m) for m in divisors(n)
            )


class TestValuations:
    def test_examples(self):
        assert nu(3, 63) == 2
        assert nu(5, 63) == 0
        assert nu_rational(2, Fraction(3, 2)) == -1

    def test_rational_valuation_is_difference(self):
        assert nu_rational(3, Fraction(18, 5)) == 2
        assert nu_rational(3, Fraction(5, 18)) == -2
        assert nu_rational(7, Fraction(5, 18)) == 0

    def test_valuation_extracts_full_power(self):
        for p in (2, 3, 7):
            for e in range(6):
                assert nu(p, p**e * 11) == e


class TestPrimes:
    def test_nth_odd_prime(self):
        assert nth_odd_prime(1) == 3
        assert nth_odd_prime(2) == 5
        assert nth_odd_prime(10) == 31

    def test_nth_odd_prime_against_sieve(self, monkeypatch):
        odd_primes = [p for p in primes_upto(10**4) if p > 2]
        for i in (1, 5, 50, 500, len(odd_primes)):
            assert nth_odd_prime(i) == odd_primes[i - 1]
        # From a cold table, which holds no prime, both calls must grow it.
        monkeypatch.setattr(arithmetic, "_sieve", arithmetic._Sieve(1))
        assert nth_odd_prime(1) == 3
        # The 20001st prime (sympy.prime(20001)), past the first 2^17 table.
        assert nth_odd_prime(20000) == 224743

    def test_prime_count(self):
        assert prime_count_upto(10) == 4
        assert prime_count_upto(1) == 0
        assert prime_count_upto(29) == 10

    def test_prime_count_accepts_rationals(self):
        assert prime_count_upto(10.9) == 4
        assert prime_count_upto(Fraction(29, 1)) == 10
        assert prime_count_upto(Fraction(59, 2)) == 10
        with pytest.raises(ValueError):
            prime_count_upto(-1)

    def test_is_prime_against_sieve(self):
        marks = set(primes_upto(10**4))
        for n in range(10**4):
            assert is_prime(n) == (n in marks)

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**61 - 1))

    def test_primes_one_mod_matches_definition(self):
        table = primes_upto(TRIAL_DIVISION_LIMIT)
        for k in range(2, 301):
            expected = tuple(q for q in table if q % k == 1)
            assert _primes_one_mod.__wrapped__(k) == expected, k

    def test_primes_one_mod_two_shares_the_sieve_ints(self):
        table = primes_upto(TRIAL_DIVISION_LIMIT)
        got = _primes_one_mod.__wrapped__(2)
        assert got == tuple(q for q in table if q % 2 == 1)
        assert all(a is b for a, b in zip(got, table[1:], strict=True))

    def test_growing_sieve_matches_sympy(self, monkeypatch):
        # a fresh table, asked for ever larger limits: the first call builds
        # the floor table, the last one grows it
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(arithmetic, "_sieve", arithmetic._Sieve(1))
        for limit in (10, 2**16, 10**5, 3 * 10**5):
            assert primes_upto(limit) == tuple(sympy.primerange(2, limit + 1))
        assert arithmetic._sieve.limit == 3 * 10**5


class TestUnitaryDivisors:
    def test_examples(self):
        assert [d.value for d in unitary_divisors(factorize(12))] == [1, 3, 4, 12]
        assert [d.value for d in unitary_divisors(factorize(1))] == [1]
        assert [d.value for d in unitary_divisors(factorize(210))] == [
            1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210,
        ]

    def test_matches_gcd_oracle(self):
        for n in range(1, 1000):
            got = [d.value for d in unitary_divisors(factorize(n))]
            assert got == unitary_divisors_naive(n)

    def test_count_is_power_of_two(self):
        for n in (2, 30, 360, 510510):
            fi = factorize(n)
            assert len(unitary_divisors(fi)) == 2**fi.omega

    def test_strict_abundancy_monotonicity_small(self):
        # proper unitary divisors have strictly smaller abundancy
        for n in range(2, 2000):
            fi = factorize(n)
            a_n = abundancy(fi)
            for d in unitary_divisors(fi):
                if 1 < d.value < n:
                    assert abundancy(d) < a_n


def _first_prime_one_mod(k, start):
    q = start - start % k + 1
    while q <= start or not is_prime(q):
        q += k
    return q


class TestPollardRho:
    def test_classical_map_steps_unchanged(self):
        # (factor, steps) of the x^2 + c walk, pinned so that the exponent
        # argument cannot change what factorize does; every map evaluation
        # is a step
        assert _pollard_rho(1_000_003 * 1_000_033, 10**6) == (1_000_033, 1022)
        assert _pollard_rho(1_000_000_007 * 2_000_000_011, 10**6) == (
            1_000_000_007,
            60414,
        )
        assert _pollard_rho(2**64 + 1, 10**6) == (274177, 1918)

    def test_stops_at_the_budget(self):
        assert _pollard_rho(1_000_003 * 1_000_033, 100) == (None, 100)
        assert _pollard_rho(1_000_003 * 1_000_033, 0) == (None, 0)

    def test_every_map_evaluation_is_a_step(self, monkeypatch):
        # x^k + c with k > 2 calls pow once per evaluation, and rho calls
        # pow nowhere else
        calls = []

        def counting_pow(y, k, n):
            calls.append(k)
            return pow(y, k, n)

        monkeypatch.setattr(arithmetic, "pow", counting_pow, raising=False)
        n = _first_prime_one_mod(74, 10**9) * _first_prime_one_mod(74, 10**10)
        for budget in (10**6, 300):
            calls.clear()
            _, steps = _pollard_rho(n, budget, 74)
            assert steps == len(calls) <= budget

    @PROPERTY
    @given(
        st.sampled_from([2, 4, 14, 26, 74]),
        st.integers(10**3, 10**7),
        st.integers(10**3, 10**7),
        st.integers(0, 5000),
    )
    def test_budget_only_cuts_the_walk(self, k, start1, start2, budget):
        # A budget below the steps a walk needs stops it there, with no
        # factor; any other budget leaves it as it is. The budgets one
        # either side of the need check a batch cut by a single step.
        n = _first_prime_one_mod(k, start1) * _first_prime_one_mod(k, start2)
        full = _pollard_rho(n, 10**6, k)
        need = full[1]
        for b in (budget, need - 1, need):
            expected = full if b >= need else (None, b)
            assert _pollard_rho(n, b, k) == expected

    @pytest.mark.parametrize("k", [4, 14, 26, 74])
    def test_power_map_splits_primes_one_mod_k(self, k):
        q1, q2 = _first_prime_one_mod(k, 10**9), _first_prime_one_mod(k, 10**10)
        factor, steps = _pollard_rho(q1 * q2, 10**6, k)
        assert factor in (q1, q2)
        assert 0 < steps < 10**6


class TestFactoredSigmaPrimePower:
    # e + 1 composite, so sigma(p^e) splits into several cyclotomic pieces,
    # then e + 1 prime, a single piece Phi_{e+1}(p)
    COMPOSITE = [(2, 92), (61, 13), (5, 38), (7, 33)]
    PRIME = [(3, 58), (127, 12), (2, 78)]

    @pytest.mark.parametrize("p, e", COMPOSITE + PRIME)
    def test_matches_sympy(self, p, e):
        sympy = pytest.importorskip("sympy")
        expected = tuple(sorted(sympy.factorint(sigma_prime_power(p, e)).items()))
        assert factored_sigma_prime_power(p, e) == expected

    def test_seeded_grid_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        primes = primes_upto(199)
        for _ in range(60):
            p = rng.choice(primes)
            e_max = 1
            while p ** (e_max + 1) < 10**24:
                e_max += 1
            e = rng.randint(1, e_max)
            expected = sympy.factorint(sigma_prime_power(p, e))
            assert factored_sigma_prime_power(p, e) == tuple(sorted(expected.items()))

    def test_small_cases_match_factorize(self):
        for p in primes_upto(60):
            for e in range(0, 13):
                assert (
                    factored_sigma_prime_power(p, e)
                    == factorize(sigma_prime_power(p, e)).factors
                )

    def test_zero_budget_still_exhausts(self, monkeypatch):
        # Phi_59(3) = sigma(3^58) has a composite cofactor past trial
        # division, so only rho can split it
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 0)
        with pytest.raises(FactorizationExhausted):
            factored_sigma_prime_power.__wrapped__(3, 58)

    def test_budget_hit_is_remembered(self, monkeypatch):
        # __wrapped__ skips successes other tests left in the lru_cache
        monkeypatch.setattr(arithmetic, "_exhausted", {})
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 0)
        with pytest.raises(FactorizationExhausted) as first:
            factored_sigma_prime_power.__wrapped__(3, 58)

        def refuse(n, budget, k=2):
            raise AssertionError("rho called again")

        monkeypatch.setattr(arithmetic, "_pollard_rho", refuse)
        with pytest.raises(FactorizationExhausted) as again:
            factored_sigma_prime_power.__wrapped__(3, 58)
        assert str(again.value) == str(first.value)
        # A failure holds for its budget only: another budget factors anew.
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 10)
        with pytest.raises(AssertionError, match="rho called again"):
            factored_sigma_prime_power.__wrapped__(3, 58)

    def test_step_cost_is_the_bit_length(self):
        assert _rho_step_cost(2) == 1
        assert _rho_step_cost(14) == 4
        assert _rho_step_cost(74) == 7
        assert _rho_step_cost(118) == 7

    def test_budget_is_charged_by_step_cost(self, monkeypatch):
        # sigma(17^36) = Phi_37(17) is one piece, walked with x^74 + c
        calls = []

        def spy(n, budget, k=2):
            calls.append((budget, k))
            return None, budget

        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 8000)
        monkeypatch.setattr(arithmetic, "_pollard_rho", spy)
        monkeypatch.setattr(arithmetic, "_exhausted", {})
        with pytest.raises(FactorizationExhausted):
            factored_sigma_prime_power.__wrapped__(17, 36)
        assert calls == [(8000 // 7, 74)]
