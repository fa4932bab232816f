import re
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import multiperfect.arithmetic as arithmetic
import multiperfect.search as search
from multiperfect.arithmetic import (
    factored_sigma_prime_power,
    factorize,
    nu,
    nu_rational,
    primes_upto,
    sigma,
    sigma_prime_power,
)
from multiperfect.classify import classify, is_primitive
from multiperfect.search import (
    SearchParams,
    brute_scan,
    chain_count_majorant,
    chain_search,
    multiperfect_scan,
    verify_counts,
)
from multiperfect.signature import ChainRule

from conftest import sigma_naive


PERFECT_BELOW_1E13 = [6, 28, 496, 8128, 33550336, 8589869056, 137438691328]
TRIPERFECT_ALL = [120, 672, 523776, 459818240, 1476304896, 51001180160]
QUADPERFECT_FIRST_12 = [
    30240, 32760, 2178540, 23569920, 45532800, 142990848, 1379454720,
    43861478400, 66433720320, 153003540480, 403031236608, 704575228896,
]


def naive_catalog(alpha: Fraction, limit: int, parity: str = "any") -> list[int]:
    out = []
    for n in range(1, limit + 1):
        if parity == "odd_only" and n % 2 == 0:
            continue
        if Fraction(sigma_naive(n), n) == alpha:
            out.append(n)
    return out


class TestBruteScan:
    def test_perfect_numbers(self):
        assert [f.value for f in brute_scan(Fraction(2), 10**4)] == [6, 28, 496, 8128]

    def test_triperfect_small(self):
        assert [f.value for f in brute_scan(Fraction(3), 10**3)] == [120, 672]

    def test_empty(self):
        assert brute_scan(Fraction(2), 5) == []

    @pytest.mark.parametrize(
        "alpha", [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(9, 5)]
    )
    def test_against_naive_scan(self, alpha):
        got = [f.value for f in brute_scan(alpha, 3000)]
        assert got == naive_catalog(alpha, 3000)

    def test_parity_filter(self):
        assert [f.value for f in brute_scan(Fraction(9, 5), 100)] == [10]
        assert brute_scan(Fraction(9, 5), 100, "odd_only") == []

    def test_block_boundaries(self, monkeypatch):
        # tiny blocks force every splitting edge case
        monkeypatch.setattr(search, "DEFAULT_BLOCK_SIZE", 97)
        got = [f.value for f in brute_scan(Fraction(2), 10**4)]
        assert got == [6, 28, 496, 8128]

    def test_workers_match_serial(self, monkeypatch):
        monkeypatch.setattr(search, "DEFAULT_BLOCK_SIZE", 1 << 16)
        serial = brute_scan(Fraction(3), 10**6, worker_count=1)
        parallel = brute_scan(Fraction(3), 10**6, worker_count=4)
        assert [f.value for f in serial] == [f.value for f in parallel]

    @pytest.mark.parametrize(
        "scan, found",
        [
            (lambda limit, **kw: brute_scan(Fraction(3), limit, **kw), [120, 672, 523776]),
            (multiperfect_scan, [6, 28, 120, 496, 672, 8128, 30240, 32760, 523776, 2178540]),
        ],
        ids=["alpha-3", "any-integer"],
    )
    def test_any_block_size_gives_the_same_sets(self, monkeypatch, scan, found):
        # The ramp is built per block length: blocks past the default 2^20,
        # tiny blocks and short tails all sieve the same sets.
        def values(limit, block_size=search.DEFAULT_BLOCK_SIZE, **kw):
            monkeypatch.setattr(search, "DEFAULT_BLOCK_SIZE", block_size)
            return [f.value for f in scan(limit, **kw)]

        assert values(5 * 10**6) == found
        assert values(5 * 10**6, block_size=1 << 21) == found
        assert values(5 * 10**6, worker_count=4) == found
        small = [n for n in found if n <= 10**4]
        assert values(10**4, block_size=97) == values(10**4, block_size=1 << 21) == small

    @pytest.mark.parametrize("workers", [0, -4])
    def test_worker_count_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="worker_count must be >= 1"):
            brute_scan(Fraction(2), 10**4, worker_count=workers)

    def test_overflow_guard(self, monkeypatch):
        # The kernel reduces num and den mod 2^16, so a large alpha is exact;
        # the one guard is on the limit, and it fires before any block.
        assert brute_scan(Fraction(2**62, 3), 10**6) == []

        def no_blocks(*args):
            raise AssertionError("a block was sieved")

        monkeypatch.setattr(search, "_map", no_blocks)
        with pytest.raises(ValueError, match="limit exceeds"):
            brute_scan(2, 2**62 // 7 + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_scan(Fraction(1), 100)
        with pytest.raises(ValueError):
            brute_scan(Fraction(2), 0)
        with pytest.raises(ValueError):
            brute_scan(Fraction(2), 100, "even_only")


class TestMultiperfectScan:
    def test_catalog_below_one_million(self):
        got = [f.value for f in multiperfect_scan(10**6)]
        assert got == [6, 28, 120, 496, 672, 8128, 30240, 32760, 523776]

    def test_against_naive(self):
        naive = [
            n
            for n in range(1, 10**4 + 1)
            if sigma_naive(n) % n == 0 and sigma_naive(n) >= 2 * n
        ]
        assert [f.value for f in multiperfect_scan(10**4)] == naive

    @pytest.mark.parametrize("workers", [0, -4])
    def test_worker_count_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="worker_count must be >= 1"):
            multiperfect_scan(10**4, worker_count=workers)


class TestChainSearch:
    def test_triperfect_catalog(self):
        report = chain_search(SearchParams(Fraction(3), 6, 10**6))
        assert [f.number.value for f in report.found] == [120, 672, 523776]
        assert all(f.primitive for f in report.found)
        assert report.exhaustive

    def test_odd_perfect_empty(self):
        report = chain_search(SearchParams(Fraction(2), 8, 10**6, "odd_only"))
        assert report.found == ()
        assert report.exhaustive

    def test_single_prime_odd_is_empty(self):
        # sigma(p^e)/p^e < p/(p-1) <= 3/2 < 2 for odd p
        report = chain_search(SearchParams(Fraction(2), 1, 10**6, "odd_only"))
        assert report.found == ()

    def test_hemiperfect(self):
        report = chain_search(SearchParams(Fraction(3, 2), 12, 10**4))
        assert [f.number.value for f in report.found] == [2]

    @pytest.mark.parametrize(
        "alpha,limit",
        [
            (Fraction(2), 10**5),
            (Fraction(3), 10**5),
            (Fraction(4), 10**5),
            (Fraction(3, 2), 10**4),
            (Fraction(9, 5), 10**4),
        ],
    )
    def test_oracle_equivalence(self, alpha, limit):
        oracle = {
            f.value for f in brute_scan(alpha, limit) if is_primitive(f)
        }
        report = chain_search(SearchParams(alpha, 12, limit))
        assert {f.number.value for f in report.found} == oracle

    def test_soundness(self):
        report = chain_search(SearchParams(Fraction(4), 10, 10**7))
        for f in report.found:
            perf = classify(f.number)
            assert perf.alpha == 4
            assert f.primitive == is_primitive(f.number)

    def test_found_sorted_and_unique(self):
        report = chain_search(SearchParams(Fraction(2), 12, 10**7))
        values = [f.number.value for f in report.found]
        assert values == sorted(set(values))

    def test_monotone_in_limit_and_omega(self):
        small = chain_search(SearchParams(Fraction(3), 3, 10**3))
        mid = chain_search(SearchParams(Fraction(3), 6, 10**6))
        wide = chain_search(SearchParams(Fraction(3), 8, 10**7))
        s = {f.number.value for f in small.found}
        m = {f.number.value for f in mid.found}
        w = {f.number.value for f in wide.found}
        assert s <= m <= w

    @pytest.mark.parametrize(
        "alpha,limit,r,expected",
        [
            # OEIS A000396, the perfect numbers below 10^13
            (2, 10**13, 14, PERFECT_BELOW_1E13),
            # OEIS A005820, the six known triperfect numbers
            (3, 10**11, 12, TRIPERFECT_ALL),
            # OEIS A027687, its first 12 terms (all below 10^12)
            (4, 10**12, 12, QUADPERFECT_FIRST_12),
            # the two smallest 5-perfect numbers, alone below 10^11
            (5, 10**11, 12, [14182439040, 31998395520]),
        ],
        ids=["A000396", "A005820", "A027687", "two-smallest-5-perfect"],
    )
    def test_known_answers_beyond_the_sieve(self, alpha, limit, r, expected):
        for n in expected:
            assert sigma(factorize(n)) == alpha * n
        report = chain_search(SearchParams(Fraction(alpha), r, limit))
        assert [f.number.value for f in report.found] == expected
        assert report.exhaustive

    @pytest.mark.parametrize(
        "alpha,limit,expected",
        [
            # the smallest 6-perfect number, alone below 10^21
            (6, 10**21, [154345556085770649600]),
            # OEIS A005820, the six known triperfect numbers
            (3, 10**30, TRIPERFECT_ALL),
        ],
        ids=["smallest-6-perfect", "A005820"],
    )
    def test_known_answers_at_twenty_primes(self, alpha, limit, expected):
        for n in expected:
            assert sigma(factorize(n)) == alpha * n
        report = chain_search(SearchParams(Fraction(alpha), 20, limit))
        assert [f.number.value for f in report.found] == expected
        assert report.exhaustive

    def test_no_odd_perfect_number_of_three_primes(self):
        # Every odd perfect number n with r distinct primes has n < 2^(4^r)
        # (Nielsen, Integers 3, 2003, A14), so this walk at that limit is
        # limit-free: no odd perfect number has at most 3 distinct primes.
        report = chain_search(SearchParams(Fraction(2), 3, 2**64, "odd_only"))
        assert report.found == ()
        assert report.exhaustive

    def test_no_odd_perfect_number_below_ten_to_the_sixty(self):
        # No odd perfect number is below 10^300 (Brent, Cohen & te Riele,
        # Math. Comp. 57, 1991), so this walk must find none, with every
        # sigma(p^e) on its way factored.
        report = chain_search(SearchParams(Fraction(2), 20, 10**60, "odd_only"))
        assert report.found == ()
        assert report.exhaustive and report.incomplete_branches == ()

    def test_count_by_omega(self):
        report = chain_search(SearchParams(Fraction(3), 6, 10**6))
        assert report.count_by_omega == {3: 2, 4: 1}

    def test_deterministic_across_runs_and_workers(self):
        params1 = SearchParams(Fraction(3), 8, 10**6, worker_count=1)
        a = chain_search(params1)
        b = chain_search(params1)
        c = chain_search(SearchParams(Fraction(3), 8, 10**6, worker_count=4))
        assert a.found == b.found == c.found
        assert a.nodes_explored == b.nodes_explored == c.nodes_explored
        assert a.pruned_by == b.pruned_by == c.pruned_by

    def test_node_count_majorant(self):
        grids = [
            (Fraction(2), 8, 10**6, "odd_only"),
            (Fraction(3), 10, 10**6, "odd_only"),
            (Fraction(3), 6, 10**6, "any"),
            (Fraction(2), 12, 10**7, "any"),
        ]
        for alpha, r, x, parity in grids:
            report = chain_search(SearchParams(alpha, r, x, parity))
            assert report.nodes_explored <= chain_count_majorant(alpha, r, x)

    def test_majorant_stops_at_the_first_empty_ladder(self, monkeypatch):
        # The 25th odd prime, 101, exceeds x = 100: every term from s = 25 on
        # is 0, so r = 2^23 sums what r = 30 does, from 25 odd primes.
        expected = chain_count_majorant(Fraction(2), 30, 100)
        nth = search.nth_odd_prime
        calls = []

        def counted(i):
            calls.append(i)
            assert len(calls) <= 25, "the majorant kept looping past q > x"
            return nth(i)

        monkeypatch.setattr(search, "nth_odd_prime", counted)
        assert chain_count_majorant(Fraction(2), 1 << 23, 100) == expected == 3236

    def test_prune_counters_present(self):
        report = chain_search(SearchParams(Fraction(3), 6, 10**6))
        assert set(report.pruned_by) == set(search.PRUNE_RULES)
        assert report.pruned_by["p1_bound"] > 0

    def test_factorization_budget_marks_non_exhaustive(self, monkeypatch):
        original = factored_sigma_prime_power

        def flaky(p, e):
            if p == 31:
                raise search.FactorizationExhausted("synthetic budget hit")
            return original(p, e)

        monkeypatch.setattr(search, "factored_sigma_prime_power", flaky)
        report = chain_search(SearchParams(Fraction(3), 6, 10**6, worker_count=1))
        assert not report.exhaustive
        assert report.incomplete_branches
        # 523776 = 2^9 * 3 * 11 * 31 sits past the poisoned prime
        assert 523776 not in {f.number.value for f in report.found}

    def test_budget_hits_are_remembered(self, monkeypatch):
        # A repeated sigma(p^e) budget hit re-raises from the negative cache:
        # the walk cuts the same branches, with fewer rho calls.
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        calls = []
        real = arithmetic._pollard_rho

        def counting(n, budget, k=2):
            calls.append(n)
            return real(n, budget, k)

        monkeypatch.setattr(arithmetic, "_pollard_rho", counting)
        monkeypatch.setattr(arithmetic, "DEFAULT_RHO_BUDGET", 100)
        params = SearchParams(Fraction(2), 16, 10**40, "odd_only")
        runs = []
        for failures in (Forgetful(), {}):
            monkeypatch.setattr(arithmetic, "_exhausted", failures)
            factored_sigma_prime_power.cache_clear()
            calls.clear()
            report = chain_search(params)
            runs.append((report.incomplete_branches, len(calls)))
        (forgetful, forgetful_rho), (remembered, remembered_rho) = runs
        assert remembered == forgetful and len(remembered) == 10
        assert remembered_rho < forgetful_rho

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams(Fraction(1), 3, 100)
        with pytest.raises(ValueError):
            SearchParams(Fraction(2), 0, 100)
        with pytest.raises(ValueError):
            SearchParams(Fraction(2), 3, 0)
        with pytest.raises(ValueError):
            SearchParams(Fraction(2), 3, 100, "evens")
        with pytest.raises(ValueError):
            SearchParams(Fraction(2), 3, 100, worker_count=0)

    def test_oversized_max_omega_is_refused_before_any_prime_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a prime table was built")

        for name in ("primes_upto", "prime_count_upto", "nth_odd_prime"):
            monkeypatch.setattr(search, name, no_table)
        # alpha 2 caps p1 at 2r: r = 2^23 reaches MAX_P1_CAP exactly.
        assert search._p1_cap(Fraction(2), 1 << 23) == search.MAX_P1_CAP
        SearchParams(Fraction(2), 1 << 23, 100)
        for r in ((1 << 23) + 1, 10**9):
            with pytest.raises(ValueError, match="max_omega"):
                SearchParams(Fraction(2), r, 100)
            with pytest.raises(ValueError, match="max_omega"):
                chain_count_majorant(Fraction(2), r, 100)


def direct_next_prime(alpha: Fraction, chain) -> int | None:
    """The chain rule read straight off its definition."""
    s = 1
    for p, e in chain:
        s *= sigma_prime_power(p, e)
    used = {p for p, _ in chain}
    # only primes of S or of alpha's denominator can qualify
    candidates = {p for p, _ in factorize(s * alpha.denominator).factors}
    qualifying = [
        p for p in candidates - used if nu(p, s) > nu_rational(p, alpha)
    ]
    return min(qualifying, default=None)


def direct_budget(alpha: Fraction, chain, below):
    """ChainRule.budget_moduli read straight off its definition."""
    s = prod(sigma_prime_power(p, e) for p, e in chain)
    budgets = [
        (q, nu_rational(q, alpha) + e - nu(q, s)) for q, e in (*chain, *below)
    ]
    return [q ** (b + 1) if b >= 0 else 1 for q, b in budgets]


def direct_excess(alpha: Fraction, chain) -> dict[int, int]:
    """ChainRule.excess read straight off its definition, nonzero entries only.

    Only primes of S * num * den can have a nonzero nu_q(S) - nu_q(alpha).
    """
    s = prod(sigma_prime_power(q, e) for q, e in chain)
    primes = [q for q, _ in factorize(s * alpha.numerator * alpha.denominator).factors]
    excess = {q: nu(q, s) - nu_rational(q, alpha) for q in primes}
    return {q: x for q, x in excess.items() if x}


@contextmanager
def node_rule(walk, p, e):
    """walk.rule with p^e added, as visit holds it at that node; undone on exit."""
    factors = factored_sigma_prime_power(p, e)
    walk.rule.add(p, e, factors)
    yield walk.rule
    walk.rule.undo(p, factors)


class TestChainRule:
    @pytest.mark.parametrize(
        "alpha,limit",
        [(Fraction(4), 10**7), (Fraction(3, 2), 10**6), (Fraction(9, 5), 10**6)],
    )
    def test_matches_direct_definition_on_every_walked_prefix(
        self, alpha, limit, monkeypatch
    ):
        visit = search._Walk.visit
        prefixes = []

        def checked(walk, p, e, product, sigma_prod):
            rule = walk.rule
            before = (dict(rule.excess), tuple(rule.used.items()))
            with node_rule(walk, p, e):
                chain = tuple(rule.used.items())
                assert chain == (*before[1], (p, e))
                assert prod(q**k for q, k in chain) == product, chain
                assert prod(sigma_prime_power(q, k) for q, k in chain) == sigma_prod
                nxt = rule.next_prime()
                assert nxt == direct_next_prime(alpha, chain), chain
                below = walk.below_p1
                assert rule.budget_moduli(below) == direct_budget(alpha, chain, below)
                assert rule.excess == direct_excess(alpha, chain), chain
            prefixes.append(chain)
            visit(walk, p, e, product, sigma_prod)
            # the node and every child added below it have been undone exactly
            assert (rule.excess, tuple(rule.used.items())) == before, chain

        monkeypatch.setattr(search._Walk, "visit", checked)
        report = chain_search(SearchParams(alpha, 12, limit))
        assert len(set(prefixes)) == len(prefixes) == report.nodes_explored

    @pytest.mark.parametrize(
        "alpha,parity",
        [(Fraction(9, 5), "any"), (Fraction(12, 5), "any"), (Fraction(25, 12), "any"),
         (Fraction(32, 25), "any"), (Fraction(49, 27), "odd_only")],
    )
    def test_no_visited_node_holds_a_spent_budget(self, alpha, parity, monkeypatch):
        # Each ladder starts at its prime's floor, and the moduli test keeps
        # every other known prime's budget, down to the root, whose p1 may
        # divide alpha's denominator.
        visit = search._Walk.visit
        visits = []

        def checked(walk, p, e, product, sigma_prod):
            with node_rule(walk, p, e) as rule:
                moduli = rule.budget_moduli(walk.below_p1)
                assert 1 not in moduli, (tuple(rule.used.items()), moduli)
            visits.append(product)
            visit(walk, p, e, product, sigma_prod)

        monkeypatch.setattr(search._Walk, "visit", checked)
        report = chain_search(SearchParams(alpha, 20, 10**30, parity))
        assert len(visits) == report.nodes_explored > 0

    def test_undo_restores_state(self):
        rule = ChainRule(Fraction(9, 5))
        rule.add(3, 4, factored_sigma_prime_power(3, 4))
        before = (dict(rule.excess), dict(rule.used), rule.next_prime())
        factors = factored_sigma_prime_power(11, 2)
        rule.add(11, 2, factors)
        assert list(rule.used.items()) == [(3, 4), (11, 2)]
        rule.undo(11, factors)
        assert (rule.excess, rule.used, rule.next_prime()) == before

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 30),
        st.lists(
            st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), st.integers(1, 6)),
            max_size=5,
            unique_by=lambda pe: pe[0],
        ),
    )
    def test_excess_follows_add_and_undo(self, num, den, chain):
        alpha = Fraction(num, den)
        rule = ChainRule(alpha)
        initial = (dict(rule.excess), rule.next_prime())
        factors = [factored_sigma_prime_power(p, e) for p, e in chain]
        for i, (p, e) in enumerate(chain):
            rule.add(p, e, factors[i])
            assert rule.excess == direct_excess(alpha, chain[: i + 1]), chain
        for (p, _), f in zip(reversed(chain), reversed(factors)):
            rule.undo(p, f)
        assert rule.used == {}
        assert (rule.excess, rule.next_prime()) == initial


@st.composite
def small_searches(draw):
    """(alpha, limit, r, parity) around a solution n0 <= limit <= 10^6.

    alpha is n0's abundancy and r is omega(n0) or a little more, so the
    walk's cuts meet a subtree that holds a solution with few primes to
    spare.
    """
    n0 = draw(st.integers(2, 10**5))
    f = factorize(n0)
    alpha = Fraction(sigma(f), n0)
    r = f.omega + draw(st.integers(0, 2))
    limit = draw(st.integers(n0, 10**6))
    parity = draw(st.sampled_from(["any", "odd_only"]))
    return alpha, limit, r, parity


class TestPruneExactness:
    """Every node or child the walk's cuts drop holds no solution.

    A child c = product * nxt^e with c <= limit that the ladder does not
    yield was cut by a rule (e below nxt's floor among them), and so was a
    node whose whole ladder the mandatory-prime count cut. Neither may be
    a unitary divisor of an n <= limit, with omega(n) <= r and p1 as its
    smallest prime, that the sieve finds.
    """

    @staticmethod
    def cut_subtrees(params, monkeypatch):
        cuts = []
        ladder = search._Walk.ladder
        limit = params.limit

        def recording_ladder(walk, product, sigma_prod, mandatory):
            count = walk.prunes["mandatory_primes"]
            kept = set()
            for item in ladder(walk, product, sigma_prod, mandatory):
                kept.add(item[1])
                yield item
            # With no child kept, nothing below ran: the count moved here.
            if not kept and walk.prunes["mandatory_primes"] == count + 1:
                cuts.append((product, walk.p1))
                return
            nxt = min(mandatory)
            e, power = 1, nxt
            while product * power <= limit:
                if e not in kept:
                    cuts.append((product * power, walk.p1))
                e, power = e + 1, power * nxt

        monkeypatch.setattr(search._Walk, "ladder", recording_ladder)
        report = chain_search(params)
        monkeypatch.undo()
        return cuts, report

    @settings(max_examples=60, deadline=None)
    @given(small_searches())
    def test_no_cut_subtree_holds_a_solution(self, search_args):
        alpha, limit, r, parity = search_args
        params = SearchParams(alpha, r, limit, parity)
        with pytest.MonkeyPatch.context() as monkeypatch:
            cuts, report = self.cut_subtrees(params, monkeypatch)
        assert report.exhaustive
        solutions = [
            (n.value, n.factors[0][0])
            for n in brute_scan(alpha, limit, parity)
            if n.omega <= r
        ]
        for c, p1 in cuts:
            for n, smallest in solutions:
                assert not (
                    smallest == p1 and n % c == 0 and gcd(c, n // c) == 1
                ), (c, n)

    def test_every_rule_cuts_something(self, monkeypatch):
        rules = ("mandatory_primes", "abundancy_ladder", "valuation_budget",
                 "abundancy_ceiling", "forced_cofactor")
        fired = dict.fromkeys(rules, 0)
        # alpha 4 at r = 4 starts ladders above e = 1, at their primes' floors.
        for alpha, r in [(Fraction(3), 3), (Fraction(9, 5), 2), (Fraction(4), 4)]:
            cuts, report = self.cut_subtrees(SearchParams(alpha, r, 10**6), monkeypatch)
            assert len(cuts) >= sum(report.pruned_by[rule] for rule in rules) > 0
            for rule in rules:
                fired[rule] += report.pruned_by[rule]
        assert all(fired.values()), fired


class TestVerifyCounts:
    def test_integer_alpha_checks(self):
        params = SearchParams(Fraction(3), 6, 10**6)
        report = chain_search(params)
        checks = verify_counts(params, report)
        assert len(checks) == 3
        assert all(c.passed for c in checks)
        assert all(c.count == 0 for c in checks)  # no odd members found

    def test_rational_alpha_checks(self):
        params = SearchParams(Fraction(3, 2), 6, 10**4)
        report = chain_search(params)
        checks = verify_counts(params, report)
        assert len(checks) == 1
        assert checks[0].passed

    @pytest.mark.parametrize("alpha, count", [(Fraction(3), 2), (Fraction(3, 2), 1)])
    def test_past_the_absolute_bound_range(self, alpha, count):
        # k*4^(r^3) is evaluated up to r = 20 only.
        params = SearchParams(alpha, 21, 10**4)
        checks = verify_counts(params, chain_search(params))
        assert len(checks) == count
        assert all(c.passed for c in checks)

    def test_tiny_limit_yields_no_checks(self):
        params = SearchParams(Fraction(2), 2, 2)
        report = chain_search(params)
        assert verify_counts(params, report) == []


class TestTasks:
    def test_each_task_descends_the_root_child_its_ladder_kept(self, monkeypatch):
        alpha, limit, r = Fraction(3), 10**6, 6
        task = search._chain_task
        args_seen = []

        def spy(args):
            args_seen.append(args)
            return task(args)

        monkeypatch.setattr(search, "_chain_task", spy)
        report = chain_search(SearchParams(alpha, r, limit, worker_count=1))
        assert [f.number.value for f in report.found] == [120, 672, 523776]
        for a, x, cap, p1, e1, child, child_sigma in args_seen:
            assert (a, x, cap) == (alpha, limit, r)
            assert child == p1**e1
            assert child_sigma == sigma_prime_power(p1, e1)
        roots = {
            (p1, e1)
            for p1 in primes_upto(search._p1_cap(alpha, r))
            for _, e1, _, _ in search._Walk(alpha, limit, r, p1).ladder(1, 1, [p1])
        }
        assert [(args[3], args[4]) for args in args_seen] == sorted(roots)

    def test_one_frame_per_chain_level(self, monkeypatch):
        # visit recurses into itself alone: below a task's root, each chain
        # level adds one Python frame, so the stack depth at every ladder
        # call, less the chain's length, stays the same.
        ladder = search._Walk.ladder
        offsets = set()

        def depth_ladder(walk, *args):
            if walk.rule.used:  # a task walk, not the roots' ladders
                depth, frame = 0, sys._getframe().f_back
                while frame is not None:
                    depth, frame = depth + 1, frame.f_back
                offsets.add(depth - len(walk.rule.used))
            return ladder(walk, *args)

        monkeypatch.setattr(search._Walk, "ladder", depth_ladder)
        report = chain_search(SearchParams(Fraction(3), 6, 10**6))
        assert report.nodes_explored > 0 and len(offsets) == 1, offsets


class TestReverification:
    def test_every_found_number_passes_exact_sigma(self):
        report = chain_search(SearchParams(Fraction(4), 12, 10**7))
        for f in report.found:
            n = f.number.value
            assert sigma(factorize(n)) == 4 * n

    def test_a_result_below_its_root_is_refused(self, monkeypatch):
        # Only the moduli of the primes below p1 keep 6 = 3 * 2 out of the
        # odd-only walk from p1 = 3; with them ignored, the guard refuses it.
        moduli = ChainRule.budget_moduli
        monkeypatch.setattr(
            ChainRule, "budget_moduli", lambda rule, below: moduli(rule, ())
        )
        with pytest.raises(AssertionError, match="chain result 6 has a prime below"):
            chain_search(SearchParams(Fraction(2), 4, 10**4, "odd_only"))


class TestSafetyPaths:
    @pytest.mark.parametrize(
        "alpha,limit,r,parity",
        [(Fraction(4), 10**9, 12, "any"), (Fraction(3), 10**7, 12, "any"),
         (Fraction(2), 10**30, 12, "odd_only"), (Fraction(5), 10**20, 14, "any")],
    )
    def test_ceiling_gives_up_without_losing_a_solution(
        self, alpha, limit, r, parity, monkeypatch
    ):
        params = SearchParams(alpha, r, limit, parity)
        full = chain_search(params)
        steps = search._ceiling_steps
        gave_up = []

        def spy(*args):
            out = steps(*args)
            gave_up.append(out is None)
            return out

        monkeypatch.setattr(search, "_ceiling_steps", spy)
        # Too few ceiling primes: _ceiling_steps runs out and the ceiling
        # cuts nothing there.
        monkeypatch.setattr(search, "CEILING_SIEVE", 20)
        search._ceiling_primes.cache_clear()
        try:
            short = chain_search(params)
        finally:
            search._ceiling_primes.cache_clear()
        assert any(gave_up)
        assert [f.number.value for f in short.found] == [
            f.number.value for f in full.found
        ]
        assert short.exhaustive and full.exhaustive
        assert short.nodes_explored >= full.nodes_explored

    def test_walks_share_one_ceiling_table(self):
        # alpha 2000/1999 at r 2 roots a walk at each of the 550 primes up
        # to its p1 cap, 4000. They all read one table of the primes up to
        # CEILING_SIEVE, so a finished search keeps no table per root; a
        # slice kept for each p1 would hold about 26 MiB here.
        primes_upto(search.CEILING_SIEVE)  # the sieve is built before tracing
        tracemalloc.start()
        try:
            report = chain_search(SearchParams(Fraction(2000, 1999), 2, 10**6))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.exhaustive
        assert held < 2 * 2**20

    def test_recursion_limit_is_reported(self, monkeypatch):
        def too_deep(walk, p, e, product, sigma_prod):
            raise RecursionError

        monkeypatch.setattr(search._Walk, "visit", too_deep)
        report = chain_search(SearchParams(Fraction(3), 6, 10**6))
        assert not report.exhaustive and report.found == ()
        assert report.incomplete_branches
        for branch in report.incomplete_branches:
            assert re.fullmatch(r"p1=\d+ e1=\d+: recursion limit", branch), branch
