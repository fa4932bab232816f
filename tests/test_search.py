from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import multiperfect.search as search
from multiperfect.arithmetic import (
    factored_sigma_prime_power,
    factorize,
    nu,
    nu_rational,
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

    def test_block_boundaries(self):
        # tiny blocks force every splitting edge case
        got = [f.value for f in brute_scan(Fraction(2), 10**4, block_size=97)]
        assert got == [6, 28, 496, 8128]

    def test_workers_match_serial(self):
        serial = brute_scan(Fraction(3), 10**6, worker_count=1, block_size=1 << 16)
        parallel = brute_scan(Fraction(3), 10**6, worker_count=4, block_size=1 << 16)
        assert [f.value for f in serial] == [f.value for f in parallel]

    @pytest.mark.parametrize(
        "scan, found",
        [
            (lambda limit, **kw: brute_scan(Fraction(3), limit, **kw), [120, 672, 523776]),
            (multiperfect_scan, [6, 28, 120, 496, 672, 8128, 30240, 32760, 523776, 2178540]),
        ],
        ids=["alpha-3", "any-integer"],
    )
    def test_any_block_size_gives_the_same_sets(self, scan, found):
        # The ramp is built per block length: blocks past the default 2^20,
        # tiny blocks and short tails all sieve the same sets.
        def values(limit, **kw):
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

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            brute_scan(Fraction(2**62, 3), 10**6)

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

        def checked(walk, chain, product, sigma_prod):
            rule = walk.rule
            before = (dict(rule.sigma_exp), set(rule.used))
            assert rule.used == {p for p, _ in chain}
            assert rule.next_prime() == direct_next_prime(alpha, chain), chain
            prefixes.append(tuple(chain))
            visit(walk, chain, product, sigma_prod)
            # every child added below this node has been undone exactly
            assert (rule.sigma_exp, rule.used) == before, chain

        monkeypatch.setattr(search._Walk, "visit", checked)
        report = chain_search(SearchParams(alpha, 12, limit))
        assert len(set(prefixes)) == len(prefixes) == report.nodes_explored

    def test_undo_restores_state(self):
        rule = ChainRule(Fraction(9, 5))
        rule.add(3, factored_sigma_prime_power(3, 4))
        before = (dict(rule.sigma_exp), set(rule.used), rule.next_prime())
        factors = factored_sigma_prime_power(11, 2)
        rule.add(11, factors)
        rule.undo(11, factors)
        assert (rule.sigma_exp, rule.used, rule.next_prime()) == before


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
    yield was cut by a rule, and so was a node left by the mandatory-prime
    count. Neither may be a unitary divisor of an n <= limit, with omega(n)
    <= r and p1 as its smallest prime, that the sieve finds.
    """

    @staticmethod
    def cut_subtrees(params, monkeypatch):
        cuts = []
        ladder, visit = search._Walk.ladder, search._Walk.visit
        limit = params.limit

        def recording_ladder(walk, product, sigma_prod, nxt, *rest):
            kept = set()
            for item in ladder(walk, product, sigma_prod, nxt, *rest):
                kept.add(item[0])
                yield item
            e, power = 1, nxt
            while product * power <= limit:
                if e not in kept:
                    cuts.append((product * power, walk.p1))
                e, power = e + 1, power * nxt

        def recording_visit(walk, chain, product, sigma_prod):
            nodes, count = walk.nodes, walk.prunes["mandatory_primes"]
            visit(walk, chain, product, sigma_prod)
            if (walk.nodes, walk.prunes["mandatory_primes"]) == (nodes + 1, count + 1):
                cuts.append((product, walk.p1))

        monkeypatch.setattr(search._Walk, "ladder", recording_ladder)
        monkeypatch.setattr(search._Walk, "visit", recording_visit)
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
        rules = ("mandatory_primes", "abundancy_ladder", "abundancy_ceiling",
                 "unmatched_large_prime")
        fired = dict.fromkeys(rules, 0)
        for alpha, r in [(Fraction(3), 3), (Fraction(9, 5), 2)]:
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


class TestReverification:
    def test_every_found_number_passes_exact_sigma(self):
        report = chain_search(SearchParams(Fraction(4), 12, 10**7))
        for f in report.found:
            n = f.number.value
            assert sigma(factorize(n)) == 4 * n
