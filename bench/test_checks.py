"""Each checker accepts a right answer and rejects a planted wrong one.

Run with ``python3 -m pytest bench/test_checks.py``.
"""

from fractions import Fraction

import sympy
from mpmath import mp

import checks
import workloads


def _record(n: int) -> dict:
    factors = sorted([p, e] for p, e in sympy.factorint(n).items())
    return {"n": str(n), "factors": factors, "omega": len(factors), "primitive": True}


PERFECT_1E4 = [6, 28, 496, 8128]


def test_perfect_set_accepts_the_catalog():
    assert checks.even_perfect_upto(10**4) == PERFECT_1E4
    assert checks.check_perfect_set([_record(n) for n in PERFECT_1E4], 10**4, 8) == []


def test_perfect_set_rejects_a_missing_perfect_number():
    records = [_record(n) for n in PERFECT_1E4 if n != 496]
    problems = checks.check_perfect_set(records, 10**4, 8)
    assert any("496 is missing" in p for p in problems)


def test_records_reject_a_sigma_off_by_one():
    # sigma(2^10) = 2047 = 2 * 1024 - 1
    off = _record(1024)
    off["primitive"] = False
    problems = checks.check_k_perfect_records([_record(28), off], 2, 10**4, 8)
    assert any("1024: sigma(n) = 2047" in p for p in problems)


def test_records_reject_a_wrong_primitive_flag():
    # 1379454720 = 2^8 * 3 * 5 * 7 * 19 * 37 * 73 is 4-perfect, and its
    # unitary divisor 459818240 = 1379454720 / 3 is triperfect.
    assert not checks.is_primitive_ref(1379454720)
    problems = checks.check_k_perfect_records([_record(1379454720)], 4, 10**10, 8)
    assert problems == ["1379454720: primitive flag True is wrong"]


def test_required_4_perfect_terms_are_the_primitive_ones():
    required = checks.required_4_perfect(10**20, 14)
    assert 30240 in required and 1379454720 not in required
    assert len(required) == 17


def test_factorization_rejects_a_composite_prime():
    assert checks.check_factorization(12, [[2, 2], [3, 1]]) == []
    problems = checks.check_factorization(12, [[3, 1], [4, 1]])
    assert any("4 is not prime" in p for p in problems)


def test_verify_rejects_unequal_primitive_sets():
    summary = {
        "oracle": [_record(n) for n in PERFECT_1E4],
        "chain": [_record(n) for n in PERFECT_1E4],
        "primitive_set_equal": True,
        "exhaustive": True,
        "bound_checks": [{"description": "odd", "count": 0, "passed": True}],
    }
    assert checks.check_verify(summary, 10**4, 8) == []
    summary["primitive_set_equal"] = False
    assert checks.check_verify(summary, 10**4, 8) == ["primitive_set_equal is not true"]


def _tight(value) -> list[str]:
    v = checks._exact(value)
    eps = abs(v) / 10**30
    return [str(v - eps), str(v + eps)]


def _bound_report_ratio_alpha():
    """A right bound_report for alpha = 3/2, r = 2, x = 1000."""
    with mp.workprec(400):
        ln_x = mp.log(1000)
        f1 = mp.mpf(1) / (2 * mp.log(3))
        f2 = mp.mpf(4) / (2 * mp.log(3) * mp.log(5))
        prim = mp.mpf(131) / 100 * 3 * ln_x**2
        return {
            "f": {"1": _tight(f1), "2": _tight(f2)},
            "primitive": _tight(prim),
            "multi": None,
            "absolute": None,
            "chain": [],
        }


def test_bound_report_accepts_tight_intervals():
    assert checks.check_bound_report("3/2", 2, 1000, _bound_report_ratio_alpha()) == []


def test_bound_report_rejects_an_interval_missing_the_value():
    report = _bound_report_ratio_alpha()
    lo, hi = (Fraction(t) for t in report["f"]["2"])
    report["f"]["2"] = [str(hi), str(hi + (hi - lo))]
    problems = checks.check_bound_report("3/2", 2, 1000, report)
    assert len(problems) == 1 and "f(2)" in problems[0] and "misses" in problems[0]


def test_bound_report_rejects_a_wide_interval():
    report = _bound_report_ratio_alpha()
    lo, hi = (Fraction(t) for t in report["primitive"])
    report["primitive"] = [str(lo * Fraction(999, 1000)), str(hi)]
    problems = checks.check_bound_report("3/2", 2, 1000, report)
    assert any("wider than 1e-12" in p for p in problems)


def test_decomposition_rejects_a_part_that_is_not_smallest():
    # In 120 * 7^2 the only qualifying unitary divisor is 120.
    n = 120 * 49
    right = {"parts": [[[2, 3], [3, 1], [5, 1]]], "multipliers": [3],
             "leftover": [[7, 2]], "leftover_mp": False}
    assert checks.check_decomposition(n, right) == []
    wrong = dict(right, parts=[], multipliers=[], leftover=[[2, 3], [3, 1], [5, 1], [7, 2]])
    assert checks.check_decomposition(n, wrong) != []


def test_signature_rejects_a_wrong_reconstruction():
    right = {"alpha": "3", "p1": 2, "exponents": [5, 1, 1], "chain": [2, 3, 7],
             "value": 672, "failure": None}
    assert checks.check_signature(672, right) == []
    assert checks.check_signature(672, dict(right, value=None, failure="chain_overran")) != []


def test_workload_constants_are_what_they_claim():
    assert all(sympy.isprime(p) for p in workloads.LARGE_PRIMES)
    for factors in workloads.CATALOG:
        n = workloads.value_of(factors)
        assert sympy.divisor_sigma(n) % n == 0
        assert checks.check_factorization(n, [list(f) for f in factors]) == []


def test_query_inputs_depend_only_on_the_seed():
    a, b = workloads.library_queries(7), workloads.library_queries(7)
    assert a == b and a != workloads.library_queries(8)
    assert len(a) == workloads.QUERIES_PER_ROUND
