"""Checks of the program's outputs, computed apart from the program.

sympy (factorint, isprime, divisor_sigma, prime) and mpmath's real-valued
``mp`` context are the oracles; nothing here imports ``multiperfect``. Each
check returns a list of problems, empty when the output is right. run.py
imports this module only after the timed phase has ended.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy
from mpmath import mp

# No odd perfect number lies below 10^1500 (Ochem & Rao, Math. Comp. 81,
# 2012), so below that the perfect numbers are exactly the even ones that
# Euclid-Euler builds from Mersenne primes.
ODD_PERFECT_FREE_BELOW = 10**1500

# 4-perfect numbers (sigma(n) = 4n), OEIS A027687: its first 19 terms, all
# those below 10^20 (also tabulated on A. Flammenkamp's Multiply Perfect
# Numbers page). Each term is re-checked with sympy before use.
A027687_BELOW_1E20 = (
    30240, 32760, 2178540, 23569920, 45532800, 142990848, 1379454720,
    43861478400, 66433720320, 153003540480, 403031236608, 704575228896,
    181742883469056, 6088728021160320, 14942123276641920,
    20158185857531904, 275502900594021408, 622286506811515392,
    71065075104190073088,
)

MP_BITS = 320
MAX_REL_WIDTH = Fraction(1, 10**12)


@lru_cache(maxsize=None)
def _sigma_pp(p: int, e: int) -> int:
    return int(sympy.divisor_sigma(p**e))


def _unitary(n: int):
    """(d, sigma(d)) for every unitary divisor d of n, from sympy's factors."""
    items = sorted(sympy.factorint(n).items())
    out = [(1, 1)]
    for p, e in items:
        pe, s = p**e, _sigma_pp(p, e)
        out += [(d * pe, sd * s) for d, sd in out]
    return sorted(out)


def is_primitive_ref(n: int) -> bool:
    return all(sd % d for d, sd in _unitary(n) if 1 < d < n)


def even_perfect_upto(limit: int) -> list[int]:
    if limit >= ODD_PERFECT_FREE_BELOW:
        raise ValueError("odd perfect numbers are only excluded below 10^1500")
    out = []
    p = 2
    while 2 ** (p - 1) * (2**p - 1) <= limit:
        if sympy.isprime(2**p - 1):
            out.append(2 ** (p - 1) * (2**p - 1))
        p = int(sympy.nextprime(p))
    return out


def check_factorization(n: int, factors) -> list[str]:
    problems = []
    prev, product = 1, 1
    for p, e in factors:
        if p <= prev or e < 1:
            problems.append(f"{n}: bad factor entry {p}^{e}")
        if not sympy.isprime(p):
            problems.append(f"{n}: listed factor {p} is not prime")
        product *= p**e
        prev = p
    if product != n:
        problems.append(f"{n}: factors multiply to {product}")
    if not problems and dict(factors) != sympy.factorint(n):
        problems.append(f"{n}: factors differ from sympy.factorint")
    return problems


def check_k_perfect_records(records, k: int, limit: int, max_omega: int,
                            required=()) -> list[str]:
    """Every record is k-perfect, below the limit, factored and flagged right;
    every n in ``required`` is among them."""
    problems = []
    seen = set()
    for rec in records:
        n = int(rec["n"])
        seen.add(n)
        if n > limit:
            problems.append(f"{n} exceeds the limit {limit}")
        if sympy.divisor_sigma(n) != k * n:
            problems.append(f"{n}: sigma(n) = {sympy.divisor_sigma(n)}, not {k}*n")
        problems += check_factorization(n, rec["factors"])
        if rec["omega"] != len(rec["factors"]) or rec["omega"] > max_omega:
            problems.append(f"{n}: omega {rec['omega']} is wrong or above {max_omega}")
        if rec["primitive"] != is_primitive_ref(n):
            problems.append(f"{n}: primitive flag {rec['primitive']} is wrong")
    for n in required:
        if n not in seen:
            problems.append(f"{n} is missing")
    return problems


def required_4_perfect(limit: int, max_omega: int) -> list[int]:
    """Catalog terms that a complete primitive search must report."""
    out = []
    for n in A027687_BELOW_1E20:
        if sympy.divisor_sigma(n) != 4 * n:
            raise ValueError(f"catalog term {n} is not 4-perfect")
        if n <= limit and len(sympy.factorint(n)) <= max_omega and is_primitive_ref(n):
            out.append(n)
    return out


def check_perfect_set(records, limit: int, max_omega: int) -> list[str]:
    """The records are exactly the perfect numbers up to the limit."""
    expected = even_perfect_upto(limit)
    problems = check_k_perfect_records(records, 2, limit, max_omega, expected)
    extra = {int(r["n"]) for r in records} - set(expected)
    problems += [f"{n} is not a perfect number" for n in sorted(extra)]
    return problems


def check_verify(summary: dict, limit: int, max_omega: int) -> list[str]:
    problems = check_perfect_set(summary["oracle"], limit, max_omega)
    problems += check_perfect_set(summary["chain"], limit, max_omega)
    if summary["primitive_set_equal"] is not True:
        problems.append("primitive_set_equal is not true")
    if summary["exhaustive"] is not True:
        problems.append("the chain search was not exhaustive")
    odd = sum(1 for r in summary["chain"] if int(r["n"]) % 2)
    for bc in summary["bound_checks"]:
        if bc["count"] != odd or bc["passed"] is not True:
            problems.append(f"bound check {bc['description']!r} reads {bc}")
    return problems


def check_classify(n: int, result) -> list[str]:
    alpha_text, multiperfect, rational = result
    alpha = Fraction(int(sympy.divisor_sigma(n)), n)
    problems = []
    if Fraction(alpha_text) != alpha:
        problems.append(f"{n}: abundancy {alpha_text}, expected {alpha}")
    if multiperfect != (alpha.denominator == 1 and alpha >= 2):
        problems.append(f"{n}: multiperfect flag {multiperfect} is wrong")
    if rational != (alpha.denominator > 1 and alpha > 1):
        problems.append(f"{n}: rational flag {rational} is wrong")
    return problems


def check_primitive(n: int, verdict) -> list[str]:
    if verdict != is_primitive_ref(n):
        return [f"{n}: is_primitive returned {verdict}"]
    return []


def _value(factors) -> int:
    v = 1
    for p, e in factors:
        v *= p**e
    return v


def check_decomposition(n: int, result) -> list[str]:
    """Each part is the smallest unitary divisor d of what remains with
    d | sigma(d); the leftover has none."""
    problems = []
    cofactor = n
    for factors, mult in zip(result["parts"], result["multipliers"]):
        d = _value(factors)
        qualifying = [
            (u, su) for u, su in _unitary(cofactor) if 1 < u < cofactor and su % u == 0
        ]
        if not qualifying or qualifying[0][0] != d:
            return [f"{n}: part {d} is not the smallest qualifying unitary divisor"]
        if qualifying[0][1] != mult * d:
            problems.append(f"{n}: part {d} has multiplier {mult}")
        problems += check_factorization(d, factors)
        cofactor //= d
    leftover = _value(result["leftover"])
    if leftover != cofactor:
        problems.append(f"{n}: leftover {leftover}, expected {cofactor}")
    elif any(su % u == 0 for u, su in _unitary(cofactor) if 1 < u < cofactor):
        problems.append(f"{n}: leftover {leftover} still has a qualifying divisor")
    alpha = Fraction(int(sympy.divisor_sigma(cofactor)), cofactor)
    if result["leftover_mp"] != (alpha.denominator == 1 and alpha >= 2):
        problems.append(f"{n}: leftover multiperfect flag is wrong")
    if len(result["parts"]) != len(result["multipliers"]):
        problems.append(f"{n}: parts and multipliers differ in number")
    return problems


def check_signature(n: int, result) -> list[str]:
    """reconstruct(extract_signature(n)) gave n back, from a chain that
    lists n's primes, starting at the smallest, with n's exponents."""
    fac = sympy.factorint(n)
    problems = []
    if result["value"] != n:
        problems.append(f"{n}: reconstruct returned {result['value']} ({result['failure']})")
    if Fraction(result["alpha"]) != Fraction(int(sympy.divisor_sigma(n)), n):
        problems.append(f"{n}: signature alpha {result['alpha']} is wrong")
    chain = result["chain"]
    if sorted(chain) != sorted(fac) or chain[0] != min(fac) or result["p1"] != chain[0]:
        problems.append(f"{n}: chain {chain} does not start at p1 or cover n's primes")
    elif result["exponents"] != [fac[p] for p in chain]:
        problems.append(f"{n}: exponents {result['exponents']} do not match n")
    return problems


def _exact(value) -> Fraction:
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _check_interval(label: str, interval, value) -> list[str]:
    if interval is None:
        return [f"{label}: interval missing"]
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    v = _exact(value)
    if not lo <= v <= hi:
        return [f"{label}: [{float(lo)!r}, {float(hi)!r}] misses {mp.nstr(value, 20)}"]
    if hi - lo > MAX_REL_WIDTH * abs(v):
        return [f"{label}: interval wider than 1e-12 relative"]
    return []


def check_bound_report(alpha_text: str, r: int, x, result) -> list[str]:
    """Every interval holds the formula evaluated at MP_BITS in mpmath's mp."""
    alpha = Fraction(alpha_text)
    integer = alpha.denominator == 1
    problems = []
    with mp.workprec(MP_BITS):
        ln_x = mp.mpf(4) ** r * mp.log(2) if x is None else mp.log(mp.mpf(x))
        if sorted(result["f"], key=int) != [str(i) for i in range(1, r + 1)]:
            problems.append(f"f values listed for {sorted(result['f'])}, expected 1..{r}")
        log_q = mp.mpf(1)
        for i in range(1, r + 1):
            log_q *= mp.log(int(sympy.prime(i + 1)))
            if str(i) in result["f"]:
                f = mp.mpf(i * i) / (2 * log_q)
                problems += _check_interval(f"f({i})", result["f"][str(i)], f)
        if integer:
            prim = mp.mpf(5) / 100 * ln_x**r
        else:
            ratio = mp.mpf(alpha.numerator) / (alpha.numerator - alpha.denominator)
            prim = mp.mpf(131) / 100 * ratio * ln_x**r
        problems += _check_interval("primitive bound", result["primitive"], prim)
        if integer:
            k = alpha.numerator
            multi = k * ln_x ** (mp.mpf(r * r + 8 * r) / 9)
            problems += _check_interval("multiperfect bound", result["multi"], multi)
            if result["absolute"] is None or int(result["absolute"], 16) != k * 4 ** (r**3):
                problems.append("absolute bound is not k*4^(r^3)")
            if len(result["chain"]) != 5 or not all(result["chain"]):
                problems.append(f"bound chain check reads {result['chain']}")
        elif result["multi"] is not None or result["absolute"] is not None:
            problems.append("integer-only bounds given for a non-integer alpha")
    return [f"alpha={alpha_text} r={r} x={x}: {p}" for p in problems]


def check_query(kind: str, args, result) -> list[str]:
    """Check one library call's serialized result."""
    if isinstance(result, dict) and "error" in result:
        return [f"raised {result['error']} on {kind}{tuple(args)}"]
    if kind == "bound_report":
        return check_bound_report(*args, result)
    n = args[0]
    if kind == "factorize":
        return check_factorization(n, result)
    if kind == "classify":
        return check_classify(n, result)
    if kind == "is_primitive":
        return check_primitive(n, result)
    if kind == "decompose":
        return check_decomposition(n, result)
    if kind == "signature":
        return check_signature(n, result)
    raise ValueError(f"unknown query kind {kind!r}")
