#!/usr/bin/env python3
"""Rigorous evaluation of the count-bound hierarchy.

All interval endpoints are exact dyadic rationals from outward-rounded
interval arithmetic; the inequalities below are certified on endpoints,
never on floats.
"""

from fractions import Fraction

from multiperfect import (
    absolute_count_bound,
    bound_chain_check,
    count_coefficient,
    multiperfect_count_bound,
    omega_floor,
    primitive_count_bound,
)

print("=== the coefficient f(r) = r^2 / (2 ln q_1 ... ln q_r) ===\n")
for r in [1, 2, 3, 4, 9, 20, 50]:
    box = count_coefficient(r)
    print(f"f({r:>2}) in {box}")

f3, f9 = count_coefficient(3), count_coefficient(9)
print(f"\nf(3) < 1.31: {f3.upper < Fraction(131, 100)} (peak of f)")
print(f"f(9) < 0.022: {f9.upper < Fraction(22, 1000)}")
print(f"2*f(9) < 0.05: {2 * f9.upper < Fraction(5, 100)}")
print(f"minimum odd prime counts: alpha=2 -> {omega_floor(2)},"
      f" alpha>=3 -> {omega_floor(3)}")

print("\n=== count bounds at x = 10^8 ===\n")
x = 10**8
for r in [9, 10, 12]:
    prim = primitive_count_bound(Fraction(2), r, x)
    multi = multiperfect_count_bound(2, r, x)
    print(f"r = {r:>2}: odd primitive 2-perfect count <= {prim.decimal(6)[1]},"
          f" odd 2-perfect count <= {multi.decimal(6)[1]}")

print("\n=== the limit-free bound k * 4^(r^3) ===\n")
for k, r in [(2, 1), (2, 2), (3, 3), (2, 9)]:
    value = absolute_count_bound(k, r)
    text = str(value) if len(str(value)) < 30 else f"about 10^{len(str(value)) - 1}"
    print(f"k = {k}, r = {r}: {text}")

print("\n=== the inequality chain behind it, certified step by step ===\n")
for description, passed in bound_chain_check(2, 9):
    print(f"  [{'ok' if passed else 'FAIL'}] {description}")
