import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import multiperfect.bounds as bounds
from multiperfect.bounds import (
    Interval,
    absolute_count_bound,
    bound_chain_check,
    bound_report,
    count_coefficient,
    multiperfect_count_bound,
    omega_floor,
    primitive_count_bound,
)

REL_TOL = Fraction(1, 10**12)


def mp_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def high_precision(fn) -> Fraction:
    """Independent point evaluation at 300 bits through the scalar context."""
    saved = mp.prec
    try:
        mp.prec = 300
        return mp_fraction(fn())
    finally:
        mp.prec = saved


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))

    def test_contains(self):
        box = Interval(Fraction(1), Fraction(2))
        assert box.contains(Fraction(3, 2))
        assert box.contains(Interval(Fraction(5, 4), Fraction(7, 4)))
        assert not box.contains(Fraction(3))

    def test_decimal_strings_bracket_the_value(self):
        box = Interval(Fraction(1, 3), Fraction(1, 3))
        lo, hi = box.decimal(10)
        assert lo == "3.333333333e-01"
        assert hi == "3.333333334e-01"


def decimal_oracle(value: Fraction, digits: int, up: bool) -> Fraction:
    """value rounded up or down to digits significant digits, exactly."""
    exp = 0
    while abs(value) >= Fraction(10) ** (exp + 1):
        exp += 1
    while abs(value) < Fraction(10) ** exp:
        exp -= 1
    unit = Fraction(10) ** (exp - digits + 1)
    return (math.ceil(value / unit) if up else math.floor(value / unit)) * unit


# Anywhere, or within 10^-22 of a power of ten, where rounding up can carry
# into a new leading digit.
DECIMAL_VALUES = st.one_of(
    st.builds(
        Fraction,
        st.integers(-(10**40), 10**40).filter(bool),
        st.integers(1, 10**12),
    ),
    st.builds(
        lambda k, off, sign: sign * (Fraction(10) ** k + Fraction(off, 10**25)),
        st.integers(-10, 40),
        st.integers(-1000, 1000),
        st.sampled_from([1, -1]),
    ),
)


class TestDecimalStr:
    @pytest.mark.parametrize("digits", [3, 5, 20])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value=DECIMAL_VALUES)
    def test_rounds_outward_to_digits(self, digits, value):
        for up in (False, True):
            text = bounds._decimal_str(value, digits, up)
            mantissa, exp = text.split("e")
            digits_shown = mantissa.lstrip("-").replace(".", "")
            assert len(digits_shown) == digits and digits_shown[0] != "0"
            assert len(exp) >= 3 and exp[0] in "+-"
            got = Fraction(mantissa) * Fraction(10) ** int(exp)
            assert got == decimal_oracle(value, digits, up)

    def test_carry_into_a_power_of_ten_is_tight(self):
        value = Fraction(1741136745571573582503943244905461571, 174115)
        assert bounds._decimal_str(value, 5, True) == "1.0000e+31"
        assert bounds._decimal_str(value, 5, False) == "9.9999e+30"
        assert bounds._decimal_str(-value, 5, False) == "-1.0000e+31"


class TestCountCoefficient:
    def test_f3_below_printed_constant(self):
        assert count_coefficient(3).upper < Fraction(131, 100)

    def test_f9_below_printed_constant(self):
        assert count_coefficient(9).upper < Fraction(22, 1000)

    def test_f1_value(self):
        # 1/(2 ln 3) evaluated independently
        box = count_coefficient(1)
        assert box.contains(high_precision(lambda: 1 / (2 * mp.log(3))))
        assert abs(float(box.midpoint) - 0.45511961331341865) < 1e-12

    def test_width_tolerance(self):
        for r in (1, 3, 9, 25, 50):
            box = count_coefficient(r)
            assert box.width <= REL_TOL * box.midpoint

    def test_strictly_decreasing_from_three(self):
        prev = count_coefficient(3)
        for r in range(4, 51):
            cur = count_coefficient(r)
            assert cur.upper < prev.lower
            prev = cur

    def test_not_monotone_below_three(self):
        assert count_coefficient(2).upper < count_coefficient(3).lower
        assert count_coefficient(1).upper < count_coefficient(2).lower

    def test_doubled_constant_below_005(self):
        assert 2 * count_coefficient(9).upper < Fraction(5, 100)

    def test_contains_high_precision_value(self):
        for r in (3, 9):
            def point():
                denom = mp.mpf(2)
                from multiperfect.arithmetic import nth_odd_prime

                for i in range(1, r + 1):
                    denom *= mp.log(nth_odd_prime(i))
                return r * r / denom

            assert count_coefficient(r).contains(high_precision(point))

    def test_precision_escalates_until_the_value_settles(self, monkeypatch):
        evaluate = bounds._evaluate
        precisions = []

        def spy(build, prec):
            precisions.append(prec)
            return evaluate(build, prec)

        monkeypatch.setattr(bounds, "_evaluate", spy)
        monkeypatch.setattr(bounds, "DEFAULT_PRECISION", 8)
        box = count_coefficient(5)
        # Each working precision is checked against twice itself; 64 bits is
        # the first to pass.
        assert precisions == [8, 16, 16, 32, 32, 64, 64, 128]
        point = high_precision(
            lambda: mp.mpf(25) / (2 * mp.log(3) * mp.log(5) * mp.log(7)
                                  * mp.log(11) * mp.log(13))
        )
        assert box.contains(point) and box.width <= REL_TOL * box.midpoint
        monkeypatch.setattr(bounds, "_MAX_PRECISION", 16)
        with pytest.raises(ArithmeticError, match="did not stabilize"):
            count_coefficient(5)


class TestPrimitiveCountBound:
    def test_rational_form(self):
        box = primitive_count_bound(Fraction(5, 2), 6, 10**6)
        expected = high_precision(
            lambda: mp.mpf("1.31") * mp.mpf(5) / 3 * mp.log(10**6) ** 6
        )
        # 1.31 is exact in the implementation; the mp cross-check uses a
        # decimal parse, so allow its tiny conversion slack
        assert abs(box.midpoint - expected) <= Fraction(1, 10**6) * expected

    def test_integer_form(self):
        box = primitive_count_bound(Fraction(2), 9, 10**8)
        expected = high_precision(lambda: mp.mpf(1) / 20 * mp.log(10**8) ** 9)
        assert box.contains(expected)

    def test_ratio_between_forms(self):
        rational = primitive_count_bound(Fraction(5, 2), 4, 1000)
        integer = primitive_count_bound(Fraction(2), 4, 1000)
        # rational/integer = 1.31*(5/3)/0.05 = 131/3 exactly
        ratio = Fraction(131, 100) * Fraction(5, 3) / Fraction(5, 100)
        assert integer.lower * ratio <= rational.upper
        assert rational.lower <= integer.upper * ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            primitive_count_bound(Fraction(1), 3, 100)
        with pytest.raises(ValueError):
            primitive_count_bound(Fraction(2), 0, 100)
        with pytest.raises(ValueError):
            primitive_count_bound(Fraction(2), 3, 2)


class TestMultiperfectCountBound:
    def test_exponent_one(self):
        # (r^2+8r)/9 = 1 at r = 1, so the bound is k * ln x
        box = multiperfect_count_bound(2, 1, 1000)
        expected = high_precision(lambda: 2 * mp.log(1000))
        assert box.contains(expected)

    def test_seventeenth_power(self):
        # r = 9 gives exponent (81+72)/9 = 17
        box = multiperfect_count_bound(3, 9, 10**6)
        expected = high_precision(lambda: 3 * mp.log(10**6) ** 17)
        assert box.contains(expected)
        mid = float(box.midpoint)
        assert abs(mid - 3 * math.log(10**6) ** 17) < 1e-9 * mid

    def test_width_tolerance(self):
        box = multiperfect_count_bound(6, 12, 10**8)
        assert box.width <= REL_TOL * box.midpoint


class TestAbsoluteCountBound:
    def test_examples(self):
        assert absolute_count_bound(2, 1) == 8
        assert absolute_count_bound(2, 2) == 131072
        assert absolute_count_bound(3, 3) == 3 * 18014398509481984

    def test_by_repeated_multiplication(self):
        for k, r in ((2, 2), (3, 3), (2, 5)):
            slow = k
            for _ in range(r**3):
                slow *= 4
            assert absolute_count_bound(k, r) == slow

    def test_range_guard(self):
        with pytest.raises(ValueError):
            absolute_count_bound(2, 21)
        with pytest.raises(ValueError):
            absolute_count_bound(1, 3)


class TestOmegaFloor:
    def test_values(self):
        assert omega_floor(2) == 9
        assert omega_floor(3) == 11
        assert omega_floor(7) == 11
        with pytest.raises(ValueError):
            omega_floor(1)


class TestBoundChainCheck:
    def test_all_pass_across_grid(self):
        for k in (2, 3, 6):
            for r in range(1, 13):
                checks = bound_chain_check(k, r)
                assert all(ok for _, ok in checks), (k, r, checks)

    def test_exponent_arithmetic(self):
        assert Fraction(1 + 8, 9) <= 1
        assert Fraction(8 + 32, 9) <= 8
        assert Fraction(729 + 648, 9) == 153 <= 729

    def test_check_descriptions_cover_every_step(self):
        labels = [desc for desc, _ in bound_chain_check(2, 4)]
        assert len(labels) == 5
        assert any("ln 2" in d for d in labels)


class TestBoundReport:
    def test_integer_alpha_report(self):
        report = bound_report(Fraction(3), 4, 10**6)
        assert set(report.f_values) == {1, 2, 3, 4}
        assert report.multiperfect_count is not None
        assert report.absolute_count == 3 * 4**64
        assert report.chain_inequalities

    def test_rational_alpha_report(self):
        report = bound_report(Fraction(3, 2), 3, 10**4)
        assert report.multiperfect_count is None
        assert report.absolute_count is None
        assert report.chain_inequalities == []

    def test_conceptual_limit_evaluates_multiperfect_bound_once(self, monkeypatch):
        # the report's multiperfect_count is also the chain check's left side
        calls = []
        real = bounds.multiperfect_count_bound

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bounds, "multiperfect_count_bound", counting)
        report = bound_report(Fraction(2), 5)
        assert calls == [(2, 5, None)]
        assert all(ok for _, ok in report.chain_inequalities)

    def test_conceptual_limit(self):
        # x = None evaluates at x = 2^(4^r): ln x = 4^r * ln 2
        report = bound_report(Fraction(2), 2, None)
        expected = high_precision(lambda: mp.mpf(1) / 20 * (16 * mp.log(2)) ** 2)
        assert report.primitive_count.contains(expected)

    @pytest.mark.parametrize(
        "alpha, constant",
        [(Fraction(3), lambda: mp.mpf(5) / 100),
         (Fraction(3, 2), lambda: mp.mpf(131) / 100 * 3)],
    )
    def test_primitive_form_follows_alpha(self, alpha, constant):
        # integer alpha takes 0.05 (ln x)^r, else 1.31 alpha/(alpha-1) (ln x)^r
        report = bound_report(alpha, 3, 10**5)
        assert report.primitive_count == primitive_count_bound(alpha, 3, 10**5)
        expected = high_precision(lambda: constant() * mp.log(10**5) ** 3)
        assert report.primitive_count.contains(expected)
