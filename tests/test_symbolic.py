"""Tests for the sparse Laurent ring and the four re-derivations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly.errors import NotDivisibleError
from oracles import eval_mod
from ccrpoly.symbolic import (
    VARS,
    DERIVATIONS,
    MultiPoly,
    derive_atkin_e4t,
    derive_atkin_sigma,
    derive_e4t,
    derive_e6t,
    ring_gens,
)

XYZ = ("x", "y", "z")


def g(name, power=1):
    return MultiPoly.gen(XYZ, name, power)


def c(v):
    return MultiPoly.const(XYZ, v)


class TestMultiPoly:
    def test_add_cancels_to_zero(self):
        p = g("x") * g("y") - g("y") * g("x")
        assert p.is_zero
        assert (g("x") + (-g("x"))).terms == {}

    def test_mul_distributes(self):
        a, b, d = g("x") + 2 * g("y"), g("y") - 3, g("z") ** 2 + g("x")
        assert a * (b + d) == a * b + a * d

    # k = 0..8 takes every odd and every even step of the chain of powers
    @pytest.mark.parametrize("k", range(9))
    def test_pow_matches_repeated_mul(self, k):
        p = g("x") + g("y") + 1
        power = c(1)
        for _ in range(k):
            power = power * p
        assert p ** k == power

    def test_scalar_division(self):
        p = (6 * g("x") + 9 * g("y")) / 3
        assert p == 2 * g("x") + 3 * g("y")
        assert ((g("x") / 2) * 2) == g("x")

    def test_exact_divide_difference_of_squares(self):
        # in the verifier ring for variety
        E4 = MultiPoly.gen(VARS, "E4")
        E6 = MultiPoly.gen(VARS, "E6")
        q = (E4 ** 2 - E6 ** 2).exact_divide(E4 - E6)
        assert q == E4 + E6

    def test_exact_divide_rejects_non_multiple(self):
        with pytest.raises(NotDivisibleError):
            (g("x") ** 2 + g("y")).exact_divide(g("x") + 1)

    def test_exact_divide_roundtrip(self):
        a = g("x") ** 2 - 2 * g("y") + 5
        b = 3 * g("z") + g("x") * g("y")
        assert (a * b).exact_divide(b) == a

    def test_coefficient_of_strips_slot(self):
        E2 = MultiPoly.gen(VARS, "E2")
        d4 = MultiPoly.gen(VARS, "d4")
        ds = MultiPoly.gen(VARS, "ds")
        p = 3 * E2 ** 2 * d4 + E2 * ds
        assert p.coefficient_of("E2", 1) == ds
        assert p.coefficient_of("E2", 2) == 3 * d4
        assert p.coefficient_of("E2", 0).is_zero

    def test_degree_in(self):
        p = g("x") ** 3 * g("y") + g("x") * g("y") ** 2
        assert p.degree_in("x") == 3
        assert p.degree_in("z") == 0
        assert c(0).degree_in("x") == -1

    def test_variables_used(self):
        p = g("x") ** 2 * g("z") + 3
        assert p.variables_used() == {"x", "z"}
        assert (g("y") / g("z")).variables_used() == {"y", "z"}
        assert c(5).variables_used() == set()
        assert c(0).variables_used() == set()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            g("x") ** -1

    def test_eval_mod(self):
        p = g("x") ** 2 + g("y") / 2
        # 3^2 + 4/2 = 11
        assert eval_mod(p, {"x": 3, "y": 4, "z": 0}, 1009) == 11

    def test_str_is_stable_and_readable(self):
        p = g("y") - g("x") ** 2 + 1
        assert str(p) == "-x^2 + y + 1"
        assert str(c(0)) == "0"

    def test_mixed_rings_rejected(self):
        with pytest.raises(TypeError):
            g("x") + MultiPoly.gen(VARS, "E4")


EXPONENTS = st.tuples(*[st.integers(-3, 3)] * len(XYZ))
COEFFICIENTS = st.fractions(min_value=-9, max_value=9,
                            max_denominator=12).filter(bool)


def laurent(min_size=0, max_size=6):
    return st.dictionaries(EXPONENTS, COEFFICIENTS, min_size=min_size,
                           max_size=max_size).map(lambda t: MultiPoly(XYZ, t))


class TestLaurent:
    @settings(max_examples=80, deadline=None)
    @given(laurent(), laurent(1, 1), laurent(2, 4))
    def test_division_and_num_den(self, p, t, wide):
        assert (p / t) * t == p
        num, den = p.num, p.den
        assert all(x >= 0 for e in num.terms for x in e)
        assert den.is_monomial and list(den.terms.values()) == [1]
        assert p == num / den
        # den is minimal: each variable it carries is absent from some
        # term of num
        (shift,) = den.terms
        for i, x in enumerate(shift):
            if x:
                assert any(e[i] == 0 for e in num.terms)
        with pytest.raises(NotDivisibleError):
            p / wide

    def test_constant_denominator_folds(self):
        r = g("x") / c(2)
        assert r.den == 1
        assert r.num == g("x") / 2

    def test_monomial_cancellation(self):
        r = g("x") ** 2 * g("y") / (g("x") * g("y") * g("z"))
        assert r.num == g("x")
        assert r.den == g("z")

    def test_coefficient_of_negative_exponents(self):
        x, y, z = g("x"), g("y"), g("z")
        p = x / y + 2 * x * z / y ** 2 + x ** 2
        assert p.coefficient_of("y", -1) == x
        assert p.coefficient_of("y", -2) == 2 * x * z
        assert p.coefficient_of("y", 0) == x ** 2
        assert p.coefficient_of("x", 1) == c(1) / y + 2 * z / y ** 2

    def test_wide_divisor_rejected(self):
        # no polynomial gcd: an exact quotient is still refused
        with pytest.raises(NotDivisibleError):
            (g("x") ** 2 - g("y") ** 2) / (g("x") + g("y"))

    def test_arithmetic(self):
        x, y = g("x"), g("y")
        r = x / y + y / x
        assert r == (x ** 2 + y ** 2) / (x * y)
        assert r.den == x * y
        assert (r - r).is_zero
        assert (x / y) * (y / x) == 1
        assert (x / y) ** 2 == x ** 2 / y ** 2

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            g("x") / c(0)
        with pytest.raises(ZeroDivisionError):
            g("x") / 0

    def test_eval_mod(self):
        r = (g("x") + 1) / g("y")
        assert eval_mod(r, {"x": 6, "y": 2, "z": 0}, 11) == 7 * pow(2, 9, 11) % 11

    def test_eval_mod_vanishing_denominator(self):
        r = g("x") / g("y")
        with pytest.raises(ZeroDivisionError):
            eval_mod(r, {"x": 1, "y": 11, "z": 0}, 11)


# ---------------------------------------------------------------------------
# Derivations.  Each derive_* call performs its own hard assertions; these
# tests pin the outward-facing contract on top of that.

ELL5_POINT = {
    # sigma root and partial derivatives of the degree-6 polynomial at the
    # curve y^2 = x^3 + x + 3 over GF(1009), in (sigma, E4, E6) slots
    "ell": 5, "sigma": 584, "E4": 336, "E6": 503,
    "ds": 905, "d4": 779, "d6": 140,
    "ds4": 44, "ds6": 942, "d46": 493,
    "E2": 0, "E4t": 0, "E6t": 0, "f": 1, "df": 1, "df4": 0, "df6": 0,
}


def test_derive_e4t_matches_numeric_point():
    rep = derive_e4t()
    assert eval_mod(rep.derived, ELL5_POINT, 1009) == 497


def test_derive_e4t_denominator_is_monomial():
    rep = derive_e4t()
    assert rep.derived.den.is_monomial


def test_derive_e6t_matches_numeric_point():
    rep = derive_e6t()
    e6t = eval_mod(rep.derived, ELL5_POINT, 1009)
    # B* = -2 l^6 E6t
    assert -2 * pow(5, 6, 1009) * e6t % 1009 == 997


def test_derive_e6t_reports_divisibility():
    rep = derive_e6t()
    labels = [label for label, _ in rep.assertions]
    assert "C2 / H_U" in labels and "C1 / H_U" in labels


def test_derived_expressions_are_deterministic():
    for fn in (derive_e4t, derive_atkin_sigma):
        assert fn().text() == fn().text()


def test_derivation_registry_runs_clean():
    for name, fn in DERIVATIONS.items():
        rep = fn()
        assert rep.name == name
        assert rep.assertions
        text = rep.text()
        assert text.count("PASS") == len(rep.assertions)


def test_ring_hygiene():
    assert derive_e4t().derived.variables_used() <= {
        "ell", "E4", "E6", "sigma", "d4", "d6", "ds"}
    atk = derive_atkin_e4t().derived.variables_used()
    assert "sigma" not in atk and "ds" not in atk


def test_atkin_sigma_shape():
    rep = derive_atkin_sigma()
    gens = ring_gens()
    expected = (gens["ell"] * (3 * gens["d6"] * gens["E4"] ** 2
                               + 2 * gens["d4"] * gens["E6"])
                / (gens["f"] * gens["df"]))
    assert rep.derived == expected
