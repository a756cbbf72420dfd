"""Series-side construction of the modular polynomials."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccrpoly import builder, certify, cli
from ccrpoly.builder import (_build_at, build, build_classical_phi,
                             conjugate_series, match_to_form_basis,
                             power_sums)
from ccrpoly.errors import BasisMatchError, BuildError, PrecisionError
from ccrpoly.ffield import CurveParams, PrimeField
from ccrpoly.isogeny import atkin_step, elkies_step
from ccrpoly.qseries import (PowerSeries, delta_series, eisenstein_series,
                             j_series)
from ccrpoly.symbolic import MultiPoly
from ccrpoly.trivariate import PHI_ELLS, poly_to_text
from oracles import (annihilates_at_cusp, cm_vector, cusp_root, evaluate,
                     form_basis_exponents, series, vanishes_at_cm_vector,
                     zero_through)

U5_AB = {(6, 0, 0): 1, (4, 1, 0): 20, (3, 0, 1): 160, (2, 2, 0): -80,
         (1, 1, 1): -128, (0, 0, 2): -80}
UA11_DELTA = {(12, 0, 0, 0): 1, (6, 0, 0, 1): -990, (4, 1, 0, 1): 440,
              (3, 0, 1, 1): -165, (2, 2, 0, 1): 22, (1, 1, 1, 1): -1,
              (0, 0, 0, 2): -11}


def sequential_traces(big_r, ell, k_max):
    """Traces of R, R^2, ..., R^k_max, each power one product after the
    last."""
    out, power = [], big_r
    for k in range(1, k_max + 1):
        if k > 1:
            power = power * big_r
        out.append(power.extract_progression(ell))
    return out


def assert_same_traces(got, expected):
    assert [(t.lead, t.den, t.nums) for t in got] == \
        [(t.lead, t.den, t.nums) for t in expected]


class TestPowerTraces:
    # every k_max in 1..40 passes each square m^2 and m^2 +- 1
    K_MAX = 40

    def assert_matches_sequential(self, big_r, ell):
        expected = sequential_traces(big_r, ell, self.K_MAX)
        for k_max in range(1, self.K_MAX + 1):
            assert_same_traces(builder.power_traces(big_r, ell, k_max),
                               expected[:k_max])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4),
                              st.fractions(min_value=-9, max_value=9,
                                           max_denominator=12)),
                    min_size=1, max_size=14),
           st.integers(-4, 4))
    def test_matches_sequential_powers(self, ell, coeffs, lead):
        self.assert_matches_sequential(series(coeffs, lead=lead), ell)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(-4, 4),
           st.integers(-50, 50), st.sampled_from([2, 4, 12, 1008]),
           st.sampled_from([1, 3, 5, 9]),
           st.lists(st.integers(-50, 50), min_size=1, max_size=13))
    def test_shared_factor_off_the_constant_term(self, ell, lead, c0, g,
                                                 den, rest):
        # R = (c0 + g*T)/den with g > 1: den is odd and g even, so the
        # canonical numerators off x^0 keep a factor 2 of g, and the
        # traces take the re-centred chain when c0 != 0 lies on the window
        assume(any(rest))
        nums = [g * v for v in rest]
        if 0 <= -lead <= len(nums):
            nums.insert(-lead, c0)
        self.assert_matches_sequential(
            series(nums, lead=lead) * Fraction(1, den), ell)

    @pytest.mark.parametrize("coeffs, lead", [
        # constant R: no numerator off x^0, so no factor g to take out
        ([6] + [0] * 8, 0),
        ([Fraction(5, 3)] + [0] * 4, 0),
        ([0, 0, -7, 0], -2),
        # the window ends at or below x^0, so c0 is 0
        ([4, -6, 10], -3),
        ([Fraction(4, 3), 0, -2], -5),
        # den = 5 over the numerators -2 + 3*(2x - 4x^3 + 5x^4)
        ([Fraction(-2, 5), Fraction(6, 5), 0, Fraction(-12, 5), 3], 0),
        # c0 = 9 and g = 3, with x^0 at the window's start and inside it
        ([9, 6, 0, -3], 0),
        ([3, 9, 6, 0, -3], -1),
    ])
    def test_recentring_edge_cases(self, coeffs, lead):
        for ell in (2, 3, 5):
            self.assert_matches_sequential(series(coeffs, lead=lead),
                                           ell)

    def test_negative_lead_j_series_of_phi(self):
        self.assert_matches_sequential(j_series(24), 5)

    def test_j_series_with_a_shared_factor(self):
        # 6j = 6/q + 4464 + ...: c0 = 4464 and g = 6 at a negative lead
        self.assert_matches_sequential(j_series(24) * 6, 5)


class TestConjugateSeries:
    def test_sigma_root_constant(self):
        r, big_r = conjugate_series("U", 5, 10)
        assert r.coefficient(0) == 10            # (5/2)(5-1)
        assert big_r.coefficient(0) == -2        # (1-ell)/2

    def test_scaled_eisenstein_roots(self):
        r, _ = conjugate_series("V", 5, 8)
        assert r.coefficient(0) == -3 * 5 ** 4
        assert r.coefficient(5) == -3 * 5 ** 4 * 240
        assert r.coefficient(1) == 0
        r, _ = conjugate_series("W", 7, 8)
        assert r.coefficient(0) == -2 * 7 ** 6
        assert r.coefficient(7) == -2 * 7 ** 6 * -504

    def test_eta_variant_root_normalization(self):
        r, big_r = conjugate_series("Ua", 11, 8)
        assert r.coefficient(1) == -11
        assert big_r.coefficient(1) == 1
        with pytest.raises(ValueError):
            conjugate_series("Ua", 13, 8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            conjugate_series("Z", 5, 8)


@pytest.mark.parametrize("n_q", [1, 2, 5, 29])
@pytest.mark.parametrize("kind, ell", [
    *((kind, ell) for kind in ("U", "V", "W") for ell in (5, 7, 13, 47)),
    ("U", 71), *(("Ua", ell) for ell in (11, 23, 47, 71)),
    *(("Phi", ell) for ell in (5, 7, 11, 13))])
def test_root_at_the_cusp_matches_its_definition(kind, ell, n_q):
    # conjugate_series reads r_inf off R under diag(ell, 1); the oracle
    # builds it from the kind's definition
    r_inf, _ = conjugate_series(kind, ell, n_q)
    want = cusp_root(kind, ell, n_q)
    assert (r_inf.lead, r_inf.end, r_inf.den, r_inf.nums) == \
        (want.lead, want.end, want.den, want.nums)


def full_power_sums(kind, ell, n_q):
    """r_inf^k + t_k, k = 1..ell+1: the power sums of all ell + 1 roots."""
    r_inf, traces = power_sums(kind, ell, n_q, ell + 1)
    return [r_inf ** k + t for k, t in enumerate(traces, 1)]


class TestPowerSums:
    def test_first_sum_vanishes_for_sigma_kind(self):
        s = full_power_sums("U", 5, 17)[0]
        assert zero_through(s, 17)

    def test_second_sum_is_120_e4(self):
        s = full_power_sums("U", 5, 17)[1]
        e4 = eisenstein_series(4, 17)
        assert zero_through(s - 120 * e4, 17)

    def test_eta_variant_low_sums_vanish(self):
        for s in full_power_sums("Ua", 11, 23)[:5]:
            assert zero_through(s, 23)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_newton_elementary_gives_the_polynomial(roots):
    # the power sums of integer series r_i give the coefficients of
    # prod (X - r_i): that of X^(n-k) is (-1)^k e_k
    rs = [series(c) for c in roots]
    n = len(rs)
    sums = [sum((r ** k for r in rs[1:]), rs[0] ** k) for k in range(1, n + 1)]
    zero = PowerSeries.constant(0, 4)
    coeffs = [PowerSeries.constant(1, 4)]
    for r in rs:
        coeffs = [a - r * b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
    elem = builder._newton_elementary(sums, PowerSeries.constant(1, 4))
    assert [e if k % 2 == 0 else -e for k, e in enumerate(elem, 1)] \
        == coeffs[1:]


def form_product(f, g):
    out = {}
    for (a, b), u in f.items():
        for (c, d), v in g.items():
            out[(a + c, b + d)] = out.get((a + c, b + d), 0) + u * v
    return out


def row_form(w, coeffs):
    """The _Form of weight w with coefficients {(a, b): c}, in canonical
    form: rows in the oracle's order, over the lcm of the denominators."""
    cs = [Fraction(coeffs.get(ab, 0)) for ab in form_basis_exponents(w)]
    den = math.lcm(*(c.denominator for c in cs))
    return builder._Form(w, [int(c * den) for c in cs], den)


def form_dict(form):
    return dict(form.items())


def form_sum(*fs):
    out = {}
    for f in fs:
        for ab, c in f.items():
            out[ab] = out.get(ab, 0) + c
    return out


form_coeffs = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-99, max_value=99,
                                    max_denominator=60))


@st.composite
def weighted_forms(draw, weights):
    """(w, {(a, b): Fraction}): a form of a weight drawn from weights."""
    w = draw(weights)
    return w, {ab: draw(form_coeffs) for ab in form_basis_exponents(w)}


@st.composite
def weighted_elementary(draw):
    """(w, [e_1..e_n]) with e_k a weight-2wk form, as {(a, b): Fraction}
    dicts."""
    w, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    return w, [{ab: draw(form_coeffs) for ab in form_basis_exponents(w * k)}
               for k in range(1, n + 1)]


def test_rows_list_each_exponent_once():
    # a form with every row 1 lists each E4^a E6^b of its weight once
    for w in range(61):
        rows = builder._weight_rows(w)[2]
        form = builder._Form(w, [1] * rows, 1)
        assert [ab for ab, _ in form.items()] == form_basis_exponents(w), w


@settings(max_examples=200, deadline=None)
@given(weighted_forms(st.integers(0, 20)), weighted_forms(st.integers(0, 20)))
@example((7, {(2, 1): Fraction(3)}), (9, {(3, 1): Fraction(1, 2),
                                          (0, 3): Fraction(-5)}))
def test_form_product_matches_dict_product(f, g):
    # convolved rows, odd times odd one row up, are the product of the
    # coefficient dicts
    product = row_form(*f) * row_form(*g)
    assert product.w == f[0] + g[0]
    assert len(product.nums) == len(form_basis_exponents(product.w))
    assert form_dict(product) == \
        {ab: c for ab, c in form_product(f[1], g[1]).items() if c}


@settings(max_examples=100, deadline=None)
@given(weighted_elementary())
def test_newton_on_forms_inverts_girard(case):
    # Girard's identities take e_1..e_n to the power sums,
    # p_k = sum over i < k of (-1)^(i-1) e_i p_(k-i) + (-1)^(k-1) k e_k;
    # Newton on the power sums as row _Forms must give each e_k back in
    # canonical form: its rows over the lcm of its reduced denominators
    w, elem = case
    sums = []
    for k, e_k in enumerate(elem, 1):
        terms = [{ab: (-1) ** (k - 1) * k * c for ab, c in e_k.items()}]
        for i in range(1, k):
            term = form_product(elem[i - 1], sums[k - i - 1])
            terms.append({ab: (-1) ** (i - 1) * c for ab, c in term.items()})
        sums.append(form_sum(*terms))
    got = builder._newton_elementary(
        [row_form(w * k, p) for k, p in enumerate(sums, 1)],
        row_form(0, {(0, 0): 1}))
    for k, (e_k, form) in enumerate(zip(elem, got, strict=True), 1):
        want = row_form(w * k, e_k)
        assert (form.w, form.nums, form.den) == (want.w, want.nums, want.den)


def same_on_common_window(a, b):
    # the coefficients both series know agree
    return all(a.coefficient(x) == b.coefficient(x)
               for x in range(min(a.lead, b.lead), min(a.end, b.end)))


def drawn_series(max_size):
    return st.builds(
        lambda nums, lead, den: series(nums, lead) * Fraction(1, den),
        st.lists(st.integers(-50, 50), min_size=3, max_size=max_size),
        st.integers(-3, 3), st.integers(2, 12))


@settings(max_examples=80, deadline=None)
@given(drawn_series(10), st.lists(drawn_series(10), min_size=1, max_size=4))
def test_newton_splits_off_a_root(big_j, traces):
    # sum of e_k T^k = (1 + J*T) * sum of E'_k T^k: _elementary's e_k,
    # from Newton on the t_k alone, are Newton's on the power sums J^k + t_k
    m = len(traces)
    e0 = PowerSeries.constant(1, 24)
    conj = [e0] + builder._newton_elementary(traces, e0)
    # t_(m+1): the next power sum of the m roots whose first power sums
    # are t_1..t_m, so that E'_(m+1) = 0
    nxt = conj[1] * traces[m - 1]
    for i in range(2, m + 1):
        term = conj[i] * traces[m - i]
        nxt = nxt + term if i % 2 else nxt - term
    sums = [big_j ** k + t for k, t in enumerate(traces + [nxt], 1)]
    elem = builder._newton_elementary(sums, e0)
    split = builder._elementary(big_j, traces)
    assert len(split) == m + 1
    for e_k, want in zip(split, elem, strict=True):
        assert same_on_common_window(e_k, want)


class TestBasisMatch:
    def test_exponent_enumeration(self):
        assert form_basis_exponents(0) == [(0, 0)]
        assert form_basis_exponents(1) == []
        assert form_basis_exponents(6) == [(3, 0), (0, 2)]
        assert form_basis_exponents(7) == [(2, 1)]

    def test_delta_matches_cusp_form(self):
        s = delta_series(12) * 1728
        assert form_dict(match_to_form_basis(s, 6)) == {(3, 0): 1, (0, 2): -1}

    def test_zero_series_empty_result(self):
        z = series([0] * 12)
        assert form_dict(match_to_form_basis(z, 6)) == {}
        # w = 1 has no E4^a E6^b: the zero series is the form with no row
        empty = match_to_form_basis(z, 1)
        assert (empty.w, empty.nums) == (1, [])

    def test_unmatchable_series_raises(self):
        # q is not a weight-4 Eisenstein multiple
        s = series([0, 1] + [0] * 10)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 2)

    def test_pole_raises(self):
        # 5/q + E4 is not E4: nothing below q^0 may be dropped
        s = series([5] + eisenstein_series(4, 8).coeffs, lead=-1)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 2)

    def test_zeros_below_q0_are_no_pole(self):
        s = series([0, 0] + eisenstein_series(4, 8).coeffs, lead=-2)
        assert form_dict(match_to_form_basis(s, 2)) == {(1, 0): 1}

    def test_e6_delta_over_e4_is_no_form(self):
        # E6 Delta / E4 = f tau with f = E4^2 E6, the weight-7 element
        # with no Delta: a q-series with integer coefficients, but E4's
        # zero makes it no form, and at w = 7 tau^1 has no element
        s = eisenstein_series(6, 12) * delta_series(12) \
            / eisenstein_series(4, 12)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 7)

    def test_nonzero_series_with_empty_basis_raises(self):
        s = series([1] * 8)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 1)

    @pytest.mark.parametrize("w", [6, 7, 12, 14, 29])
    def test_sturm_bound_is_the_precision_floor(self, w):
        # a weight-2w form known to its first w//6 + 1 coefficients matches;
        # one coefficient fewer is a PrecisionError, not a guess
        sturm = w // 6 + 1
        e4, e6 = eisenstein_series(4, sturm), eisenstein_series(6, sturm)
        exps = form_basis_exponents(w)
        f = series([0] * sturm)
        for k, (a, b) in enumerate(exps, 1):
            f = f + (e4 ** a) * (e6 ** b) * k
        assert form_dict(match_to_form_basis(f, w)) == \
            {ab: k for k, ab in enumerate(exps, 1)}
        with pytest.raises(PrecisionError):
            match_to_form_basis(f.truncate(sturm - 1), w)


class TestBuild:
    def test_u5_equals_printed_polynomial(self, u5):
        assert u5.to_basis("AB") == {k: Fraction(v)
                                     for k, v in U5_AB.items()}

    def test_ua11_equals_printed_polynomial(self, ua11):
        from ccrpoly.trivariate import delta_display_terms
        assert delta_display_terms(ua11) == {k: Fraction(v)
                                             for k, v in UA11_DELTA.items()}

    def test_validation_and_integrality(self, u7, v7, w7):
        for poly in (u7, v7, w7):
            poly.validate()
            assert all(c.denominator == 1
                       for c in poly.to_basis("AB").values())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build("U", 4)
        with pytest.raises(ValueError):
            build("U", 3)
        with pytest.raises(ValueError):
            build("Ua", 13)
        with pytest.raises(ValueError):
            build("X", 5)

    @pytest.mark.parametrize("kind, ell", [
        (kind, ell) for kind in ("U", "V", "W") for ell in (5, 7, 11, 13)
    ] + [("Ua", 11)])
    def test_sturm_window_matches_old_window(self, kind, ell):
        assert build(kind, ell) == _build_at(kind, ell, ell + 12)

    @pytest.mark.parametrize("kind, ell", [("U", 13), ("V", 11), ("W", 11),
                                           ("Ua", 23)])
    def test_every_p_k_fills_the_window(self, monkeypatch, kind, ell):
        # p_k = r_inf^k + t_k is known through n_q at every k, so the
        # match checks every row of the Sturm window
        ends = []
        real = builder.match_to_form_basis

        def spy(s, *args):
            ends.append(s.end)
            return real(s, *args)

        monkeypatch.setattr(builder, "match_to_form_basis", spy)
        build(kind, ell)
        assert len(ends) == ell + 1 and len(set(ends)) == 1

    def test_match_failure_is_not_retried(self, monkeypatch):
        calls = []
        real_build_at = builder._build_at

        def counting_build_at(*args):
            calls.append(args)
            return real_build_at(*args)

        def failing_match(*args):
            raise BasisMatchError("forced")

        monkeypatch.setattr(builder, "_build_at", counting_build_at)
        monkeypatch.setattr(builder, "match_to_form_basis", failing_match)
        with pytest.raises(BuildError):
            build("U", 5)
        assert len(calls) == 1

    def test_root_identity_u(self, u5):
        prec = 29
        r, _ = conjugate_series("U", 5, prec)
        e4 = eisenstein_series(4, prec)
        e6 = eisenstein_series(6, prec)
        assert zero_through(evaluate(u5, r, e4, e6), 25)

    def test_root_identity_v(self, v5):
        prec = 29
        r, _ = conjugate_series("V", 5, prec)
        e4 = eisenstein_series(4, prec)
        e6 = eisenstein_series(6, prec)
        assert zero_through(evaluate(v5, r, e4, e6), 25)

    def test_eta_denominators_are_2_3_smooth(self, ua11):
        for c in ua11.terms.values():
            d = c.denominator
            for f in (2, 3):
                while d % f == 0:
                    d //= f
            assert d == 1

    def test_euler_identity_weighted(self, u5):
        # 1*X dX + 2*E4 d4 + 3*E6 d6 = (ell+1) * U for the weight-1 root
        names = ("X", "E4", "E6")
        x, y, z = (MultiPoly.gen(names, v) for v in names)
        px, py, pz = (MultiPoly(names, dict(u5.partial(i).terms))
                      for i in range(3))
        assert x * px + 2 * y * py + 3 * z * pz == \
            6 * MultiPoly(names, dict(u5.terms))


class TestClassicalPhi:
    def test_phi2_constant_term(self, phi2):
        assert phi2.terms[(0, 0)] == -157464000000000

    def test_phi2_full_coefficients(self, phi2):
        # classical: X^3 + j^3 - X^2 j^2 + 1488(X^2 j + X j^2) - 162000(X^2+j^2)
        #            + 40773375 X j + 8748000000 (X + j) - 157464000000000
        assert phi2.terms[(2, 2)] == -1
        assert phi2.terms[(2, 1)] == 1488
        assert phi2.terms[(2, 0)] == -162000
        assert phi2.terms[(1, 1)] == 40773375
        assert phi2.terms[(1, 0)] == 8748000000

    def test_series_annihilation(self, request):
        # Phi(j(q), j(q^ell)) through the oracle evaluator, which shares
        # no code with the builder
        for ell in PHI_ELLS:
            phi = request.getfixturevalue(f"phi{ell}")
            # the X^ell j^ell cross term costs ell^2 + ell of window
            prec = 34 + ell * (ell + 1)
            j = j_series(prec)
            jl = j_series(prec // ell + 6).substitute_q_power(ell, prec)
            assert zero_through(evaluate(phi, j, jl), 30)

    def test_symmetry(self, phi5):
        assert phi5.is_symmetric()

    def test_every_tail_row_is_checked(self, monkeypatch):
        # E'_1 plus q^row, for each known row past q^0, makes e_1 plus
        # q^row, which is no polynomial in j; E'_1 ends where
        # e_1 = E'_1 + J does
        real = builder._newton_elementary
        ends = []

        def bump_at(row):
            def spy(sums, e0):
                first, *rest = real(sums, e0)
                ends.append(first.end)
                coeffs = [0] * len(first.nums)
                coeffs[row - first.lead] = 1
                return [first + series(coeffs, lead=first.lead)] + rest
            return spy

        row = 1
        while not ends or row < ends[0]:
            monkeypatch.setattr(builder, "_newton_elementary", bump_at(row))
            with pytest.raises(BuildError, match="not a polynomial in j"):
                build_classical_phi(5)
            row += 1
        assert row > 2

    def test_non_integer_coefficient_is_refused(self, monkeypatch):
        # E'_1 plus 1/2 moves only e_1's j^0 coefficient, by 1/2: every
        # tail row still cancels, and the integrality check must refuse it
        real = builder._newton_elementary

        def spy(sums, e0):
            first, *rest = real(sums, e0)
            return [first + PowerSeries.constant(Fraction(1, 2), first.end),
                    *rest]

        monkeypatch.setattr(builder, "_newton_elementary", spy)
        with pytest.raises(BuildError,
                           match=r"non-integer coefficient at e_1, j\^0"):
            build_classical_phi(5)

    @pytest.mark.parametrize("ell", PHI_ELLS)
    def test_checked_rows_per_level(self, monkeypatch, ell):
        # every e_k is known through q^0, the rows that fix it, and no
        # further but e_1, which E'_1 = t_1 and J*E'_0 carry to q^ell; the
        # peel checks each row past q^0
        rows = {}
        real = builder._peel_j_powers

        def spy(e, *args):
            rows[args[-1]] = e.end - 1
            return real(e, *args)

        monkeypatch.setattr(builder, "_peel_j_powers", spy)
        build_classical_phi(ell)
        assert rows == {1: ell, **dict.fromkeys(range(2, ell + 2), 0)}

    def test_peel_refuses_a_short_j_power(self):
        j = j_series(14)                        # on [-1, 12)
        jpow = builder._powers([None, j], 3)
        e = jpow[2] + 3 * j + PowerSeries.constant(5, 11)   # on [-2, 11)
        assert builder._peel_j_powers(e, jpow, 2, 1) == {2: 1, 1: 3, 0: 5}
        # j^2 must reach q^10, e's last row: one slot short is an error,
        # not a row left unchecked
        jpow[2] = jpow[2].truncate(e.end - 1)
        with pytest.raises(ValueError):
            builder._peel_j_powers(e, jpow, 2, 1)

    def test_peel_refuses_an_e_k_that_ends_below_q0(self, monkeypatch,
                                                    tmp_path, capsys):
        # the rows q^-n..q^0 fix e_k: a shorter window is a build fault,
        # which the CLI reports as a builder failure (exit 3), as it does
        # the peel's other checks
        e = j_series(14).truncate(0)            # on [-1, 0)
        with pytest.raises(BuildError, match=r"^Phi_2: e_1 ends below q\^0$"):
            builder._peel_j_powers(e, [], 2, 1)
        real = builder._peel_j_powers
        monkeypatch.setattr(builder, "_peel_j_powers",
                            lambda e, *args: real(e.truncate(0), *args))
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        assert cli.main(["build", "--kind", "Phi", "--ell", "5"]) == 3
        assert capsys.readouterr().out == \
            "builder failure: Phi_5: e_1 ends below q^0\n"

    def test_rejects_unsupported_level(self):
        with pytest.raises(ValueError):
            build_classical_phi(4)
        with pytest.raises(ValueError):
            build_classical_phi(17)


def atkin_lehner_holds(ua, n_prec):
    """Series check of the involution relation on the eta variant: the
    polynomial annihilates (-ell*f, A*, B*) where f is its own
    distinguished root series, A* = -3 ell^4 E4(q^ell) and
    B* = -2 ell^6 E6(q^ell), that is at E4* = ell^4 E4(q^ell) and
    E6* = ell^6 E6(q^ell) in the polynomial's own E4, E6 slots.  It
    costs about ten times the build it checks, so it is a test, not a
    build gate."""
    ell = ua.ell
    prec = n_prec + ell + 4
    f_root, _ = conjugate_series("Ua", ell, prec)
    sub_prec = -(-prec // ell) + 1
    x = f_root * (-ell)
    y = eisenstein_series(4, sub_prec).substitute_q_power(ell, prec) \
        * ell ** 4
    z = eisenstein_series(6, sub_prec).substitute_q_power(ell, prec) \
        * ell ** 6
    return zero_through(evaluate(ua, x, y, z), n_prec)


class TestInvolution:
    def test_holds_for_built_polynomial(self, ua11):
        assert atkin_lehner_holds(ua11, 20)

    def test_perturbed_polynomial_fails(self, ua11):
        from ccrpoly.trivariate import TrivariatePoly
        bad = dict(ua11.terms)
        bad[(6, 0, 3)] = bad.get((6, 0, 3), Fraction(0)) + 1
        wrong = TrivariatePoly("Ua", 11, bad)
        assert not atkin_lehner_holds(wrong, 20)


class TestSturmWindow:
    @pytest.mark.parametrize("name", [
        f"{kind}{ell}" for kind in ("u", "v", "w") for ell in (5, 7, 11, 13)]
        + ["ua11", "ua23", "u31"])
    def test_annihilates_through_the_window(self, request, name):
        assert annihilates_at_cusp(request.getfixturevalue(name))

    def test_raised_coefficient_fails(self, u13):
        from ccrpoly.trivariate import TrivariatePoly
        terms = dict(u13.terms)
        terms[(12, 1, 0)] += 1
        assert not annihilates_at_cusp(TrivariatePoly("U", 13, terms))


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# U47 and Ua47 digests recorded from a builder that formed every R^k by
# sequential products, a path independent of power_traces; Phi2 and Phi3,
# which no benchmark level covers, from a builder that formed every power
# of j by sequential products and re-expanded each e_k on one long
# window, so every PHI_ELLS level is pinned.  The names with a basis
# suffix are the AB and Delta displays, recorded from a writer that
# converted through a stored AB-basis polynomial.
RECORDED = json.loads((Path(__file__).resolve().parent / "data"
                       / "store_sha256.json").read_text())


def assert_store_digests(digests):
    assert digests
    for name, digest in digests.items():
        kind, ell, basis = re.fullmatch(r"([A-Za-z]+)(\d+)(?:_(\w+))?",
                                        name).groups()
        poly = (build_classical_phi(int(ell)) if kind == "Phi"
                else build(kind, int(ell)))
        text = poly_to_text(poly, basis)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_store_text_matches_reference():
    # every polynomial the benchmark checks, byte for byte
    assert_store_digests(json.loads(REFERENCE.read_text())["store_sha256"])


def test_store_text_matches_recorded_sea_levels():
    # past the benchmark's levels, which stop at ell = 31
    assert_store_digests({name: digest for name, digest in RECORDED.items()
                          if "_" not in name})


@pytest.mark.parametrize("name", sorted(n for n in RECORDED if "_" in n))
def test_display_text_matches_recorded(name):
    # the AB and Delta displays, which the writer alone prints
    assert_store_digests({name: RECORDED[name]})


# SEA-size levels, recorded from the builder of the re-centred power sums
# before anything else changed how they are built; U101 and U131 are past
# the CLI's levels.  Rebuilding them, and the sweep of every prime level
# below, takes about half a minute, so they run only when CCR_SEA_STORES
# is set
SEA_STORES = json.loads((Path(__file__).resolve().parent / "data"
                         / "sea_store_sha256.json").read_text())
SWEEP_ELLS = [ell for ell in range(5, 132)
              if all(ell % d for d in range(2, math.isqrt(ell) + 1))]
needs_sea_stores = pytest.mark.skipif(
    not os.environ.get("CCR_SEA_STORES"),
    reason="set CCR_SEA_STORES=1 to rebuild the SEA-level stores")


@pytest.fixture(scope="module")
def sea_build():
    """(build(kind, ell), its seconds), each built once: the SEA-level
    stores and the sweep share U59, U71, U101, U131, Ua59 and Ua71."""
    built = {}

    def get(kind, ell):
        if (kind, ell) not in built:
            start = perf_counter()
            poly = build(kind, ell)
            built[kind, ell] = poly, perf_counter() - start
        return built[kind, ell]
    return get


@needs_sea_stores
def test_sea_level_stores_match_recorded_and_cm_vectors(sea_build):
    # each digest, and each polynomial at certify's supersingular CM
    # vectors, a check that shares no step with the builder
    failed = []
    for name, digest in SEA_STORES.items():
        kind, ell = re.fullmatch(r"([A-Za-z]+)(\d+)", name).groups()
        poly, _ = sea_build(kind, int(ell))
        if hashlib.sha256(poly_to_text(poly).encode()).hexdigest() != digest:
            failed.append(f"{name} digest")
        failed += [f"{name} at D = {disc}" for disc in certify.CM_J
                   if not vanishes_at_cm_vector(poly, disc)]
    assert not failed


@needs_sea_stores
def test_every_prime_level_through_131_at_cm_vectors(sea_build, capsys):
    # U at every prime level, and Ua at each ell = 11 (mod 12), stepped at
    # the D = -7 and -8 vectors: the Elkies step on U alone finds Velu's
    # isogeny once among its two results, and the Atkin step finds it
    # too, with every Atkin result an Elkies one.  One line per level
    # gives its build seconds, store size and widest coefficient
    failed, rows = [], []
    for ell in SWEEP_ELLS:
        built = {kind: sea_build(kind, ell)
                 for kind in ("U", "Ua")[:1 + (ell % 12 == 11)]}
        row = []
        for kind, (poly, seconds) in built.items():
            bits = max(abs(c.numerator).bit_length()
                       for c in poly.terms.values())
            row.append(f"{kind} {seconds:.2f} s, "
                       f"{len(poly_to_text(poly)) / 1024:.1f} KB, {bits} bits")
        rows.append(f"ell {ell}: " + "; ".join(row))
        polys = {kind: poly for kind, (poly, _) in built.items()}
        for disc in (-7, -8):
            p, a, b, *velu = cm_vector(disc, ell)
            curve = CurveParams(PrimeField(p), a, b)
            sink = []
            elkies = [[r.sigma, r.a_star, r.b_star] for r in
                      elkies_step(curve, ell, polys["U"], diagnostics=sink)]
            if len(elkies) != 2 or elkies.count(velu) != 1 or sink:
                failed.append(f"U{ell} at D = {disc}")
            if "Ua" not in polys:
                continue
            sink = []
            atkin = [[r.sigma, r.a_star, r.b_star] for r in
                     atkin_step(curve, ell, polys["Ua"], diagnostics=sink)]
            if len(atkin) != 2 or velu not in atkin or sink:
                failed.append(f"Ua{ell} at D = {disc}")
            if any(r not in elkies for r in atkin):
                failed.append(f"Ua{ell} at D = {disc}: an Atkin result "
                              "that no Elkies one matches")
    with capsys.disabled():
        print("", *rows, sep="\n")
    assert not failed
