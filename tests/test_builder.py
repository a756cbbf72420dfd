"""Series-side construction of the modular polynomials."""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly import builder
from ccrpoly.builder import (_build_at, build, build_classical_phi,
                             conjugate_series, form_basis_exponents,
                             match_to_form_basis, power_sums)
from ccrpoly.errors import BasisMatchError, BuildError, PrecisionError
from ccrpoly.qseries import (PowerSeries, delta_series, eisenstein_series,
                             j_series)
from ccrpoly.symbolic import MultiPoly
from ccrpoly.trivariate import poly_to_text
from oracles import evaluate, zero_through

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
    assert [(t.step, t.lead, t.den, t.nums) for t in got] == \
        [(t.step, t.lead, t.den, t.nums) for t in expected]


class TestPowerTraces:
    # every k_max in 1..40 passes each square m^2 and m^2 +- 1
    K_MAX = 40

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.one_of(st.just(0), st.integers(-10 ** 4, 10 ** 4),
                              st.fractions(min_value=-9, max_value=9,
                                           max_denominator=12)),
                    min_size=1, max_size=14),
           st.integers(-4, 4))
    def test_matches_sequential_powers(self, ell, coeffs, lead):
        big_r = PowerSeries(coeffs, lead=lead, step=ell)
        expected = sequential_traces(big_r, ell, self.K_MAX)
        for k_max in range(1, self.K_MAX + 1):
            assert_same_traces(builder.power_traces(big_r, ell, k_max),
                               expected[:k_max])

    def test_negative_lead_j_series_of_phi(self):
        big_r = j_series(24).reinterpret(5)
        expected = sequential_traces(big_r, 5, self.K_MAX)
        for k_max in range(1, self.K_MAX + 1):
            assert_same_traces(builder.power_traces(big_r, 5, k_max),
                               expected[:k_max])


class TestConjugateSeries:
    def test_sigma_root_constant(self):
        r, big_r = conjugate_series("U", 5, 10)
        assert r.coefficient(0) == 10            # (5/2)(5-1)
        assert big_r.step == 5
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


class TestPowerSums:
    def test_first_sum_vanishes_for_sigma_kind(self):
        s = power_sums("U", 5, 1, 17)[0]
        assert zero_through(s, 17)

    def test_second_sum_is_120_e4(self):
        s = power_sums("U", 5, 2, 17)[1]
        e4 = eisenstein_series(4, 17)
        assert zero_through(s - 120 * e4, 17)

    def test_eta_variant_low_sums_vanish(self):
        sums = power_sums("Ua", 11, 5, 23)
        for s in sums:
            assert zero_through(s, 23)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_newton_elementary_gives_the_polynomial(roots):
    # the power sums of integer series r_i give the coefficients of
    # prod (X - r_i): that of X^(n-k) is (-1)^k e_k
    rs = [PowerSeries(c) for c in roots]
    n = len(rs)
    sums = [sum((r ** k for r in rs[1:]), rs[0] ** k) for k in range(1, n + 1)]
    zero = PowerSeries.constant(0, 4)
    coeffs = [PowerSeries.constant(1, 4)]
    for r in rs:
        coeffs = [a - r * b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
    levels = []

    def step(k, e_k):
        levels.append(k)
        return e_k

    elem = builder._newton_elementary(sums, PowerSeries.constant(1, 4), step)
    assert levels == list(range(1, n + 1))
    assert [e if k % 2 == 0 else -e for k, e in enumerate(elem, 1)] \
        == coeffs[1:]


class TestBasisMatch:
    def test_exponent_enumeration(self):
        assert form_basis_exponents(0) == [(0, 0)]
        assert form_basis_exponents(1) == []
        assert form_basis_exponents(6) == [(3, 0), (0, 2)]
        assert form_basis_exponents(7) == [(2, 1)]

    def test_delta_matches_cusp_form(self):
        s = delta_series(12) * 1728
        assert match_to_form_basis(s, 6) == {(3, 0): 1, (0, 2): -1}

    def test_zero_series_empty_result(self):
        z = PowerSeries([0] * 12)
        assert match_to_form_basis(z, 6) == {}
        assert match_to_form_basis(z, 1) == {}

    def test_unmatchable_series_raises(self):
        # q is not a weight-4 Eisenstein multiple
        s = PowerSeries([0, 1] + [0] * 10)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 2)

    def test_pole_raises(self):
        # 5/q + E4 is not E4: nothing below q^0 may be dropped
        s = PowerSeries([5] + eisenstein_series(4, 8).coeffs, lead=-1)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 2)

    def test_zeros_below_q0_are_no_pole(self):
        s = PowerSeries([0, 0] + eisenstein_series(4, 8).coeffs, lead=-2)
        assert match_to_form_basis(s, 2) == {(1, 0): 1}

    def test_nonzero_series_with_empty_basis_raises(self):
        s = PowerSeries([1] * 8)
        with pytest.raises(BasisMatchError):
            match_to_form_basis(s, 1)

    @pytest.mark.parametrize("w", [6, 7, 12, 14, 29])
    def test_sturm_bound_is_the_precision_floor(self, w):
        # a weight-2w form known to its first w//6 + 1 coefficients matches;
        # one coefficient fewer is a PrecisionError, not a guess
        sturm = w // 6 + 1
        e4, e6 = eisenstein_series(4, sturm), eisenstein_series(6, sturm)
        exps = form_basis_exponents(w)
        f = PowerSeries([0] * sturm)
        for k, (a, b) in enumerate(exps, 1):
            f = f + (e4 ** a) * (e6 ** b) * k
        assert match_to_form_basis(f, w) == {ab: k for k, ab
                                             in enumerate(exps, 1)}
        with pytest.raises(PrecisionError):
            match_to_form_basis(f.truncate(sturm - 1), w)


class TestBuild:
    def test_u5_equals_printed_polynomial(self, u5):
        assert u5.to_basis("AB").terms == {k: Fraction(v)
                                           for k, v in U5_AB.items()}

    def test_ua11_equals_printed_polynomial(self, ua11):
        from ccrpoly.trivariate import delta_display_terms
        assert delta_display_terms(ua11) == {k: Fraction(v)
                                             for k, v in UA11_DELTA.items()}

    def test_validation_and_integrality(self, u7, v7, w7):
        for poly in (u7, v7, w7):
            poly.validate()
            assert poly.to_basis("AB").is_integral()

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

    def test_series_annihilation(self, phi2, phi3, phi5):
        for ell, phi in ((2, phi2), (3, phi3), (5, phi5)):
            # the X^ell j^ell cross term costs ell^2 + ell of window
            prec = 34 + ell * (ell + 1)
            j = j_series(prec)
            jl = j_series(prec // ell + 6).substitute_q_power(ell)
            assert zero_through(evaluate(phi, j, jl), 30)

    def test_symmetry(self, phi5):
        assert phi5.is_symmetric()

    def test_every_tail_row_is_checked(self, monkeypatch):
        # e_1 plus q^row, for each known row past q^0, is no polynomial
        # in j
        real = builder._newton_elementary
        ends = []

        def bump_at(row):
            def spy(sums, e0, step):
                def bumped(k, e_k):
                    ends.append(e_k.end)
                    coeffs = [0] * len(e_k.nums)
                    coeffs[row - e_k.lead] = 1
                    return step(k, e_k + PowerSeries(coeffs, lead=e_k.lead))
                return real(sums, e0, bumped)
            return spy

        row = 1
        while not ends or row < ends[0]:
            monkeypatch.setattr(builder, "_newton_elementary", bump_at(row))
            with pytest.raises(BuildError, match="not a polynomial in j"):
                build_classical_phi(5)
            row += 1
        assert row > 2

    @pytest.mark.parametrize("ell", [2, 5, 13])
    def test_re_expansion_covers_every_later_product(self, monkeypatch,
                                                     ell):
        # level k + i multiplies e_k by s_i: a re-expanded e_k at least as
        # long as s_i leaves that product the size s_i gives it
        seen = []
        real = builder._newton_elementary

        def spy(sums, e0, step):
            seen.append((sums, real(sums, e0, step)))
            return seen[-1][1]

        monkeypatch.setattr(builder, "_newton_elementary", spy)
        build_classical_phi(ell)
        (sums, e), = seen
        for k, e_k in enumerate(e, 1):
            for s_i in sums[:ell + 1 - k]:
                assert len(e_k.nums) >= len(s_i.nums)

    def test_rejects_unsupported_level(self):
        with pytest.raises(ValueError):
            build_classical_phi(4)
        with pytest.raises(ValueError):
            build_classical_phi(17)


def atkin_lehner_holds(ua, n_prec):
    """Series check of the involution relation on the eta variant: the
    polynomial annihilates (-ell*f, A*, B*) where f is its own
    distinguished root series, A* = -3 ell^4 E4(q^ell) and
    B* = -2 ell^6 E6(q^ell).  Evaluation happens in the AB basis.  It
    costs about ten times the build it checks, so it is a test, not a
    build gate."""
    ell = ua.ell
    prec = n_prec + ell + 4
    f_root, _ = conjugate_series("Ua", ell, prec)
    sub_prec = -(-prec // ell) + 1
    x = f_root * (-ell)
    y = eisenstein_series(4, sub_prec).substitute_q_power(ell) \
        .truncate(prec) * (-3 * ell ** 4)
    z = eisenstein_series(6, sub_prec).substitute_q_power(ell) \
        .truncate(prec) * (-2 * ell ** 6)
    return zero_through(evaluate(ua.to_basis("AB"), x, y, z), n_prec)


class TestInvolution:
    def test_holds_for_built_polynomial(self, ua11):
        assert atkin_lehner_holds(ua11, 20)

    def test_perturbed_polynomial_fails(self, ua11):
        from ccrpoly.trivariate import TrivariatePoly
        bad = dict(ua11.terms)
        bad[(6, 0, 3)] = bad.get((6, 0, 3), Fraction(0)) + 1
        wrong = TrivariatePoly("Ua", 11, "E4E6", bad)
        assert not atkin_lehner_holds(wrong, 20)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# U47 and Ua47 digests recorded from a builder that formed every R^k by
# sequential products, a path independent of power_traces; Phi2 and Phi3,
# which no benchmark level covers, from a builder that formed every power
# of j by sequential products and re-expanded each e_k on one long
# window, so every PHI_ELLS level is pinned
RECORDED = Path(__file__).resolve().parent / "data" / "store_sha256.json"


def assert_store_digests(digests):
    assert digests
    for name, digest in digests.items():
        kind, ell = re.fullmatch(r"([A-Za-z]+)(\d+)", name).groups()
        poly = (build_classical_phi(int(ell)) if kind == "Phi"
                else build(kind, int(ell)))
        text = poly_to_text(poly)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_store_text_matches_reference():
    # every polynomial the benchmark checks, byte for byte
    assert_store_digests(json.loads(REFERENCE.read_text())["store_sha256"])


def test_store_text_matches_recorded_sea_levels():
    # past the benchmark's levels, which stop at ell = 31
    assert_store_digests(json.loads(RECORDED.read_text()))
