"""Isogenous-curve recovery: sigma chart, f chart, power sums, and the
symbolic cross-checks."""

import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccrpoly import isogeny
from ccrpoly.builder import build, build_classical_phi
from ccrpoly.errors import (DegenerateDerivative, DegeneratePoint, GcdDegreeTwo,
                            VerificationError)
from ccrpoly.ffield import (CurveParams, DerivativeBundle, PrimeField,
                            derivative_bundle, roots, specialize)
from ccrpoly.isogeny import (AtkinStepResult, IsogenyStepResult,
                             atkin_b_star, atkin_e4_tilde, atkin_sigma,
                             atkin_step, e4_tilde, e6_tilde,
                             elkies_power_sums, elkies_step)
from ccrpoly.symbolic import (derive_atkin_e4t, derive_atkin_sigma,
                              derive_e4t, derive_e6t)
from ccrpoly.trivariate import TrivariatePoly
from oracles import cm_vector, eval_mod, frobenius_trace

P = 1009


@pytest.fixture(scope="module")
def fld():
    return PrimeField(P)


@pytest.fixture(scope="module")
def curve13(fld):
    return CurveParams(fld, 1, 3)


@pytest.fixture(scope="module")
def reports():
    return {"e4t": derive_e4t(), "e6t": derive_e6t(),
            "a-sigma": derive_atkin_sigma(), "a-e4t": derive_atkin_e4t()}


def sigma_point(ell, sigma, curve, bundle):
    return {"ell": ell, "sigma": sigma, "E4": curve.e4, "E6": curve.e6,
            "ds": bundle.du_s, "d4": bundle.du_4, "d6": bundle.du_6,
            "ds4": bundle.du_s4, "ds6": bundle.du_s6, "d46": bundle.du_46}


def f_point(ell, f, curve, bundle):
    return {"ell": ell, "f": f, "E4": curve.e4, "E6": curve.e6,
            "df": bundle.du_s, "d4": bundle.du_4, "d6": bundle.du_6,
            "df4": bundle.du_s4, "df6": bundle.du_s6, "d46": bundle.du_46}


def fake_bundle(**over):
    vals = dict(u=0, du_s=1, du_4=1, du_6=1, du_s4=1, du_s6=1, du_46=1,
                du_ss=1, du_44=1, du_66=1)
    vals.update(over)
    return DerivativeBundle(**vals)


# Each recovery function's inputs that may vanish, its guarded ones first
# in the order the guards run; a guard's error class and exact message.
# The root sigma and the curve's E4 and E6 are not divisors of any
# formula, so they may vanish without a guard.
_SIGMA_INPUTS = ("ds", "sigma", "E4", "E6")
_F_INPUTS = ("f", "df", "E4", "E6")
_GUARDS = {
    "ds": (DegenerateDerivative, "ds = 0 at sigma root"),
    "f": (DegeneratePoint, "f = 0"),
    "df": (DegenerateDerivative, "df = 0 at f root"),
}
_GUARD_ORDER = {
    "e4_tilde": (e4_tilde, _SIGMA_INPUTS),
    "e6_tilde": (e6_tilde, _SIGMA_INPUTS),
    "atkin_sigma": (atkin_sigma, _F_INPUTS),
    "atkin_e4_tilde": (atkin_e4_tilde, _F_INPUTS),
}


def _guard_cases():
    """Every pair of vanishing inputs, with the guard that must win: the
    first guarded one in the function's order, or None when no guard
    trips and the function must answer."""
    for name, (_, inputs) in _GUARD_ORDER.items():
        for pair in combinations(inputs, 2):
            winner = next((z for z in pair if z in _GUARDS), None)
            yield pytest.param(name, pair, winner,
                               id=f"{name}-{'-'.join(pair)}")


@pytest.mark.parametrize("name, zeros, winner", _guard_cases())
def test_guard_order(fld, name, zeros, winner):
    func, _ = _GUARD_ORDER[name]
    root = 0 if {"sigma", "f"} & set(zeros) else 7
    du_s = 0 if {"ds", "df"} & set(zeros) else 1
    e4 = 0 if "E4" in zeros else 5
    e6 = 0 if "E6" in zeros else 3
    args = fld, 11, root, fake_bundle(du_s=du_s), e4, e6
    if winner is None:
        assert func(*args) in range(P)
        return
    error, message = _GUARDS[winner]
    with pytest.raises(error) as info:
        func(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("a, b", [(0, 3), (1, 0)], ids=["E4", "E6"])
def test_b_star_guard_order(fld, ua11, a, b):
    # f = 0 wins over a curve with E4 = 0 (j = 0) or E6 = 0 (j = 1728)
    with pytest.raises(DegeneratePoint) as info:
        atkin_b_star(11, 0, 5, CurveParams(fld, a, b), ua11)
    assert str(info.value) == "f = 0"


class TestE4Tilde:
    def test_worked_example(self, fld, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 584)
        e4t = e4_tilde(fld, 5, 584, bundle, curve13.e4, curve13.e6)
        assert e4t == 497
        assert -3 * 5**4 * e4t % P == 441

    def test_symbolic_cross_check(self, fld, curve13, u5, reports):
        bundle = derivative_bundle(u5, curve13, 584)
        point = sigma_point(5, 584, curve13, bundle)
        assert eval_mod(reports["e4t"].derived, point, P) == 497

    def test_degenerate_derivative(self, fld, curve13):
        with pytest.raises(DegenerateDerivative):
            e4_tilde(fld, 5, 584, fake_bundle(du_s=0), curve13.e4, curve13.e6)

    def test_level_gate(self, fld, curve13):
        with pytest.raises(ValueError):
            e4_tilde(fld, 4, 1, fake_bundle(), curve13.e4, curve13.e6)
        f5 = PrimeField(5)
        with pytest.raises(ValueError):
            e4_tilde(f5, 5, 1, fake_bundle(), 1, 1)


class TestE6Tilde:
    def test_worked_example(self, fld, curve13, u5, w5):
        bundle = derivative_bundle(u5, curve13, 584)
        e6t = e6_tilde(fld, 5, 584, bundle, curve13.e4, curve13.e6)
        b_star = -2 * 5**6 * e6t % P
        assert b_star == 997
        assert specialize(w5, curve13).evaluate(b_star) == 0

    def test_symbolic_cross_check(self, fld, curve13, u5, reports):
        bundle = derivative_bundle(u5, curve13, 584)
        point = sigma_point(5, 584, curve13, bundle)
        want = e6_tilde(fld, 5, 584, bundle, curve13.e4, curve13.e6)
        assert eval_mod(reports["e6t"].derived, point, P) == want

    def test_degenerate_derivative(self, fld, curve13):
        with pytest.raises(DegenerateDerivative):
            e6_tilde(fld, 5, 7, fake_bundle(du_s=0), curve13.e4, curve13.e6)


class TestElkiesStep:
    def test_five_isogeny_worked_example(self, curve13, u5, v5, w5, phi5):
        res = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5)
        assert [r.sigma for r in res] == [584, 664]
        first = res[0]
        assert (first.sigma, first.a_star, first.b_star) == (584, 441, 997)
        assert (first.e4t, first.e6t) == (497, 939)
        for r in res:
            assert r.validated.v_root and r.validated.w_root
            assert r.validated.phi_match

    def test_scaling_invariant(self, curve13, u5):
        for r in elkies_step(curve13, 5, u5):
            assert r.a_star == -3 * pow(5, 4, P) * r.e4t % P
            assert r.b_star == -2 * pow(5, 6, P) * r.e6t % P

    def test_power_sum_fields(self, curve13, u5):
        r = elkies_step(curve13, 5, u5)[0]
        assert r.sigma0 == 2
        assert r.sigma2 == ((1 - r.a_star) * pow(5, P - 2, P)
                            - 2 * 1 * r.sigma0) * pow(6, P - 2, P) % P

    def test_flags_none_without_polys(self, curve13, u5):
        r = elkies_step(curve13, 5, u5)[0]
        assert r.validated == (None, None, None) or (
            r.validated.v_root is None
            and r.validated.w_root is None
            and r.validated.phi_match is None)

    def test_atkin_prime_empty(self, fld, u5):
        assert elkies_step(CurveParams(fld, 1, 2), 5, u5) == []

    def test_determinism(self, curve13, u5, v5, w5, phi5):
        a = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5)
        b = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5)
        assert a == b

    def test_seven_isogeny(self, curve13, u7, v7, w7, phi7):
        res = elkies_step(curve13, 7, u7, v=v7, w=w7, phi=phi7)
        assert [r.sigma for r in res] == [50, 909]
        for r in res:
            assert r.validated.v_root and r.validated.w_root
            assert r.validated.phi_match

    def test_degenerate_root_skipped_with_diagnostic(self, fld, u7):
        # j = 0 curve whose only root is the double root sigma = 0, where
        # ds vanishes: the root is skipped, not fatal
        c = CurveParams(fld, 0, 1)
        sink = []
        assert elkies_step(c, 7, u7, diagnostics=sink) == []
        assert sink == [(0, "ds = 0 at sigma root")]

    def test_zero_discriminant_isogenous_curve(self, monkeypatch, curve13,
                                               u5, v5, w5, phi5):
        # E4t = E6t = 1 makes 4A*^3 + 27B*^2 vanish: the Phi check fails
        # with one diagnostic per root, while V and W are read as ever
        monkeypatch.setattr(isogeny, "e4_tilde", lambda *args: 1)
        monkeypatch.setattr(isogeny, "e6_tilde", lambda *args: 1)
        a_star, b_star = -3 * 5 ** 4 % P, -2 * 5 ** 6 % P
        v_ok = specialize(v5, curve13).evaluate(a_star) == 0
        w_ok = specialize(w5, curve13).evaluate(b_star) == 0
        sink = []
        res = elkies_step(curve13, 5, u5, v5, w5, phi5, diagnostics=sink)
        assert [r.sigma for r in res] == [584, 664]
        for r in res:
            assert (r.a_star, r.b_star) == (a_star, b_star)
            assert r.validated == (v_ok, w_ok, False)
        assert sink == [(s, "isogenous curve has zero discriminant")
                        for s in (584, 664)]
        # without Phi there is nothing to report
        sink = []
        res = elkies_step(curve13, 5, u5, v5, w5, diagnostics=sink)
        assert [r.validated for r in res] == [(v_ok, w_ok, None)] * 2
        assert sink == []

    @pytest.mark.parametrize("b, kinds, found", [
        (3, ["U"], 0), (6, ["U", "V", "W", "Phi"], 2)])
    def test_checks_specialized_only_when_u_has_a_root(
            self, monkeypatch, fld, u13, v13, w13, phi13, b, kinds, found):
        # y^2 = x^3 + x + 3 has no 13-isogeny over F_1009 and
        # y^2 = x^3 + x + 6 has two: V, W and Phi cost only the second
        seen = []

        def spy(P, curve):
            seen.append(P.kind)
            return specialize(P, curve)

        monkeypatch.setattr(isogeny, "specialize", spy)
        res = elkies_step(CurveParams(fld, 1, b), 13, u13, v13, w13, phi13)
        assert (seen, len(res)) == (kinds, found)

    @pytest.mark.parametrize("b, loaded", [(3, []), (6, ["V", "W", "Phi"])])
    def test_loaders_called_only_when_u_has_a_root(
            self, fld, u13, v13, w13, phi13, b, loaded):
        # a cross-check given as a function that returns it is loaded once,
        # and only on the curve with 13-isogenies; the results are those
        # of the polynomials themselves
        seen = []

        def loader(poly):
            def load():
                seen.append(poly.kind)
                return poly
            return load

        curve = CurveParams(fld, 1, b)
        res = elkies_step(curve, 13, u13,
                          *(loader(P) for P in (v13, w13, phi13)))
        assert seen == loaded
        assert res == elkies_step(curve, 13, u13, v13, w13, phi13)

    def test_level_gates(self, curve13, u5):
        with pytest.raises(ValueError):
            elkies_step(curve13, 4, u5)
        f5 = PrimeField(5)
        with pytest.raises(ValueError):
            elkies_step(CurveParams(f5, 1, 3), 5, u5)


class TestElkiesPowerSums:
    def test_identity_shape(self, fld):
        s0, s2, s3 = elkies_power_sums(fld, 0, 0, 0, 0, 0, 5)
        assert (s0, s2, s3) == (2, 0, 0)

    def test_round_trip(self, fld):
        rng = random.Random(5)
        for _ in range(20):
            a, b, a_s, b_s, sig = (rng.randrange(P) for _ in range(5))
            ell = rng.choice([5, 7, 11, 13])
            s0, s2, s3 = elkies_power_sums(fld, a, b, a_s, b_s, sig, ell)
            assert (a - a_s) % P == 5 * (6 * s2 + 2 * a * s0) % P
            assert (b - b_s) % P == 7 * (10 * s3 + 6 * a * sig + 4 * b * s0) % P

    def test_small_p_rejected(self):
        f7 = PrimeField(7)
        with pytest.raises(ValueError):
            elkies_power_sums(f7, 1, 1, 1, 1, 1, 11)

    def test_elkies_step_refuses_small_p(self, u5):
        # refused at entry: a curve whose U5 has no root over F_7 would
        # otherwise read as an Atkin prime
        f7 = PrimeField(7)
        curves = [CurveParams(f7, a, b) for a in range(7) for b in range(7)
                  if (4 * a ** 3 + 27 * b * b) % 7]
        assert len(curves) == 42
        for curve in curves:
            with pytest.raises(ValueError, match="power-sum denominators"):
                elkies_step(curve, 5, u5)


@pytest.fixture(scope="module")
def counted_polys():
    """U at every prime 5..31, Ua at 11 and 23, Phi at 5..13."""
    return ({ell: build("U", ell) for ell in (5, 7, 11, 13, 17, 19, 23, 29,
                                              31)},
            {ell: build("Ua", ell) for ell in (11, 23)},
            {ell: build_classical_phi(ell) for ell in (5, 7, 11, 13)})


@st.composite
def ordinary_curves(draw):
    """(curve, t): an ordinary curve with j not in {0, 1728} and its
    trace of Frobenius, counted naively."""
    p = draw(st.sampled_from((10007, 100003)))
    a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    assume((4 * a ** 3 + 27 * b * b) % p)
    t = frobenius_trace(p, a, b)
    assume(t)
    return CurveParams(PrimeField(p), a, b), t


def atkin_root_counts(ell: int, t: int, p: int) -> set:
    """The F_p root counts Atkin's classification allows (Schoof 1995,
    section 6): 1 + ((t^2 - 4p)/ell) off ell | t^2 - 4p, else 1 or ell + 1."""
    d = (t * t - 4 * p) % ell
    if not d:
        return {1, ell + 1}
    return {2 if pow(d, (ell - 1) // 2, ell) == 1 else 0}


def j_of(a: int, b: int, p: int) -> int:
    """j(y^2 = x^3 + ax + b) = 1728 * 4a^3 / (4a^3 + 27b^2) mod p."""
    c = 4 * a ** 3
    return 1728 * c * pow(c + 27 * b * b, -1, p) % p


@settings(max_examples=16, deadline=None)
@given(ordinary_curves())
# two kernels, one j*: U11 has two roots, and Phi_11(X, j) one double root
@example((CurveParams(PrimeField(10007), 1246, 4653), -196))
def test_root_counts_follow_atkin_classification(counted_polys, case):
    # every root of U and Ua counts, whether it ends in a result or a
    # diagnostic.  Phi(X, j), Phi specialized at the curve, has one root
    # for each j* of an F_p-rational kernel, and roots() gives distinct
    # roots, so they are the j* of U's results, with at most one more
    # for each root of U that ends in a diagnostic
    curve, t = case
    u, ua, phi = counted_polys
    p = curve.field.p
    j_stars = {}
    for kind, step, polys in (("U", elkies_step, u), ("Ua", atkin_step, ua)):
        for ell, poly in polys.items():
            diag = []
            results = step(curve, ell, poly, diagnostics=diag)
            assert len(results) + len(diag) in atkin_root_counts(ell, t, p), \
                (kind, ell)
            if kind == "U":
                j_stars[ell] = ({j_of(r.a_star, r.b_star, p) for r in results},
                                len(diag))
    for ell, poly in phi.items():
        found = set(roots(specialize(poly, curve)))
        seen, unread = j_stars[ell]
        assert seen <= found and len(found) <= len(seen) + unread, \
            ("Phi", ell)


def _curves(p: int, a_step: int = 1, b_step: int = 1):
    """(curve, t) for the nonsingular curves over F_p with a = 1 mod
    a_step and b = 1 mod b_step, every one when both steps are 1."""
    fld = PrimeField(p)
    for a in range(1 % a_step, p, a_step):
        for b in range(1 % b_step, p, b_step):
            if (4 * a ** 3 + 27 * b * b) % p:
                yield CurveParams(fld, a, b), frobenius_trace(p, a, b)


# an isogenous curve has the curve's point count, counted naively
@pytest.mark.parametrize("p, results", ((101, 1316), (103, 1305)))
def test_elkies_isogenous_curve_has_the_point_count(counted_polys, p,
                                                     results):
    found = 0
    for curve, t in _curves(p, 7, 11):
        for ell, u in counted_polys[0].items():
            for r in elkies_step(curve, ell, u):
                assert frobenius_trace(p, r.a_star, r.b_star) == t, \
                    (curve, ell, r.sigma)
                found += 1
    assert found == results


@pytest.mark.parametrize("p, results", ((5, 20), (7, 60), (13, 144),
                                        (17, 448), (19, 594)))
def test_atkin_isogenous_curve_has_the_point_count(counted_polys, p,
                                                    results):
    found = 0
    for curve, t in _curves(p):
        for ell, ua in counted_polys[1].items():
            for r in atkin_step(curve, ell, ua):
                if r.b_star is not None:
                    assert frobenius_trace(p, r.a_star, r.b_star) == t, \
                        (curve, ell, r.f)
                    found += 1
    assert found == results


# Velu's isogenies at supersingular CM curves, worked out with the
# oracle's own point arithmetic: the step must find the one whose kernel
# is rational, beside the other rational kernel
_CM_ELLS = (5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.fixture(scope="module")
def velu_vw():
    """V and W at every prime 5..31, the Elkies step's cross-checks."""
    return {ell: (build("V", ell), build("W", ell)) for ell in _CM_ELLS}


def _cm_diagnostics(disc: int, ell: int) -> list:
    """The diagnostics of a CM vector's Elkies step.  At j = 0 (disc -3)
    when ell = 1 (mod 3), and at j = 1728 (disc -4) when ell = 1
    (mod 4), the curve's automorphism of order 3 or 4 fixes two kernels.
    Frobenius swaps them, and both have sigma = 0: a double root of U,
    where ds vanishes.  Every other root is worked out."""
    order = {-3: 3, -4: 4}.get(disc)
    return [(0, "ds = 0 at sigma root")] if order and ell % order == 1 \
        else []


@pytest.mark.parametrize("disc", (-3, -4, -7, -8))
@pytest.mark.parametrize("ell", _CM_ELLS)
def test_elkies_step_matches_velu_at_cm_vectors(counted_polys, velu_vw,
                                                 ell, disc):
    p, a, b, *velu = cm_vector(disc, ell)
    sink = []
    out = elkies_step(CurveParams(PrimeField(p), a, b), ell,
                      counted_polys[0][ell], *velu_vw[ell], diagnostics=sink)
    assert len(out) == 2
    match = [r for r in out if [r.sigma, r.a_star, r.b_star] == velu]
    assert len(match) == 1
    assert match[0].validated.v_root is True
    assert match[0].validated.w_root is True
    assert sink == _cm_diagnostics(disc, ell)


# level 47 without V and W, which take 0.2-0.75 s to build, and Ua47 also
# at D = -11, the build-end check's second vector
@pytest.fixture(scope="module")
def polys47():
    return build("U", 47), build("Ua", 47)


@pytest.mark.parametrize("disc", (-3, -4, -7, -8))
def test_elkies_step_matches_velu_at_level_47(polys47, disc):
    p, a, b, *velu = cm_vector(disc, 47)
    sink = []
    out = elkies_step(CurveParams(PrimeField(p), a, b), 47, polys47[0],
                      diagnostics=sink)
    assert len(out) == 2
    assert [[r.sigma, r.a_star, r.b_star] for r in out].count(velu) == 1
    assert sink == []


@pytest.mark.parametrize("ell, disc", [
    *((ell, disc) for ell in (11, 23) for disc in (-3, -4, -7, -8)),
    *((47, disc) for disc in (-7, -8, -11))])
def test_atkin_step_matches_velu_at_cm_vectors(counted_polys, polys47, ell,
                                                disc):
    p, a, b, *velu = cm_vector(disc, ell)
    ua = polys47[1] if ell == 47 else counted_polys[1][ell]
    sink = []
    out = atkin_step(CurveParams(PrimeField(p), a, b), ell, ua,
                     diagnostics=sink)
    assert len(out) == 2
    assert velu in [[r.sigma, r.a_star, r.b_star] for r in out]
    assert sink == []


class TestAtkinSigma:
    def test_both_roots(self, fld, curve13, ua11):
        for f, want in ((65, 75), (333, 681)):
            bundle = derivative_bundle(ua11, curve13, f)
            assert atkin_sigma(fld, 11, f, bundle, curve13.e4, curve13.e6) == want

    def test_sigma_is_u_root(self, fld, curve13, ua11, u11):
        u_spec = specialize(u11, curve13)
        for f in (65, 333):
            bundle = derivative_bundle(ua11, curve13, f)
            s = atkin_sigma(fld, 11, f, bundle, curve13.e4, curve13.e6)
            assert u_spec.evaluate(s) == 0

    def test_symbolic_cross_check(self, fld, curve13, ua11, reports):
        bundle = derivative_bundle(ua11, curve13, 65)
        point = f_point(11, 65, curve13, bundle)
        assert eval_mod(reports["a-sigma"].derived, point, P) == 75

    def test_degenerate(self, fld, curve13):
        with pytest.raises(DegeneratePoint):
            atkin_sigma(fld, 11, 0, fake_bundle(), curve13.e4, curve13.e6)
        with pytest.raises(DegenerateDerivative):
            atkin_sigma(fld, 11, 65, fake_bundle(du_s=0),
                        curve13.e4, curve13.e6)


class TestAtkinE4Tilde:
    def test_worked_example(self, fld, curve13, ua11):
        bundle = derivative_bundle(ua11, curve13, 65)
        e4t = atkin_e4_tilde(fld, 11, 65, bundle, curve13.e4, curve13.e6)
        assert e4t == 532
        assert -3 * pow(11, 4, P) * e4t % P == 395

    def test_symbolic_cross_check(self, fld, curve13, ua11, reports):
        bundle = derivative_bundle(ua11, curve13, 65)
        point = f_point(11, 65, curve13, bundle)
        assert eval_mod(reports["a-e4t"].derived, point, P) == 532

    def test_degenerate(self, fld, curve13):
        with pytest.raises(DegeneratePoint):
            atkin_e4_tilde(fld, 11, 0, fake_bundle(), curve13.e4, curve13.e6)
        with pytest.raises(DegenerateDerivative):
            atkin_e4_tilde(fld, 11, 65, fake_bundle(du_s=0),
                           curve13.e4, curve13.e6)


class TestAtkinBStar:
    def test_worked_example(self, curve13, ua11, w11):
        b_star = atkin_b_star(11, 65, 395, curve13, ua11)
        assert b_star == 460
        assert specialize(w11, curve13).evaluate(b_star) == 0

    def test_second_branch(self, curve13, ua11):
        assert atkin_b_star(11, 333, 581, curve13, ua11) == 584

    def test_inconsistent_a_star(self, curve13, ua11):
        with pytest.raises(VerificationError, match="share no root"):
            atkin_b_star(11, 65, 123, curve13, ua11)

    def test_gcd_degree_two(self, fld, curve13):
        # synthetic variant whose B-slot polynomial reproduces P1
        # exactly, so the gcd cannot drop below degree 2
        f, a_star = 65, 395
        e4, e6 = curve13.e4, curve13.e6
        delta = (pow(e4, 3, P) - e6 * e6) % P * pow(1728, P - 2, P) % P
        c0 = (6912 * pow(f, 12, P) * pow(delta, P - 2, P)
              + 4 * pow(a_star, 3, P) * pow(27, P - 2, P)) % P
        # B^2 + c0 in E4, E6: B = -2 E6, so B^2 = 4 E6^2
        fake = TrivariatePoly("Ua", 11, {(0, 0, 2): 4, (0, 0, 0): c0})
        with pytest.raises(GcdDegreeTwo):
            atkin_b_star(11, f, a_star, curve13, fake)


class TestAtkinStep:
    def test_both_branches(self, curve13, ua11):
        res = atkin_step(curve13, 11, ua11)
        assert [(r.f, r.sigma, r.e4t, r.a_star, r.b_star) for r in res] == [
            (65, 75, 532, 395, 460),
            (333, 681, 430, 581, 584),
        ]
        assert all(r.error is None for r in res)

    def test_result_record(self):
        r = AtkinStepResult(11, 65, 75, 532, 395, 460)
        assert r.error is None
        assert repr(r) == ("AtkinStepResult(ell=11, f=65, sigma=75, e4t=532, "
                           "a_star=395, b_star=460, error=None)")
        with pytest.raises(TypeError):
            AtkinStepResult(11, 65, 75, 532, 395)
        with pytest.raises(AttributeError):
            r.error = "changed"

    def test_determinism(self, curve13, ua11):
        assert atkin_step(curve13, 11, ua11) == \
            atkin_step(curve13, 11, ua11)

    def test_level_gate(self, curve13, ua11):
        with pytest.raises(ValueError, match="11 mod 12"):
            atkin_step(curve13, 13, ua11)


class TestPolynomialChecks:
    """A step refuses a polynomial of another kind or level."""

    @pytest.mark.parametrize("slot, bad, message", [
        ("u", "v5", "expected the U_5 polynomial, got V_5"),
        ("u", "u13", "expected the U_5 polynomial, got U_13"),
        ("v", "w5", "expected the V_5 polynomial, got W_5"),
        ("w", "v5", "expected the W_5 polynomial, got V_5"),
        ("phi", "phi7", "expected the Phi_5 polynomial, got Phi_7"),
    ], ids=["u-V5", "u-U13", "v-W5", "w-V5", "phi-Phi7"])
    def test_elkies_step(self, request, curve13, slot, bad, message):
        polys = {"u": request.getfixturevalue("u5"),
                 slot: request.getfixturevalue(bad)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            elkies_step(curve13, 5, **polys)

    def test_elkies_step_checks_what_a_loader_returns(self, curve13, u5,
                                                       w5):
        with pytest.raises(ValueError, match="^expected the V_5 polynomial, "
                                             "got W_5$"):
            elkies_step(curve13, 5, u5, v=lambda: w5)

    def test_atkin_step(self, curve13, u11):
        with pytest.raises(ValueError, match="^expected the Ua_11 "
                                             "polynomial, got U_11$"):
            atkin_step(curve13, 11, u11)

    def test_atkin_b_star(self, curve13, u11):
        with pytest.raises(ValueError, match="^expected the Ua_11 "
                                             "polynomial, got U_11$"):
            atkin_b_star(11, 65, 395, curve13, u11)


# One line per call: "E" (elkies_step with V, W and Phi) or "A"
# (atkin_step), then p, A, B, ell and the repr of the result list, recorded
# when the results were frozen dataclasses.
_RECORDED = (Path(__file__).parent / "data" / "step_reprs.txt") \
    .read_text().splitlines()


def _recording_id(line: str) -> str:
    step, p, a, b, ell = line.split()[:5]
    return f"{step}{ell}-{int(p).bit_length()}bit-{a[:8]}-{b[:8]}"


@pytest.mark.parametrize("line", _RECORDED, ids=map(_recording_id, _RECORDED))
def test_step_repr_matches_recording(request, line):
    step, p, a, b, ell, want = line.split(" ", 5)
    curve = CurveParams(PrimeField(int(p)), int(a), int(b))
    if step == "A":
        res = atkin_step(curve, 11, request.getfixturevalue("ua11"))
    else:
        u, v, w, phi = (request.getfixturevalue(f"{kind}{ell}")
                        for kind in ("u", "v", "w", "phi"))
        res = elkies_step(curve, int(ell), u, v=v, w=w, phi=phi)
    assert repr(res) == want


class TestFormulaSymbolicAgreement:
    """Random curves: the hard-coded formulas equal the derived ones at
    20 roots in each chart, over U5 and U7 together and over Ua11 and
    Ua23 each, with the root, its partial, E4 and E6 nonzero."""

    @pytest.mark.parametrize("levels, kind, point, pairs", [
        pytest.param((5, 7), "u", sigma_point,
                     ((e4_tilde, "e4t"), (e6_tilde, "e6t")), id="sigma"),
        pytest.param((11,), "ua", f_point,
                     ((atkin_sigma, "a-sigma"), (atkin_e4_tilde, "a-e4t")),
                     id="f-Ua11"),
        pytest.param((23,), "ua", f_point,
                     ((atkin_sigma, "a-sigma"), (atkin_e4_tilde, "a-e4t")),
                     id="f-Ua23"),
    ])
    def test_twenty_random_cases(self, request, fld, reports, levels, kind,
                                 point, pairs):
        polys = {ell: request.getfixturevalue(f"{kind}{ell}")
                 for ell in levels}
        rng = random.Random(23)
        checked = 0
        while checked < 20:
            ell = rng.choice(levels)
            a, b = rng.randrange(P), rng.randrange(P)
            if (4 * a**3 + 27 * b * b) % P == 0:
                continue
            curve = CurveParams(fld, a, b)
            if curve.e4 == 0 or curve.e6 == 0:
                continue
            poly = polys[ell]
            for root in roots(specialize(poly, curve)):
                if root == 0:
                    continue
                bundle = derivative_bundle(poly, curve, root)
                if bundle.du_s % P == 0:
                    continue
                at = point(ell, root, curve, bundle)
                for func, name in pairs:
                    want = func(fld, ell, root, bundle, curve.e4, curve.e6)
                    assert eval_mod(reports[name].derived, at, P) == want
                checked += 1
