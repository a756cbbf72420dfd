"""Isogenous-curve recovery: sigma chart, f chart, power sums, and the
symbolic cross-checks."""

import random
from pathlib import Path

import pytest

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
from oracles import eval_mod

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
    vals = dict(u=0, du_s=1, du_4=1, du_6=1, du_s4=1, du_s6=1, du_46=1)
    vals.update(over)
    return DerivativeBundle(**vals)


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

    def test_degenerate_point(self, fld, curve13):
        with pytest.raises(DegeneratePoint):
            e6_tilde(fld, 5, 0, fake_bundle(), curve13.e4, curve13.e6)
        with pytest.raises(DegeneratePoint):
            e6_tilde(fld, 5, 7, fake_bundle(), 0, curve13.e6)
        with pytest.raises(DegeneratePoint):
            e6_tilde(fld, 5, 7, fake_bundle(), curve13.e4, 0)
        with pytest.raises(DegenerateDerivative):
            e6_tilde(fld, 5, 7, fake_bundle(du_s=0), curve13.e4, curve13.e6)


class TestElkiesStep:
    def test_five_isogeny_worked_example(self, curve13, u5, v5, w5, phi5):
        res = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5, seed=1)
        assert [r.sigma for r in res] == [584, 664]
        first = res[0]
        assert (first.sigma, first.a_star, first.b_star) == (584, 441, 997)
        assert (first.e4t, first.e6t) == (497, 939)
        for r in res:
            assert r.validated.v_root and r.validated.w_root
            assert r.validated.phi_match

    def test_scaling_invariant(self, curve13, u5):
        for r in elkies_step(curve13, 5, u5, seed=1):
            assert r.a_star == -3 * pow(5, 4, P) * r.e4t % P
            assert r.b_star == -2 * pow(5, 6, P) * r.e6t % P

    def test_power_sum_fields(self, curve13, u5):
        r = elkies_step(curve13, 5, u5, seed=1)[0]
        assert r.sigma0 == 2
        assert r.sigma2 == ((1 - r.a_star) * pow(5, P - 2, P)
                            - 2 * 1 * r.sigma0) * pow(6, P - 2, P) % P

    def test_flags_none_without_polys(self, curve13, u5):
        r = elkies_step(curve13, 5, u5, seed=1)[0]
        assert r.validated == (None, None, None) or (
            r.validated.v_root is None
            and r.validated.w_root is None
            and r.validated.phi_match is None)

    def test_atkin_prime_empty(self, fld, u5):
        assert elkies_step(CurveParams(fld, 1, 2), 5, u5, seed=1) == []

    def test_determinism(self, curve13, u5, v5, w5, phi5):
        a = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5, seed=9)
        b = elkies_step(curve13, 5, u5, v=v5, w=w5, phi=phi5, seed=9)
        assert a == b

    def test_seven_isogeny(self, curve13, u7, v7, w7, phi7):
        res = elkies_step(curve13, 7, u7, v=v7, w=w7, phi=phi7, seed=1)
        assert [r.sigma for r in res] == [50, 909]
        for r in res:
            assert r.validated.v_root and r.validated.w_root
            assert r.validated.phi_match

    def test_degenerate_root_skipped_with_diagnostic(self, fld, u7):
        # j = 0 curve whose only root is sigma = 0: both trip the
        # degenerate-point guards, so the root is skipped, not fatal
        c = CurveParams(fld, 0, 1)
        sink = []
        assert elkies_step(c, 7, u7, seed=1, diagnostics=sink) == []
        assert sink and sink[0][0] == 0

    def test_level_gates(self, curve13, u5):
        with pytest.raises(ValueError):
            elkies_step(curve13, 4, u5, seed=1)
        f5 = PrimeField(5)
        with pytest.raises(ValueError):
            elkies_step(CurveParams(f5, 1, 3), 5, u5, seed=1)


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
            atkin_e4_tilde(fld, 11, 65, fake_bundle(), 0, curve13.e6)
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
        fake = TrivariatePoly("Ua", 11, "AB", {(0, 0, 2): 1, (0, 0, 0): c0})
        with pytest.raises(GcdDegreeTwo):
            atkin_b_star(11, f, a_star, curve13, fake)


class TestAtkinStep:
    def test_both_branches(self, curve13, ua11):
        res = atkin_step(curve13, 11, ua11, seed=1)
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
        assert atkin_step(curve13, 11, ua11, seed=1) == \
            atkin_step(curve13, 11, ua11, seed=2)

    def test_level_gate(self, curve13, ua11):
        with pytest.raises(ValueError, match="11 mod 12"):
            atkin_step(curve13, 13, ua11, seed=1)


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
        res = atkin_step(curve, 11, request.getfixturevalue("ua11"), seed=0)
    else:
        u, v, w, phi = (request.getfixturevalue(f"{kind}{ell}")
                        for kind in ("u", "v", "w", "phi"))
        res = elkies_step(curve, int(ell), u, v=v, w=w, phi=phi, seed=0)
    assert repr(res) == want


class TestFormulaSymbolicAgreement:
    """Random Elkies cases: hard-coded formulas equal the derived ones."""

    def test_twenty_random_cases(self, fld, u5, u7, reports):
        rng = random.Random(23)
        checked = 0
        while checked < 20:
            ell = rng.choice([5, 7])
            a, b = rng.randrange(P), rng.randrange(P)
            if (4 * a**3 + 27 * b * b) % P == 0:
                continue
            curve = CurveParams(fld, a, b)
            if curve.e4 == 0 or curve.e6 == 0:
                continue
            poly = {5: u5, 7: u7}[ell]
            for sigma in roots(specialize(poly, curve), seed=1):
                if sigma == 0:
                    continue
                bundle = derivative_bundle(poly, curve, sigma)
                if bundle.du_s % P == 0:
                    continue
                point = sigma_point(ell, sigma, curve, bundle)
                e4t = e4_tilde(fld, ell, sigma, bundle, curve.e4, curve.e6)
                e6t = e6_tilde(fld, ell, sigma, bundle, curve.e4, curve.e6)
                assert eval_mod(reports["e4t"].derived, point, P) == e4t
                assert eval_mod(reports["e6t"].derived, point, P) == e6t
                checked += 1
