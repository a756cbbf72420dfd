"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and enforces its runtime budget.  Frozen residues and coefficient
tables below were fixed from worked examples and independent oracle
runs; the tests must reproduce them exactly.
"""

import random
import time
from fractions import Fraction

from ccrpoly.builder import build, build_classical_phi
from ccrpoly.ffield import (CurveParams, PrimeField, derivative_bundle,
                            roots, specialize)
from ccrpoly.isogeny import atkin_step, e4_tilde, elkies_step
from ccrpoly.qseries import (delta_series, eisenstein_series,
                             eta_squared_product, fn_series, j_series,
                             sigma1_series)
from ccrpoly.symbolic import (MultiPoly, derive_atkin_e4t,
                              derive_atkin_sigma, derive_e4t, derive_e6t)
from ccrpoly.trivariate import delta_display_terms
from oracles import eval_mod, evaluate, ref_qdiff, zero_through

U5_AB = {(6, 0, 0): 1, (4, 1, 0): 20, (3, 0, 1): 160,
         (2, 2, 0): -80, (1, 1, 1): -128, (0, 0, 2): -80}

UA11_DELTA = {(12, 0, 0, 0): 1, (6, 0, 0, 1): -990, (4, 1, 0, 1): 440,
              (3, 0, 1, 1): -165, (2, 2, 0, 1): 22, (1, 1, 1, 1): -1,
              (0, 0, 0, 2): -11}

# weight of the X slot in the (X, 2, 3) grading, per polynomial family
WEIGHTS = {"U": 1, "V": 2, "W": 3, "Ua": 1}


def report(num, ok, label, elapsed=None):
    tail = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {label}{tail}")
    return ok


def test_criterion_1_printed_polynomials():
    t0 = time.perf_counter()
    u5 = build("U", 5)
    t_u = time.perf_counter() - t0
    u5_ok = u5.to_basis("AB") == {k: Fraction(v) for k, v in U5_AB.items()}
    t0 = time.perf_counter()
    ua11 = build("Ua", 11)
    t_a = time.perf_counter() - t0
    ua_ok = delta_display_terms(ua11) == {k: Fraction(v)
                                          for k, v in UA11_DELTA.items()}
    ok = u5_ok and ua_ok and t_u < 10 and t_a < 10
    report(1, ok, "printed U5 (AB basis) and Ua11 (Delta display) "
           "reproduced exactly", t_u + t_a)
    assert u5_ok, u5.to_basis("AB")
    assert ua_ok, delta_display_terms(ua11)
    assert t_u < 10 and t_a < 10


def test_criterion_2_elkies_worked_example(u5, v5, w5):
    field = PrimeField(1009)
    curve = CurveParams(field, 1, 3)
    t0 = time.perf_counter()
    sigma_roots = roots(specialize(u5, curve))
    bundle = derivative_bundle(u5, curve, 584)
    firsts = (bundle.du_s, bundle.du_4, bundle.du_6)
    e4t = e4_tilde(field, 5, 584, bundle, curve.e4, curve.e6)
    res = {r.sigma: r for r in elkies_step(curve, 5, u5, v=v5, w=w5)}
    elapsed = time.perf_counter() - t0
    ok = (584 in sigma_roots and firsts == (905, 779, 140) and e4t == 497
          and res[584].a_star == 441 and res[584].b_star == 997
          and elapsed < 1)
    report(2, ok, "F_1009 A=1 B=3 ell=5: sigma=584, partials (905,779,140), "
           "E4t=497, Astar=441, Bstar=997", elapsed)
    assert 584 in sigma_roots
    assert firsts == (905, 779, 140)
    assert e4t == 497
    assert res[584].a_star == 441 and res[584].b_star == 997
    assert elapsed < 1


def test_criterion_3_atkin_worked_example(ua11):
    field = PrimeField(1009)
    curve = CurveParams(field, 1, 3)
    t0 = time.perf_counter()
    f_roots = roots(specialize(ua11, curve))
    res = {r.f: r for r in atkin_step(curve, 11, ua11)}
    elapsed = time.perf_counter() - t0
    r65 = res.get(65)
    ok = (f_roots == [65, 333] and r65 is not None and r65.sigma == 75
          and r65.e4t == 532 and r65.error is None and r65.b_star == 460
          and r65.a_star == 395
          and r65.a_star == -3 * 11 ** 4 * r65.e4t % 1009
          and elapsed < 1)
    report(3, ok, "F_1009 ell=11: roots {65,333}; f=65 gives sigma=75, "
           "E4t=532, gcd degree 1, Bstar=460, Astar=395", elapsed)
    assert f_roots == [65, 333]
    assert (r65.sigma, r65.e4t, r65.b_star, r65.a_star) == (75, 532, 460, 395)
    assert r65.error is None
    assert elapsed < 1


def test_criterion_4_symbolic_suite():
    t0 = time.perf_counter()
    names = []
    for fn in (derive_e4t, derive_e6t, derive_atkin_sigma, derive_atkin_e4t):
        rep = fn()               # raises VerificationError on any failure
        assert rep.assertions
        names.append(rep.name)
    elapsed = time.perf_counter() - t0
    ok = len(names) == 4 and elapsed < 300
    report(4, ok, f"symbolic derivations all verified: {', '.join(names)}",
           elapsed)
    assert ok


def test_criterion_5_series_identities():
    t0 = time.perf_counter()
    prec = 50
    e2, e4, e6 = (eisenstein_series(w, prec) for w in (2, 4, 6))
    delta = delta_series(prec)
    j = j_series(prec)
    checks = {
        "3 qdiff(E4) = E4 E2 - E6": ref_qdiff(e4) * 3 - (e4 * e2 - e6),
        "2 qdiff(E6) = E6 E2 - E4^2": ref_qdiff(e6) * 2 - (e6 * e2 - e4 * e4),
        "12 qdiff(E2) = E2^2 - E4": ref_qdiff(e2) * 12 - (e2 * e2 - e4),
        "1728 Delta = E4^3 - E6^2": delta * 1728 - (e4 * e4 * e4 - e6 * e6),
        "j Delta = E4^3": j * delta - e4 * e4 * e4,
        "(j - 1728) Delta = E6^2": j * delta - delta * 1728 - e6 * e6,
        "qdiff(j) Delta = -E4^2 E6": ref_qdiff(j) * delta + e4 * e4 * e6,
        "qdiff(Delta) = E2 Delta": ref_qdiff(delta) - e2 * delta,
    }
    for ell in (5, 11):
        direct = (e2.substitute_q_power(ell, prec) * ell
                  - e2) * Fraction(ell, 2)
        checks[f"sigma1 = -(ell/2) F_ell, ell={ell}"] = \
            sigma1_series(ell, prec) - direct
        checks[f"F and sigma1 expansions agree, ell={ell}"] = \
            fn_series(ell, prec) * Fraction(-ell, 2) - sigma1_series(ell, prec)
    failures = [name for name, diff in checks.items() if not diff.is_zero()]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10
    report(5, ok, f"{len(checks)} series identities at precision 50"
           + (f"; FAILED: {failures}" if failures else ""), elapsed)
    assert not failures, failures
    assert elapsed < 10


def _euler_residual(poly, weight):
    """w*X*dX + 2*E4*d4 + 3*E6*d6 - w*(ell+1)*P, and the same Euler
    operator applied to each first partial; all must vanish."""
    names = ("X", "E4", "E6")
    x, y, z = (MultiPoly.gen(names, v) for v in names)

    def multipoly(q):
        return MultiPoly(names, dict(q.terms))

    mp = multipoly(poly)
    parts = [multipoly(poly.partial(i)) for i in range(3)]
    residuals = [weight * x * parts[0] + 2 * y * parts[1] + 3 * z * parts[2]
                 - (weight * (poly.ell + 1)) * mp]
    for slot, var_weight in enumerate((weight, 2, 3)):
        d = parts[slot]
        dparts = [multipoly(poly.partial(slot).partial(i))
                  for i in range(3)]
        residuals.append(weight * x * dparts[0] + 2 * y * dparts[1]
                         + 3 * z * dparts[2]
                         - (weight * (poly.ell + 1) - var_weight) * d)
    return residuals


def _root_series(kind, ell, prec):
    if kind == "U":
        return sigma1_series(ell, prec)
    if kind == "V":
        return eisenstein_series(4, prec).substitute_q_power(ell, prec) \
            * (-3 * ell ** 4)
    if kind == "W":
        return eisenstein_series(6, prec).substitute_q_power(ell, prec) \
            * (-2 * ell ** 6)
    return eta_squared_product(ell, prec) * (-ell)


def test_criterion_6_structural_properties(u5, u7, u11, u13, v5, v7, v11,
                                           v13, w5, w7, w11, w13, ua11):
    t0 = time.perf_counter()
    polys = {("U", 5): u5, ("U", 7): u7, ("U", 11): u11, ("U", 13): u13,
             ("V", 5): v5, ("V", 7): v7, ("V", 11): v11, ("V", 13): v13,
             ("W", 5): w5, ("W", 7): w7, ("W", 11): w11, ("W", 13): w13,
             ("Ua", 11): ua11}
    failures = []
    prec = 29
    e4 = eisenstein_series(4, prec)
    e6 = eisenstein_series(6, prec)
    for (kind, ell), poly in polys.items():
        tag = f"{kind}{ell}"
        w = WEIGHTS[kind]
        if kind != "Ua" and any(c.denominator != 1
                                for c in poly.to_basis("AB").values()):
            failures.append(f"{tag} integrality")
        if any(w * i + 2 * a + 3 * b != w * (ell + 1)
               for (i, a, b) in poly.terms):
            failures.append(f"{tag} homogeneity")
        if any(not r.is_zero for r in _euler_residual(poly, w)):
            failures.append(f"{tag} Euler identities")
        if not zero_through(
                evaluate(poly, _root_series(kind, ell, prec), e4, e6), 25):
            failures.append(f"{tag} root identity")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    report(6, ok, "integrality, weighted homogeneity, Euler identities, "
           "root series for U/V/W ell in {5,7,11,13} and Ua11"
           + (f"; FAILED: {failures}" if failures else ""), elapsed)
    assert not failures, failures
    assert elapsed < 120


def _den_valuations(terms):
    v2 = v3 = 0
    for c in terms.values():
        d = c.denominator
        k = 0
        while d % 2 == 0:
            d //= 2
            k += 1
        v2 = max(v2, k)
        k = 0
        while d % 3 == 0:
            d //= 3
            k += 1
        v3 = max(v3, k)
    return v2, v3


def _scaled_integral(poly_ab, ell):
    # 12^(ell+1) * Ua(X/12): coefficient of X^i picks up 12^(ell+1-i)
    return all((Fraction(12) ** (ell + 1 - i) * c).denominator == 1
               for (i, a, b), c in poly_ab.items())


def test_criterion_7_eta_denominator_table(ua11):
    t0 = time.perf_counter()
    ab11 = ua11.to_basis("AB")
    vals11 = _den_valuations(ab11)
    ok11 = vals11 == (16, 12) and _scaled_integral(ab11, 11)
    t23 = time.perf_counter()
    ua23 = build("Ua", 23)
    build_time = time.perf_counter() - t23
    if build_time > 600:
        elapsed = time.perf_counter() - t0
        report(7, ok11, f"Ua11 AB denominators (v2,v3)={vals11} and scaled "
               f"integrality; ell=23 skipped, build took {build_time:.0f}s",
               elapsed)
        assert ok11
        return
    ab23 = ua23.to_basis("AB")
    vals23 = _den_valuations(ab23)
    ok23 = vals23 == (32, 24) and _scaled_integral(ab23, 23)
    elapsed = time.perf_counter() - t0
    ok = ok11 and ok23
    report(7, ok, f"AB-basis denominators: Ua11 (v2,v3)={vals11}, "
           f"Ua23 (v2,v3)={vals23}, 12-power rescalings integral", elapsed)
    assert vals11 == (16, 12) and vals23 == (32, 24)
    assert _scaled_integral(ab11, 11) and _scaled_integral(ab23, 23)


def _derivative_point(ell, sigma, curve, bundle):
    return {"ell": ell, "sigma": sigma, "E4": curve.e4, "E6": curve.e6,
            "ds": bundle.du_s, "d4": bundle.du_4, "d6": bundle.du_6,
            "ds4": bundle.du_s4, "ds6": bundle.du_s6, "d46": bundle.du_46}


def test_criterion_8_cross_oracle(u5, v5, w5, phi5, u7, v7, w7, phi7):
    t0 = time.perf_counter()
    field = PrimeField(1009)
    e4t_expr = derive_e4t().derived
    e6t_expr = derive_e6t().derived
    cases = {5: (u5, v5, w5, phi5), 7: (u7, v7, w7, phi7)}
    rng = random.Random(2026)
    curves = results = mismatches = 0
    flag_failures = []
    while curves < 20:
        a, b = rng.randrange(1009), rng.randrange(1, 1009)
        if (4 * a ** 3 + 27 * b ** 2) % 1009 == 0:
            continue
        curve = CurveParams(field, a, b)
        produced = False
        for ell, (u, v, w, phi) in cases.items():
            for r in elkies_step(curve, ell, u, v=v, w=w, phi=phi):
                produced = True
                results += 1
                flags = (r.validated.v_root, r.validated.w_root,
                         r.validated.phi_match)
                if flags != (True, True, True):
                    flag_failures.append((a, b, ell, r.sigma, flags))
                bundle = derivative_bundle(u, curve, r.sigma)
                pt = _derivative_point(ell, r.sigma, curve, bundle)
                if (eval_mod(e4t_expr, pt, 1009) != r.e4t
                        or eval_mod(e6t_expr, pt, 1009) != r.e6t):
                    mismatches += 1
        if produced:
            curves += 1
    elapsed = time.perf_counter() - t0
    ok = not flag_failures and not mismatches and elapsed < 120
    report(8, ok, f"{results} validated results on {curves} random Elkies "
           "curves: V/W/Phi annihilation and symbolic E4t/E6t agreement"
           + (f"; flag failures {flag_failures[:3]}" if flag_failures else "")
           + (f"; {mismatches} formula mismatches" if mismatches else ""),
           elapsed)
    assert not flag_failures, flag_failures[:5]
    assert mismatches == 0
    assert elapsed < 120


def test_criterion_9_performance_scaling(u11, u31):
    p256 = 2 ** 256 - 189
    curve31 = CurveParams(PrimeField(p256), 1, 1)
    t0 = time.perf_counter()
    res31 = elkies_step(curve31, 31, u31)
    elapsed31 = time.perf_counter() - t0
    muls31 = curve31.field.mul_count
    assert res31, "ell=31 instance must be Elkies for this curve"
    per_root = elapsed31 / len(res31)

    curve11 = CurveParams(PrimeField(p256), 1, 2)
    res11 = elkies_step(curve11, 11, u11)
    muls11 = curve11.field.mul_count
    assert res11, "ell=11 instance must be Elkies for this curve"

    ratio = muls31 / muls11
    bound = (31 / 11) ** 2 * 1.5
    ok = per_root < 1.0 and ratio < bound
    report(9, ok, f"256-bit prime: ell=31 step {per_root:.3f}s per root "
           f"({len(res31)} roots); multiplication ratio 31:11 = "
           f"{ratio:.2f} < {bound:.2f}", elapsed31)
    assert per_root < 1.0
    assert ratio < bound, (muls31, muls11)
