"""Recovery of the isogenous curve from roots of the modular polynomials.

Two charts.  The sigma chart takes a root sigma of the specialized U
polynomial and produces E4(q^ell), E6(q^ell) from the first and second
partials at that root; scaling by -3*ell^4 and -2*ell^6 turns these
into the isogenous curve coefficients (A*, B*).  The f chart covers the
eta-variant polynomial for ell = 11 mod 12, where sigma and E4(q^ell)
come from partials at a root f, and B* is cut out by a two-polynomial
gcd.  Each step hands its chart's work to _walk, the one loop over the
roots, which ends every root in a result or a diagnostic.

The recovery formulas live in formulas.py, shared verbatim with the
symbolic verifier, each as a (num, den) pair; this module evaluates them
on field elements and checks every divisor through _nonzero, which raises
the chart's typed error.  Every division here, the power sums and the B*
constraints among them, goes through _quotient, one inversion each.
"""

from collections import namedtuple

from . import formulas
from .errors import (DegenerateDerivative, DegeneratePoint, GcdDegreeTwo,
                     SingularCurve, VerificationError)
from .ffield import (CurveParams, UniPoly, check_level, collapse,
                     derivative_bundle, fp_table, roots, specialize)
from .trivariate import check_kind


ValidationFlags = namedtuple("ValidationFlags", "v_root w_root phi_match")
ValidationFlags.__doc__ = """Cross-checks of one isogeny result; None means
the check was not run because its polynomial was not supplied."""

IsogenyStepResult = namedtuple("IsogenyStepResult", "ell sigma e4t e6t "
                               "a_star b_star sigma0 sigma2 sigma3 validated")
IsogenyStepResult.__doc__ = "An Elkies root worked out to the isogenous curve."

AtkinStepResult = namedtuple("AtkinStepResult", "ell f sigma e4t a_star "
                             "b_star error", defaults=(None,))
AtkinStepResult.__doc__ = """One root of the eta-variant polynomial worked
out as far as the two-polynomial gcd allows; b_star is None and error is
set when B* is out of reach."""


def _check_level(field, ell: int):
    check_level(ell)
    if field.p == ell:
        raise ValueError("p equals the level ell")


def _check_poly(P, kind: str, ell: int):
    if (P.kind, P.ell) != (kind, ell):
        raise ValueError(f"expected the {kind}_{ell} polynomial, "
                         f"got {P.kind}_{P.ell}")


# the zero guards: error class and message when the input vanishes mod p
_DS = DegenerateDerivative, "ds = 0 at sigma root"
_F = DegeneratePoint, "f = 0"
_DF = DegenerateDerivative, "df = 0 at f root"


def _nonzero(value: int, p: int, error, message: str) -> int:
    """value mod p; error(message) when that is zero."""
    value %= p
    if value == 0:
        raise error(message)
    return value


def _quotient(field, num: int, den: int) -> int:
    """num / den mod p, for a den the guards have shown nonzero."""
    p = field.p
    return num % p * field.inv(den % p) % p


def _f_chart(field, ell: int, f_root: int, bundle) -> tuple:
    """f and df at a root f of the eta variant, checked in that order."""
    _check_level(field, ell)
    p = field.p
    return _nonzero(f_root, p, *_F), _nonzero(bundle.du_s, p, *_DF)


def e4_tilde(field, ell: int, sigma: int, bundle, e4: int, e6: int) -> int:
    """E4(q^ell) from the first partials at a sigma root."""
    _check_level(field, ell)
    ds = _nonzero(bundle.du_s, field.p, *_DS)
    return _quotient(field, *formulas.e4_tilde_parts(
        ell, sigma, e4, e6, ds, bundle.du_4, bundle.du_6))


def e6_tilde(field, ell: int, sigma: int, bundle, e4: int, e6: int) -> int:
    """E6(q^ell) from the full second-order bundle at a sigma root."""
    _check_level(field, ell)
    ds = _nonzero(bundle.du_s, field.p, *_DS)
    return _quotient(field, *formulas.e6_tilde_parts(
        ell, sigma, e4, e6, ds, bundle.du_4, bundle.du_6, bundle.du_s4,
        bundle.du_s6, bundle.du_46, bundle.du_ss, bundle.du_44,
        bundle.du_66))


def _check_sums_prime(p: int):
    if p in (5, 7):
        raise ValueError("p must exceed 7: p in {5, 7} breaks the power-sum "
                         "denominators")


def elkies_power_sums(field, a: int, b: int, a_star: int, b_star: int,
                      sigma: int, ell: int):
    """(sigma0, sigma2, sigma3) of the kernel abscissas.

    sigma0 = (ell-1)/2; the others invert
    A - A* = 5(6 sigma2 + 2 A sigma0) and
    B - B* = 7(10 sigma3 + 6 A sigma1 + 4 B sigma0).
    """
    _check_sums_prime(field.p)
    s0 = (ell - 1) // 2 % field.p
    s2 = _quotient(field, a - a_star - 10 * a * s0, 30)
    s3 = _quotient(field, b - b_star - 42 * a * sigma - 28 * b * s0, 70)
    return s0, s2, s3


def _walk(curve: CurveParams, P, found, diagnostics, work) -> list:
    """Each root in found, the ascending roots of P at the curve, as the
    chart's work(root, bundle, note) returns it.  A zero guard skips its
    root with a (root, message) diagnostic; note appends one, and only
    when a list is supplied."""
    def note(root, message):
        if diagnostics is not None:
            diagnostics.append((root, str(message)))

    out = []
    for root in found:
        bundle = derivative_bundle(P, curve, root)
        try:
            out.append(work(root, bundle, note))
        except (DegenerateDerivative, DegeneratePoint) as exc:
            note(root, exc)
    return out


def _cross_check(P, kind: str, ell: int, curve: CurveParams):
    """A cross-check polynomial specialized at the curve; P is the
    polynomial or a zero-argument function that returns it."""
    if callable(P):
        P = P()
        _check_poly(P, kind, ell)
    return specialize(P, curve)


def elkies_step(curve: CurveParams, ell: int, u, v=None, w=None, phi=None,
                diagnostics=None) -> list:
    """Work every root of the specialized U polynomial into an
    IsogenyStepResult.

    An empty list signals an Atkin prime.  Roots where ds vanishes are
    skipped; a (root, message) pair goes to the diagnostics list when
    one is supplied.  v, w, phi are optional cross-check polynomials;
    their flags stay None when absent, and they are specialized only
    when U has a root.  Each may be a zero-argument function that
    returns the polynomial, called and checked only then.  p in {5, 7},
    where the power sums divide by zero, is refused first.
    """
    field = curve.field
    _check_level(field, ell)
    _check_sums_prime(field.p)
    cross = ((v, "V"), (w, "W"), (phi, "Phi"))
    for P, kind in ((u, "U"),) + cross:
        if P is not None and not callable(P):
            _check_poly(P, kind, ell)
    p = field.p
    e4, e6 = curve.e4, curve.e6
    sigmas = roots(specialize(u, curve))
    v_at, w_at, phi_at = (_cross_check(P, kind, ell, curve)
                          if sigmas and P is not None else None
                          for P, kind in cross)

    def work(sigma, bundle, note):
        e4t = e4_tilde(field, ell, sigma, bundle, e4, e6)
        e6t = e6_tilde(field, ell, sigma, bundle, e4, e6)
        a_star = -3 * pow(ell, 4, p) * e4t % p
        b_star = -2 * pow(ell, 6, p) * e6t % p
        v_ok = v_at.evaluate(a_star) == 0 if v_at is not None else None
        w_ok = w_at.evaluate(b_star) == 0 if w_at is not None else None
        phi_ok = None
        if phi_at is not None:
            # Phi(j, j*) read as Phi(j*, j): Phi is symmetric
            try:
                j_star = CurveParams(field, a_star, b_star).j_invariant()
                phi_ok = phi_at.evaluate(j_star) == 0
            except SingularCurve:
                phi_ok = False
                note(sigma, "isogenous curve has zero discriminant")
        s0, s2, s3 = elkies_power_sums(field, curve.A, curve.B,
                                       a_star, b_star, sigma, ell)
        return IsogenyStepResult(
            ell=ell, sigma=sigma, e4t=e4t, e6t=e6t,
            a_star=a_star, b_star=b_star,
            sigma0=s0, sigma2=s2, sigma3=s3,
            validated=ValidationFlags(v_ok, w_ok, phi_ok))

    return _walk(curve, u, sigmas, diagnostics, work)


def atkin_sigma(field, ell: int, f_root: int, bundle, e4: int, e6: int) -> int:
    """sigma from the first partials at a root f of the eta variant."""
    f, df = _f_chart(field, ell, f_root, bundle)
    return _quotient(field, *formulas.atkin_sigma_parts(
        ell, e4, e6, bundle.du_4, bundle.du_6, f, df))


def atkin_e4_tilde(field, ell: int, f_root: int, bundle,
                   e4: int, e6: int) -> int:
    """E4(q^ell) from the full second-order bundle at a root f."""
    f, df = _f_chart(field, ell, f_root, bundle)
    return _quotient(field, *formulas.atkin_e4_tilde_parts(
        ell, e4, e6, bundle.du_4, bundle.du_6, bundle.du_46, f, df,
        bundle.du_s4, bundle.du_s6, bundle.du_ss, bundle.du_44,
        bundle.du_66))


def atkin_b_star(ell: int, f_root: int, a_star: int, curve: CurveParams,
                 ua) -> int:
    """B* as the degree-1 gcd root of the two constraints on B*.

    P1 encodes B*^2 + 6912*Delta_tilde + 4A*^3/27 = 0 with
    Delta_tilde = f^12/Delta scaled to the root chart, and P2 is the
    eta-variant polynomial at X = -ell*f with the A slot filled by A*.
    A degree-2 gcd means B* lives in a quadratic extension; that case
    is reported, never guessed around.  No common root means A* or the
    polynomial is wrong, a VerificationError.
    """
    field = curve.field
    _check_level(field, ell)
    _check_poly(ua, "Ua", ell)
    p = field.p
    f = _nonzero(f_root, p, *_F)
    e4, e6 = curve.e4, curve.e6
    # 1728*Delta = E4^3 - E6^2, so 27*1728*Delta clears both denominators
    delta_1728 = pow(e4, 3, p) - e6 * e6
    c0 = _quotient(field, 6912 * 1728 * 27 * pow(f, 12, p)
                   + 4 * pow(a_star, 3, p) * delta_1728, 27 * delta_1728)
    p1 = UniPoly(field, [c0, 0, 1])
    p2 = _ua_b_slot_poly(field, ua, (-ell * f) % p, a_star)
    g = p1.gcd(p2)
    if g.degree == 2:
        raise GcdDegreeTwo("B* is not rational from this root")
    if g.degree != 1:
        raise VerificationError("constraint polynomials share no root; "
                                "A* is inconsistent with the f root")
    return (p - g.coeffs[0]) % p


def _ua_b_slot_poly(field, ua, x_val: int, a_val: int) -> UniPoly:
    """The eta-variant polynomial as a univariate in its B slot.

    The E4E6 table collapses onto E6 at X = x and E4 = -A/3, so the
    coefficient of B^b is the sum of c x^i (-A/3)^a times (-1/2)^b from
    E6 = -B/2.
    """
    _, (dx, dy, dz) = fp_table(ua, field)
    out = collapse(ua, field, 2, field.powers(x_val, dx),
                   field.powers(_quotient(field, -a_val, 3), dy))
    halves = field.powers(_quotient(field, -1, 2), dz)
    return UniPoly(field, [c * h for c, h in zip(out, halves)])


def atkin_step(curve: CurveParams, ell: int, ua, diagnostics=None) -> list:
    """Work every root of the specialized eta variant through sigma,
    E4(q^ell), A* and the B* gcd."""
    field = curve.field
    _check_level(field, ell)
    check_kind("Ua", ell)
    _check_poly(ua, "Ua", ell)
    p = field.p
    e4, e6 = curve.e4, curve.e6

    def work(f, bundle, note):
        sigma = atkin_sigma(field, ell, f, bundle, e4, e6)
        e4t = atkin_e4_tilde(field, ell, f, bundle, e4, e6)
        a_star = -3 * pow(ell, 4, p) * e4t % p
        try:
            b_star = atkin_b_star(ell, f, a_star, curve, ua)
            err = None
        except GcdDegreeTwo as exc:
            b_star, err = None, str(exc)
        return AtkinStepResult(ell=ell, f=f, sigma=sigma, e4t=e4t,
                               a_star=a_star, b_star=b_star, error=err)

    return _walk(curve, ua, roots(specialize(ua, curve)), diagnostics, work)
