"""Exact reference evaluators that the tests check the library against.

Each works from the public fields of the objects (``terms``, ``vars``,
``coeffs``/``lead``), so it shares no code path with the
compiled F_p tables, the integer series core or the symbolic ring it
checks; cm_vector has its own point arithmetic and prime search, the
reference for certify.cm_vector, and
vanishes_at_cm_vector reads a polynomial at its vector from the terms,
with only Ua's gcd from the library.
long_division divides series by the schoolbook recurrence in Fractions.
expand_delta_display is the reference inverse of the Delta display,
which the store writes and never reads.  form_basis_exponents lists the
E4^a E6^b of a weight by search, the reference for the builder's form
rows.  annihilates_at_cusp checks a
built polynomial, not the series core: it multiplies q-series, but takes
the root at the cusp from its definition and none of the builder's power
sums, matching or Newton steps.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, prod

from ccrpoly.ffield import PrimeField, UniPoly
from ccrpoly.qseries import PowerSeries, eisenstein_series
from ccrpoly.trivariate import KINDS, TrivariatePoly


def evaluate(poly, *point):
    """poly at point, exactly: each term's coefficient times every
    coordinate raised to its exponent in the term's key.  Serves
    TrivariatePoly (X, Y, Z), ClassicalModularPoly (X, j) and MultiPoly,
    over any ring whose values take a Fraction coefficient."""
    powers = {}

    def power(k, e):
        if (k, e) not in powers:
            powers[k, e] = point[k] ** e
        return powers[k, e]

    return sum((prod((power(k, e) for k, e in enumerate(key) if e), start=c)
                for key, c in poly.terms.items()), 0)


def form_basis_exponents(w: int) -> list:
    """(a, b) with 2a + 3b = w, descending in a."""
    out = []
    for a in range(w // 2, -1, -1):
        r = w - 2 * a
        if r % 3 == 0:
            out.append((a, r // 3))
    return out


def long_division(a, b) -> tuple:
    """(lead, coefficients) of the series quotient a/b by Fraction long
    division, from the public ``coeffs`` and ``lead``: with u b's
    coefficients from its first nonzero one u0 on,
    y_k = (a_k - sum over i = 1..k of u_i y_(k-i)) / u0, on the shorter
    of a's window and u's.  ZeroDivisionError when b is zero."""
    u = b.coeffs
    first = next((k for k, c in enumerate(u) if c), None)
    if first is None:
        raise ZeroDivisionError("zero divisor")
    u = u[first:]
    y = []
    for a_k in a.coeffs[:len(u)]:
        y.append((a_k - sum(u[i] * y[-i] for i in range(1, len(y) + 1)))
                 / u[0])
    return a.lead - b.lead - first, y


def fraction_mod(v, p: int) -> int:
    """The rational v as a residue mod the prime p."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


def eval_mod(expr, values: dict, p: int) -> int:
    """A MultiPoly at the integer assignment ``values`` (variable name ->
    int), reduced mod the prime p, term by term as c * prod(v^e); a
    negative e is a modular inverse, and ZeroDivisionError when v
    vanishes mod p."""
    total = 0
    for key, c in expr.terms.items():
        term = fraction_mod(c, p)
        for name, e in zip(expr.vars, key):
            if e < 0 and not values[name] % p:
                raise ZeroDivisionError(f"{name} vanishes mod {p}")
            if e:
                term = term * pow(values[name], e, p) % p
        total += term
    return total % p


def eta_squared_loop(ell: int, n: int) -> list:
    """The numerators of prod over m >= 1 of (1 - q^m)^2 (1 - q^(ell m))^2
    mod q^n, multiplied in one factor (1 - q^m)^2 = 1 - 2q^m + q^(2m) at
    a time, in place: not the pentagonal series the library expands."""
    out = [1] + [0] * (n - 1)
    for m in [*range(1, n), *range(ell, n, ell)]:
        for i in range(n - 1, m - 1, -1):
            v = out[i] - 2 * out[i - m]
            if i >= 2 * m:
                v += out[i - 2 * m]
            out[i] = v
    return out


def cusp_root(kind: str, ell: int, n: int) -> PowerSeries:
    """r_inf mod q^n, the root of X that P(X, E4, E6) has at the cusp,
    from each kind's definition: sigma1 = (ell/2)(ell E2(q^ell) - E2(q)),
    A* = -3 ell^4 E4(q^ell), B* = -2 ell^6 E6(q^ell), and -ell f with
    f = (eta(tau) eta(ell tau))^2."""
    m = n // ell + 1

    def at_ell(series):
        return series.substitute_q_power(ell, n)

    if kind == "U":
        return (at_ell(eisenstein_series(2, m)) * ell
                - eisenstein_series(2, n)) * Fraction(ell, 2)
    if kind == "V":
        return at_ell(eisenstein_series(4, m)) * (-3 * ell ** 4)
    if kind == "W":
        return at_ell(eisenstein_series(6, m)) * (-2 * ell ** 6)
    return PowerSeries(eta_squared_loop(ell, n), lead=(ell + 1) // 12) \
        * (-ell)


def annihilates_at_cusp(poly) -> bool:
    """P(r_inf(q), E4(q), E6(q)) = O(q^n), exactly, which proves P's
    terms right: the value is a form of weight k = 2 w (ell + 1) on
    Gamma0(ell), whose index in SL2(Z) is ell + 1, so by Sturm's bound it
    is zero once its coefficients below q^n vanish, with
    n = floor(k (ell + 1)/12) + 1."""
    ell = poly.ell
    k = 2 * KINDS[poly.kind].x_weight * (ell + 1)
    n = k * (ell + 1) // 12 + 1
    value = evaluate(poly, cusp_root(poly.kind, ell, n),
                     eisenstein_series(4, n), eisenstein_series(6, n))
    return zero_through(value, n)


def expand_delta_display(kind: str, ell: int, terms: dict) -> TrivariatePoly:
    """The inverse of trivariate.delta_display_terms, which the store
    writes and never reads: (i, a, b, m) -> coeff of X^i E4^a E6^b
    Delta^m back in the E4E6 basis, through 1728^m Delta^m = sum over j
    of C(m, j) E4^(3(m-j)) (-E6^2)^j."""
    acc: dict = {}
    for (i, a, b, m), c in terms.items():
        for j in range(m + 1):
            key = (i, a + 3 * (m - j), b + 2 * j)
            acc[key] = acc.get(key, 0) + Fraction(
                (-1) ** j * comb(m, j) * c, 1728 ** m)
    return TrivariatePoly(kind, ell, acc)


def ref_qdiff(a):
    """q d/dq: the coefficient of q**n picks up n.  Takes and returns any
    series type built as cls(coeffs, lead)."""
    return type(a)([c * (a.lead + k) for k, c in enumerate(a.coeffs)],
                   a.lead)


def zero_through(s, n: int) -> bool:
    """Every coefficient of s below x**n vanishes; PrecisionError when the
    window stops short of x**n."""
    return not any(s.coefficient(k) for k in range(s.lead, n))


@lru_cache(maxsize=None)
def _quadratic_characters(p: int) -> tuple:
    """chi(v) for v = 0..p-1: 0 at zero, 1 on the squares, -1 elsewhere."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, (p + 1) // 2):
        chi[y * y % p] = 1
    return tuple(chi)


def frobenius_trace(p: int, a: int, b: int) -> int:
    """t = p + 1 - #E for E: y^2 = x^3 + ax + b over F_p, from the naive
    count #E = p + 1 + sum over x of chi(x^3 + ax + b)."""
    chi = _quadratic_characters(p)
    return -sum(chi[(x * x * x + a * x + b) % p] for x in range(p))


# j-invariants of the orders of discriminant -7, -8 and -11
_CM_J = {-7: -3375, -8: 8000, -11: -32768}
# abscissas tried for the kernel's generator: where the ell-part of E(F_P)
# is cyclic, each one gives a point that (P+1)/ell does not kill with
# chance about (1 - 1/ell)/2 >= 1/4, so all 120 fail with chance under
# 2^-49
_ABSCISSAS = 120
# curves with j = 0 and j = 1728, where k = j/(1728 - j) is singular
_CM_AB = {-3: (0, 1), -4: (1, 0)}


def _ec_add(pt, qt, a: int, p: int):
    """The sum of two affine points on y^2 = x^3 + ax + b over F_p, None
    standing for the point at infinity."""
    if pt is None:
        return qt
    if qt is None:
        return pt
    (x1, y1), (x2, y2) = pt, qt
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, pt, a: int, p: int):
    """n * pt by double-and-add."""
    out = None
    while n:
        if n & 1:
            out = _ec_add(out, pt, a, p)
        pt = _ec_add(pt, pt, a, p)
        n >>= 1
    return out


@lru_cache(maxsize=None)
def cm_vector(disc: int, ell: int) -> tuple:
    """(P, A, B, sigma, A*, B*): a curve E: y^2 = x^3 + Ax + B over F_P
    with CM by the order of discriminant disc, and the ell-isogeny with
    a rational kernel worked out by Velu's formulas.

    P is the first prime above 2^30 with P = -1 (mod 4 ell) and
    (disc/P) = -1.  disc is then inert, so E, taken as y^2 = x^3 + 3kx +
    2k with k = j/(1728 - j), is supersingular and #E = P + 1; as
    P = 3 (mod 4), a square root is a (P+1)/4 power.  For disc -3
    (y^2 = x^3 + 1, j = 0) and -4 (y^2 = x^3 + x, j = 1728), P is the
    first prime above 2^30 with P = -1 (mod 12 ell), which makes both
    inert.  R = ((P+1)/ell) Q for the first point Q, by abscissa, where
    that is not infinity; ValueError when none of the first _ABSCISSAS
    abscissas gives one, as at disc -8 and ell = 2, where E(F_P) holds
    all of E[2] and (P+1)/2 kills every point.  Over R, 2R, ..., dR with
    d = ell // 2, sigma is the sum of the x_Q, and A* = A - 5v,
    B* = B - 7w with v the sum of 6x_Q^2 + 2A and w the sum of
    4y_Q^2 + x_Q(6x_Q^2 + 2A); at ell = 2 the one point (x0, 0) has
    order 2 and gives sigma = x0, v = 3x0^2 + A and w = x0 v.
    """
    m = (12 if disc in _CM_AB else 4) * ell
    p = (2 ** 30 // m + 1) * m - 1
    while not (all(p % q for q in range(3, isqrt(p) + 1, 2))
               and pow(disc, (p - 1) // 2, p) == p - 1):
        p += m
    if disc in _CM_AB:
        a, b = _CM_AB[disc]
    else:
        j = _CM_J[disc]
        k = j * pow(1728 - j, -1, p) % p
        a, b = 3 * k % p, 2 * k % p
    for x in range(_ABSCISSAS):
        rhs = (x ** 3 + a * x + b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p != rhs:
            continue
        r = _ec_mul((p + 1) // ell, (x, y), a, p)
        if r is not None:
            break
    else:
        raise ValueError(f"(P+1)/{ell} kills the first {_ABSCISSAS} "
                         f"abscissas at disc {disc}")
    assert _ec_mul(ell, r, a, p) is None
    sigma = v = w = 0
    q = r
    for _ in range(ell // 2):
        xq, yq = q
        vq = 6 * xq * xq + 2 * a if yq else 3 * xq * xq + a
        sigma, v, w = sigma + xq, v + vq, w + 4 * yq * yq + xq * vq
        q = _ec_add(q, r, a, p)
    return p, a, b, sigma % p, (a - 5 * v) % p, (b - 7 * w) % p


def vanishes_at_cm_vector(poly, disc: int) -> bool:
    """Whether the U, V, W or Ua polynomial poly has the root of
    cm_vector(disc, ell) at that curve: U at sigma, V at A* and W at B*.
    Ua's root f is known only through f^12 = c, with
    c = -Delta (B*^2 + 4A*^3/27)/6912 and 1728 Delta = E4^3 - E6^2 (the
    relation atkin_b_star solves for B*), so Ua(X) must share a root with
    X^12 - c.  poly is read from its terms at E4 = -A/3, E6 = -B/2; only
    the gcd is the library's."""
    p, a, b, *root = cm_vector(disc, poly.ell)
    e4, e6 = fraction_mod(Fraction(-a, 3), p), fraction_mod(Fraction(-b, 2), p)
    coeffs = [0] * (poly.ell + 2)
    for (i, ea, eb), c in poly.terms.items():
        coeffs[i] += fraction_mod(c, p) * pow(e4, ea, p) * pow(e6, eb, p)
    if poly.kind != "Ua":
        x = root["UVW".index(poly.kind)]
        return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
    _, a_star, b_star = root
    delta = fraction_mod(Fraction(e4 ** 3 - e6 ** 2, 1728), p)
    c = fraction_mod(Fraction(-delta * (b_star ** 2 * 27 + 4 * a_star ** 3),
                              27 * 6912), p)
    fld = PrimeField(p)
    x12 = UniPoly(fld, [-c] + [0] * 11 + [1])
    return UniPoly(fld, coeffs).gcd(x12).degree > 0
