"""A check of every polynomial at supersingular CM vectors, independent of
the builder: point arithmetic, Velu's sums and one read of the polynomial.

For disc in {-7, -11}, j = -3375 or -32768 is the j-invariant of the
order of discriminant disc.  Over the first prime P > 2^30 with P = -1
(mod 4 ell) and (disc/P) = -1, disc is inert, so E: y^2 = x^3 + 3kx + 2k,
k = j/(1728 - j), is supersingular with #E = P + 1, and square roots are
(P+1)/4 powers.  The cubic's discriminant -108 k^2 (k + 1) is disc times
a square, so E(F_P) has one point of order 2 and is cyclic (at -8 it can
hold all of E[2]), and R = ((P+1)/ell) Q for the first Q by abscissa
where that is not infinity has order ell: Velu's sums over R, ...,
(ell//2) R give the kernel's sigma and the isogenous curve's A* and B*.

Each kind's polynomial has a root there, the value its KINDS row names:
U at sigma, V at A*, W at B*, Phi at j* = j(A*, B*) once read at E's j,
and Ua at the f with f^12 = c = -Delta (B*^2 + 4A*^3/27)/6912, the
relation atkin_b_star solves for B*, so Ua(X) and X^12 - c share a root.
check_at_cm_vectors reads the polynomial through specialize, the reader
every step uses, at a prime and a curve no step sees.
"""

from collections import namedtuple
from functools import lru_cache

from .errors import BuildError
from .ffield import CurveParams, PrimeField, UniPoly, is_probable_prime, \
    specialize
from .trivariate import KINDS

# j-invariants of the orders of discriminant -7 and -11
CM_J = {-7: -3375, -11: -32768}

# the curve E over F_P, and the values each kind's root takes there
CMVector = namedtuple("CMVector", "curve sigma a_star b_star j_star f12")


def _add(pt, qt, a: int, p: int):
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


def _mul(n: int, pt, a: int, p: int):
    """n * pt by double-and-add."""
    out = None
    while n:
        if n & 1:
            out = _add(out, pt, a, p)
        pt = _add(pt, pt, a, p)
        n >>= 1
    return out


@lru_cache(maxsize=None)
def cm_vector(disc: int, ell: int) -> CMVector:
    """The curve of disc over F_P and its ell-isogeny's values (module
    docstring), j* and f^12 worked out from A* and B*."""
    m = 4 * ell
    p = (2 ** 30 // m + 1) * m - 1
    while not (pow(disc, (p - 1) // 2, p) == p - 1 and is_probable_prime(p)):
        p += m
    j = CM_J[disc]
    k = j * pow(1728 - j, -1, p) % p
    a, b = 3 * k % p, 2 * k % p
    r, x = None, -1
    while r is None:
        x += 1
        rhs = (x ** 3 + a * x + b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            r = _mul((p + 1) // ell, (x, y), a, p)
    # one point of each pair +-Q: 2(3x^2 + a) for the pair, 3x^2 + a for
    # a point of order 2 (ell = 2), and 4y^2 for both
    sigma = v = w = 0
    q = r
    for _ in range(ell // 2):
        xq, yq = q
        vq = (3 * xq * xq + a) * (2 if yq else 1)
        sigma, v, w = sigma + xq, v + vq, w + 4 * yq * yq + xq * vq
        q = _add(q, r, a, p)
    a_star, b_star = (a - 5 * v) % p, (b - 7 * w) % p
    # -16 (4A^3 + 27B^2) is a curve's discriminant: j = 1728 4A^3 over
    # it, and at E4 = -a/3, E6 = -b/2, Delta = -(4a^3 + 27b^2)/(108*1728)
    d, d_star = 4 * a ** 3 + 27 * b * b, 4 * a_star ** 3 + 27 * b_star ** 2
    j_star = 1728 * 4 * a_star ** 3 * pow(d_star, -1, p) % p
    f12 = d * d_star * pow(108 * 1728 * 27 * 6912, -1, p) % p
    return CMVector(CurveParams(PrimeField(p), a, b), sigma % p, a_star,
                    b_star, j_star, f12)


def check_at_cm_vectors(poly, discs=tuple(CM_J)):
    """poly, once it has its kind's root at the CM vector of each disc;
    BuildError naming the first vector where it has none."""
    name, power = KINDS[poly.kind].root
    for disc in discs:
        vec = cm_vector(disc, poly.ell)
        at = specialize(poly, vec.curve)
        root = UniPoly(vec.curve.field,
                       [-getattr(vec, name)] + [0] * (power - 1) + [1])
        if not at.gcd(root).degree:
            raise BuildError(f"{poly.kind}_{poly.ell}: no root at the "
                             f"D = {disc} CM vector")
    return poly
