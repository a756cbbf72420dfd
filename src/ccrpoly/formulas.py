"""Shared transcription of the isogenous-curve coefficient formulas.

Written once against a generic commutative ring: arguments only need +, -, *
and small integer powers.  Every formula returns a (num, den) pair whose
quotient is the value, so neither consumer divides inside a formula.  The
finite-field engine evaluates these on field elements and divides mod p;
the symbolic verifier binds each parameter, by its name, to the ring
symbol of that name and divides exactly, so the two consumers cannot
drift apart.

Naming: ds, d4, d6 are the first partials of the modular polynomial in its
three slots (root, E4, E6); ds4, ds6, d46 the mixed second partials; dss,
d44, d66 the diagonal second partials; df, df4, df6, dff the analogues for
the eta-variant polynomial whose first slot carries f instead of sigma.
Both second-order formulas take the diagonals as arguments, so their only
divisors are powers of ell and of the root's partial (and f); the
finite-field engine reads the diagonals from its table, and the verifier
eliminates them.
"""


def e4_tilde_parts(ell, sigma, e4, e6, ds, d4, d6):
    """Numerator and denominator of E4(q^ell) in the sigma-root chart."""
    num = -(4 * ell * (3 * e4 ** 2 * d6 + 2 * e6 * d4)
            - ds * (ell ** 2 * e4 + 4 * sigma ** 2))
    den = ell ** 4 * ds
    return num, den


def c2_block(ell, sigma, e4, e6, ds, d4, d6, ds4, ds6, d46, dss, d44, d66):
    """Degree-two-in-ell block of the E6(q^ell) numerator."""
    return (18 * (d6 ** 2 * dss - 2 * d6 * ds * ds6 + d66 * ds ** 2) * e4 ** 4
            + (24 * e6 * d4 * (d6 * dss - ds * ds6)
               + 24 * e6 * ds * (d46 * ds - d6 * ds4)
               + 10 * d4 * ds ** 2) * e4 ** 2
            + 3 * ds ** 2 * (7 * e6 * d6 - sigma * ds) * e4
            + 8 * e6 ** 2 * (d4 ** 2 * dss - 2 * d4 * ds * ds4 + d44 * ds ** 2))


def e6_tilde_parts(ell, sigma, e4, e6, ds, d4, d6, ds4, ds6, d46,
                   dss, d44, d66):
    """(-N, ell^6 ds^3) with E6(q^ell) = -N / (ell^6 ds^3)."""
    c2 = c2_block(ell, sigma, e4, e6, ds, d4, d6, ds4, ds6, d46, dss, d44, d66)
    # ell^0 coefficient is -8 ds^3 sigma^3: the coefficient 8 is forced both
    # by the symbolic re-derivation and by the l=5 numeric point (B*=997).
    n = (-e6 * ds ** 3 * ell ** 3
         + c2 * ell ** 2
         + 12 * ds ** 2 * sigma * (3 * e4 ** 2 * d6 + 2 * e6 * d4) * ell
         - 8 * ds ** 3 * sigma ** 3)
    return -n, ell ** 6 * ds ** 3


def atkin_sigma_parts(ell, e4, e6, d4, d6, f, df):
    """sigma = ell*(3 d6 E4^2 + 2 d4 E6) / (f df) in the f-root chart."""
    return ell * (3 * d6 * e4 ** 2 + 2 * d4 * e6), f * df


def atkin_e4_tilde_parts(ell, e4, e6, d4, d6, d46, f, df, df4, df6,
                         dff, d44, d66):
    """(N, ell^2 f^2 df^3) with E4(q^ell) = N / (ell^2 f^2 df^3) in the
    f-root chart; N holds the sigma chart's c2 block read at the f root
    with sigma = 0, which carries every second partial."""
    c2 = c2_block(ell, 0, e4, e6, df, d4, d6, df4, df6, d46, dff, d44, d66)
    n = (2 * f * c2 + 8 * df * (3 * e4 ** 2 * d6 + 2 * e6 * d4) ** 2
         - e4 * f ** 2 * df ** 3)
    return n, ell ** 2 * f ** 2 * df ** 3
