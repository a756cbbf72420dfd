"""Exact reference evaluators that the tests check the library against.

Each works from the public fields of the objects (``terms``, ``vars``,
``coeffs``/``lead``/``step``), so it shares no code path with the
compiled F_p tables, the integer series core or the symbolic ring it
checks.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod


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


def ref_qdiff(a):
    """q d/dq: the coefficient of x**n picks up n/step.  Takes and returns
    any series type built as cls(coeffs, lead, step)."""
    return type(a)([c * Fraction(a.lead + k, a.step)
                    for k, c in enumerate(a.coeffs)], a.lead, a.step)


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
