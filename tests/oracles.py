"""Exact reference evaluators that the tests check the library against.

Each works from the public fields of the objects (``terms``, ``vars``,
``num``/``den``, ``coeffs``/``lead``/``step``), so it shares no code path
with the compiled F_p tables or the integer series core it checks.
"""

from fractions import Fraction
from math import prod

from ccrpoly.symbolic import RationalExpression


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
    """A MultiPoly or RationalExpression at the integer assignment
    ``values`` (variable name -> int), reduced mod the prime p."""
    if isinstance(expr, RationalExpression):
        num, den = (eval_mod(part, values, p) for part in (expr.num, expr.den))
        if not den:
            raise ZeroDivisionError("denominator vanishes at this point")
        return num * pow(den, -1, p) % p
    return fraction_mod(evaluate(expr, *map(values.get, expr.vars)), p)


def ref_qdiff(a):
    """q d/dq: the coefficient of x**n picks up n/step.  Takes and returns
    any series type built as cls(coeffs, lead, step)."""
    return type(a)([c * Fraction(a.lead + k, a.step)
                    for k, c in enumerate(a.coeffs)], a.lead, a.step)


def zero_through(s, n: int) -> bool:
    """Every coefficient of s below x**n vanishes; PrecisionError when the
    window stops short of x**n."""
    return not any(s.coefficient(k) for k in range(s.lead, n))
