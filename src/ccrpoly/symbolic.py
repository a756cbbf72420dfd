"""Exact sparse Laurent polynomials over Q and the formula re-derivations.

``MultiPoly`` is a sparse polynomial over an arbitrary tuple of named
indeterminates whose exponents may be negative, so dividing by a single
term is exact; ``num``/``den`` write one as a polynomial over a monomial.
Every denominator the derivations meet is a single term (powers of ell,
ds, f and df, and 2*E4, 3*E6), so no quotient field is needed.  On top of
the ring, ``derive_e4t`` / ``derive_e6t`` / ``derive_atkin_sigma`` /
``derive_atkin_e4t`` replay the differential derivations of the
isogenous-curve formulas step by step and check the results for equality
against the transcriptions in :mod:`ccrpoly.formulas`, each bound to ring
symbols by its own parameter names.  One first-order and one second-order
routine serve both the sigma chart (U) and the f chart (Ua); a table gives
each chart's symbols, the root's q-derivatives and the closed forms, and
the second order eliminates the diagonal second partials.  Every check is
an exact polynomial identity; a failure raises :class:`VerificationError`
naming the step.

Its one user is ``verify-symbolic``; the builders and the Delta
display do not import it.
"""

from __future__ import annotations

import inspect
from collections import namedtuple
from fractions import Fraction
from functools import wraps
from operator import truediv

from .errors import NotDivisibleError, VerificationError
from .qseries import _powers
from . import formulas

# Verifier ring: the three slot derivatives of the modular polynomial are
# ds/d4/d6, mixed second partials ds4/ds6/d46, and the eta-variant analogues
# carry the f prefix.  Diagonal second partials are never ring variables;
# they are always eliminated through the weighted-homogeneity relations,
# the step that shows the E2 coefficients to be multiples of H.  The
# formulas take them as arguments, and the F_p engine reads them.
VARS = ("ell", "E2", "E4", "E6", "sigma", "E4t", "E6t",
        "d4", "d6", "ds", "ds4", "ds6", "d46",
        "f", "df", "df4", "df6")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerced(op):
    """The binary operator op with its operand in self's ring: an int
    or Fraction is taken as a constant, a polynomial over other
    variables is a TypeError, and anything else NotImplemented."""
    @wraps(op)
    def coerced(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        elif other.vars != self.vars:
            raise TypeError("mixed variable sets")
        return op(self, other)
    return coerced


class MultiPoly:
    """Sparse Laurent polynomial over Q: exponent tuples (one slot per
    variable, negative allowed) mapped to nonzero Fraction coefficients.
    The constructor drops zero coefficients, and no operation drops them
    again; every binary operator takes its operand through _coerced."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def const(cls, vars: tuple, value) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def gen(cls, vars: tuple, name: str, power: int = 1) -> "MultiPoly":
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = power
        return cls(vars, {tuple(e): _ONE})

    # -- ring operations --------------------------------------------------

    @_coerced
    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __mul__(self, other):
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(ea, eb))
                out[k] = out.get(k, _ZERO) + ca * cb
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _powers([MultiPoly.const(self.vars, 1), self], n)[n]

    @_coerced
    def __truediv__(self, other):
        """Exact division by a single term t: subtract t's exponents from
        each term's and divide by t's coefficient.  A divisor of two or
        more terms raises NotDivisibleError."""
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if len(other.terms) > 1:
            raise NotDivisibleError("divisor has more than one term")
        (eb, cb), = other.terms.items()
        return MultiPoly(self.vars,
                         {tuple(x - y for x, y in zip(e, eb)): c / cb
                          for e, c in self.terms.items()})

    @_coerced
    def __eq__(self, other):
        return self.terms == other.terms

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree_in(self, var: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, var: str, k: int) -> "MultiPoly":
        """Coefficient of var^k, returned in the same ring with the slot
        zeroed out."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MultiPoly(self.vars, out)

    @property
    def den(self) -> "MultiPoly":
        """The least coefficient-1 monomial whose product with self has no
        negative exponent."""
        shift = (tuple(-min(0, *col) for col in zip(*self.terms))
                 or (0,) * len(self.vars))
        return MultiPoly(self.vars, {shift: _ONE})

    @property
    def num(self) -> "MultiPoly":
        """self * self.den, a polynomial."""
        return self * self.den

    def exact_divide(self, other: "MultiPoly") -> "MultiPoly":
        """Quotient self/other when the division is exact; raises
        NotDivisibleError otherwise.  Lex leading-term elimination: for an
        exact multiple the leading term of every partial remainder is
        divisible by the divisor's leading term, so the loop terminates with
        remainder zero exactly when other | self."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return MultiPoly(self.vars, {})
        eb = max(other.terms)
        cb = other.terms[eb]
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            er = max(rem)
            qe = tuple(x - y for x, y in zip(er, eb))
            if any(x < 0 for x in qe):
                raise NotDivisibleError("leading term not divisible")
            qc = rem[er] / cb
            quo[qe] = quo.get(qe, _ZERO) + qc
            for e, c in other.terms.items():
                k = tuple(x + y for x, y in zip(qe, e))
                s = rem.get(k, _ZERO) - qc * c
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return MultiPoly(self.vars, quo)

    def variables_used(self) -> set:
        used = set()
        for e in self.terms:
            for name, exp in zip(self.vars, e):
                if exp:
                    used.add(name)
        return used

    # -- printing ---------------------------------------------------------

    def _monomial_str(self, e: tuple) -> str:
        parts = []
        for name, exp in zip(self.vars, e):
            if exp == 1:
                parts.append(name)
            elif exp:
                parts.append(f"{name}^{exp}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # graded lex descending: stable, readable, independent of dict order
        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for e in order:
            c = self.terms[e]
            mono = self._monomial_str(e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# Derivations


def ring_gens() -> dict:
    return {name: MultiPoly.gen(VARS, name) for name in VARS}


def _at(g: dict, names: str) -> list:
    return [g[name] for name in names.split()]


def _ramanujan(E2, E4, E6) -> tuple:
    """(E2', E4', E6') with ' = q d/dq, by Ramanujan's identities."""
    return (E2 ** 2 - E4) / 12, (E2 * E4 - E6) / 3, (E2 * E6 - E4 ** 2) / 2


def _e2t(g: dict, sigma):
    """E2(q^ell), from sigma = (ell/2)*(ell*E2(q^ell) - E2)."""
    return (g["E2"] + 2 * sigma / g["ell"]) / g["ell"]


# The root's first and second q-derivatives in each chart, from
# sigma = (ell/2)*(ell*E2(q^ell) - E2) and f'/f = (ell*E2(q^ell) + E2)/12.
# u is the chart's first unknown (E4(q^ell) for sigma, sigma for f): its
# symbol in a first-order derivation, its derived value in a second-order
# one.

def _sigma_p(g, u):
    ell, sigma = g["ell"], g["sigma"]
    return ell * (4 * sigma ** 2 / ell ** 2 + 4 * sigma / ell * g["E2"]
                  - (ell ** 2 * u - g["E4"])) / 24


def _sigma_pp(g, u, E2p, E4p):
    ell, E2 = g["ell"], g["E2"]
    E2t = _e2t(g, g["sigma"])
    E2tp, E4tp, _ = _ramanujan(E2t, u, g["E6t"])
    E2tpp = (2 * E2t * E2tp - E4tp) / 12
    E2pp = (2 * E2 * E2p - E4p) / 12
    return ell * (ell ** 3 * E2tpp - E2pp) / 2


def _f_p(g, u):
    return g["f"] / 12 * (g["ell"] * _e2t(g, u) + g["E2"])


def _f_pp(g, u, E2p, E4p):
    ell, E2 = g["ell"], g["E2"]
    E2t = _e2t(g, u)
    return g["f"] / 144 * ((ell * E2t + E2) ** 2
                           + ell ** 2 * (E2t ** 2 - g["E4t"]) + 12 * E2p)


# A derivation solves for ``unknown`` and checks the result against the
# quotient of the (num, den) pair its ``formula`` in formulas.py returns,
# which the report names ``closed`` in its step label and ``shown`` in its
# line.  _bind reads the formula's parameters by name, and the derived
# result may hold those symbols only.  The second-order transcriptions
# keep dss/d44/d66 (dff/d44/d66) as formal arguments; the derived result
# has them eliminated, so they are bound to the same elimination.
_Order = namedtuple("_Order", "name unknown formula closed shown")

# A chart names its root, the root's first partial, its mixed partials with
# E4 and E6, its diagonal second partial and its H; root_p and root_pp are
# the root's q-derivatives, first and second the derivations of each order.
_Chart = namedtuple("_Chart",
                    "root dr dr4 dr6 drr h root_p root_pp first second")

_SIGMA_CHART = _Chart(
    "sigma", "ds", "ds4", "ds6", "dss", "H_U", _sigma_p, _sigma_pp,
    _Order("e4t", "E4t", formulas.e4_tilde_parts, "closed form",
           "-(4*ell*(3*E4^2*d6+2*E6*d4)-ds*(ell^2*E4+4*sigma^2))"
           "/(ell^4*ds)"),
    _Order("e6t", "E6t", formulas.e6_tilde_parts, "-N/(ell^6*ds^3)",
           "-N/(ell^6*ds^3), N and c2 from the degree-3-in-ell display"))

_F_CHART = _Chart(
    "f", "df", "df4", "df6", "dff", "H_f", _f_p, _f_pp,
    _Order("a-sigma", "sigma", formulas.atkin_sigma_parts, "closed form",
           "ell*(3*d6*E4^2+2*d4*E6)/(f*df)"),
    _Order("a-e4t", "E4t", formulas.atkin_e4_tilde_parts,
           "N/(ell^2*f^2*df^3)",
           "N/(ell^2*f^2*df^3), N = 2*f*c2 at sigma = 0 + "
           "8*df*(3*E4^2*d6+2*E6*d4)^2 - E4*f^2*df^3"))

# the formulas name the curve's Eisenstein values in lower case
_ALIAS = {"e4": "E4", "e6": "E6"}


def _bind(order: _Order, g: dict, diag: dict) -> tuple:
    """The formula at its parameters bound by name, a diagonal to its
    elimination, and the ring symbols that the rest bind."""
    names = [_ALIAS.get(n, n)
             for n in inspect.signature(order.formula).parameters]
    symbols = set(names) - diag.keys()
    foreign = ", ".join(sorted(symbols - g.keys()))
    _check(not foreign, f"{order.name}: {order.formula.__name__} binds "
           f"ring symbols only, not {foreign}")
    values = {**g, **diag}
    return truediv(*order.formula(*(values[n] for n in names))), symbols


def _h(chart: _Chart) -> MultiPoly:
    g = ring_gens()
    return (g[chart.root] * g[chart.dr] + 2 * g["E4"] * g["d4"]
            + 3 * g["E6"] * g["d6"])


class DerivationReport(namedtuple("DerivationReport",
                                  "name derived assertions")):
    """Outcome of one derivation: the derived MultiPoly, printed as its
    num over its den, plus the ordered list of (label, detail) assertions,
    all of which passed."""

    __slots__ = ()

    def lines(self) -> list:
        out = [f"derivation {self.name}"]
        for label, detail in self.assertions:
            out.append(f"  PASS {label}: {detail}")
        out.append(f"  derived numerator   = {self.derived.num}")
        out.append(f"  derived denominator = {self.derived.den}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())


def _check(cond: bool, step: str):
    if not cond:
        raise VerificationError(f"assertion failed at step: {step}")


def _divide_by(poly: MultiPoly, h: MultiPoly, step: str) -> MultiPoly:
    try:
        return poly.exact_divide(h)
    except NotDivisibleError as exc:
        raise VerificationError(f"assertion failed at step: {step}") from exc


def _solved(order: _Order, num: MultiPoly, g: dict, diag: dict,
            checks: list) -> DerivationReport:
    """Solve the E2-free coefficient of num, linear in the unknown, and
    check the result against the closed form and for ring hygiene."""
    name, var = order.name, order.unknown
    c0 = num.coefficient_of("E2", 0)
    _check(c0.degree_in(var) == 1,
           f"{name}: constant coefficient: expression linear in {var}")
    lead = c0.coefficient_of(var, 1)
    _check(lead.is_monomial, f"{name}: coefficient of {var} is one term")
    derived = -c0.coefficient_of(var, 0) / lead
    closed, symbols = _bind(order, g, diag)
    _check(derived == closed, f"{name}: equality with {order.closed}")
    checks.append(("equals closed form", order.shown))
    _check(derived.variables_used() <= symbols, f"{name}: ring hygiene")
    checks.append(("ring hygiene", "no eliminated or foreign symbols"))
    return DerivationReport(name, derived, checks)


def _first_order(chart: _Chart) -> DerivationReport:
    """Differentiate the chart's polynomial once: the cleared result is
    linear in E2, its E2 coefficient is a monomial times H, and the rest
    solves for the chart's first unknown."""
    g = ring_gens()
    name = chart.first.name
    _, E4p, E6p = _ramanujan(g["E2"], g["E4"], g["E6"])
    rp = chart.root_p(g, g[chart.first.unknown])
    num = (rp * g[chart.dr] + E4p * g["d4"] + E6p * g["d6"]).num
    _check(num.degree_in("E2") == 1,
           f"{name}: cleared expression linear in E2")
    quot = _divide_by(num.coefficient_of("E2", 1), _h(chart),
                      f"{name}: E2 coefficient divisible by {chart.h}")
    _check(quot.is_monomial, f"{name}: {chart.h} quotient is a monomial")
    checks = [("degree in E2", "1"),
              (f"E2 coefficient / {chart.h}", f"monomial quotient {quot}")]
    return _solved(chart.first, num, g, {}, checks)


def _second_order(chart: _Chart) -> DerivationReport:
    """Differentiate twice, eliminate the diagonal second partials through
    the weighted-homogeneity relations, and solve the E2-constant
    coefficient for the chart's second unknown; the E2 and E2^2
    coefficients must be multiples of H."""
    g = ring_gens()
    name = chart.second.name
    ell, E2, E4, E6, d4, d6, d46 = _at(g, "ell E2 E4 E6 d4 d6 d46")
    r, dr, dr4, dr6 = (g[v] for v in chart[:4])
    u = _first_order(chart).derived
    E2p, E4p, E6p = _ramanujan(E2, E4, E6)
    rp = chart.root_p(g, u)
    rpp = chart.root_pp(g, u, E2p, E4p)
    E4pp = (E2p * E4 + E2 * E4p - E6p) / 3
    E6pp = (E2p * E6 + E2 * E6p - 2 * E4 * E4p) / 2
    # the diagonals by their parameter names, eliminated through the
    # weighted-homogeneity relations; root, 2*E4 and 3*E6 are single terms
    diag = {chart.drr: (ell * dr - 2 * E4 * dr4 - 3 * E6 * dr6) / r,
            "d44": ((ell - 1) * d4 - r * dr4 - 3 * E6 * d46) / (2 * E4),
            "d66": ((ell - 2) * d6 - r * dr6 - 2 * E4 * d46) / (3 * E6)}
    drr, d44, d66 = diag.values()

    tmp = rpp * dr + rp * (rp * drr + E4p * dr4 + E6p * dr6)
    tmp = tmp + E4pp * d4 + E4p * (rp * dr4 + E4p * d44 + E6p * d46)
    tmp = tmp + E6pp * d6 + E6p * (rp * dr6 + E4p * d46 + E6p * d66)
    num = tmp.num

    _check(num.degree_in("E2") == 2,
           f"{name}: cleared expression quadratic in E2")
    checks = [("degree in E2", "2")]
    h = _h(chart)
    for i in (2, 1):
        quot = _divide_by(num.coefficient_of("E2", i), h,
                          f"{name}: C{i} divisible by {chart.h}")
        checks.append((f"C{i} / {chart.h}",
                       f"exact, quotient has {len(quot.terms)} terms"))
    return _solved(chart.second, num, g, diag, checks)


def derive_e4t() -> DerivationReport:
    """Differentiate U(sigma, E4, E6) = 0 once and solve for E4(q^ell)."""
    return _first_order(_SIGMA_CHART)


def derive_e6t() -> DerivationReport:
    """Differentiate U twice, eliminate diagonal second partials, and solve
    the E2-constant coefficient for E6(q^ell)."""
    return _second_order(_SIGMA_CHART)


def derive_atkin_sigma() -> DerivationReport:
    """Differentiate Ua(f, E4, E6) = 0 once and solve for sigma."""
    return _first_order(_F_CHART)


def derive_atkin_e4t() -> DerivationReport:
    """Differentiate twice in the eta-variant chart and solve for E4(q^ell)."""
    return _second_order(_F_CHART)


DERIVATIONS = {
    "e4t": derive_e4t,
    "e6t": derive_e6t,
    "a-sigma": derive_atkin_sigma,
    "a-e4t": derive_atkin_e4t,
}
