"""Exact sparse multivariate arithmetic over Q and the formula re-derivations.

``MultiPoly`` is a generic sparse polynomial over an arbitrary tuple of named
indeterminates; ``RationalExpression`` is a quotient of two of them with a
cheap normalization (common monomial and rational content only, no polynomial
gcd).  On top of the engine, ``derive_e4t`` / ``derive_e6t`` /
``derive_atkin_sigma`` / ``derive_atkin_e4t`` replay the differential
derivations of the isogenous-curve formulas step by step and check the
results against the transcriptions in :mod:`ccrpoly.formulas` by
cross-multiplication.  Every check is an exact polynomial identity; a failure
raises :class:`VerificationError` naming the step.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import NotDivisibleError, VerificationError
from . import formulas

# Verifier ring: the three slot derivatives of the modular polynomial are
# ds/d4/d6, mixed second partials ds4/ds6/d46, and the eta-variant analogues
# carry the f prefix.  Diagonal second partials are never ring variables;
# they are always eliminated through the weighted-homogeneity relations.
VARS = ("ell", "E2", "E4", "E6", "sigma", "E4t", "E6t",
        "d4", "d6", "ds", "ds4", "ds6", "d46",
        "f", "df", "df4", "df6")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac_content(values) -> Fraction:
    num = 0
    den = 1
    for v in values:
        num = gcd(num, abs(v.numerator))
        den = den * v.denominator // gcd(den, v.denominator)
    return Fraction(num, den)


class MultiPoly:
    """Sparse polynomial over Q: exponent tuples (one slot per variable)
    mapped to nonzero Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def const(cls, vars: tuple, value) -> "MultiPoly":
        value = Fraction(value)
        return cls(vars, {(0,) * len(vars): value} if value else {})

    @classmethod
    def gen(cls, vars: tuple, name: str, power: int = 1) -> "MultiPoly":
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = power
        return cls(vars, {tuple(e): _ONE})

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise TypeError("mixed variable sets")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.vars, other)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            if not k:
                return MultiPoly(self.vars, {})
            return MultiPoly(self.vars,
                             {e: c * k for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in o.terms.items():
                k = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(k, _ZERO) + ca * cb
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / Fraction(other))
        if isinstance(other, MultiPoly):
            return RationalExpression(self, other)
        if isinstance(other, RationalExpression):
            return RationalExpression(self * other.den, other.num)
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

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

    def content(self) -> Fraction:
        return _frac_content(self.terms.values())

    def monomial_content(self) -> tuple:
        if not self.terms:
            return (0,) * len(self.vars)
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

    def divide_monomial(self, mono: tuple) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            shifted = tuple(x - y for x, y in zip(e, mono))
            if any(x < 0 for x in shifted):
                raise NotDivisibleError("monomial does not divide every term")
            out[shifted] = c
        return MultiPoly(self.vars, out)

    def leading(self) -> tuple:
        """Lex-leading (exponent, coefficient) under the ring's variable
        order."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_divide(self, other: "MultiPoly") -> "MultiPoly":
        """Quotient self/other when the division is exact; raises
        NotDivisibleError otherwise.  Lex leading-term elimination: for an
        exact multiple the leading term of every partial remainder is
        divisible by the divisor's leading term, so the loop terminates with
        remainder zero exactly when other | self."""
        o = self._coerce(other)
        if o is None or o.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return MultiPoly(self.vars, {})
        eb, cb = o.leading()
        rem = dict(self.terms)
        quo: dict = {}
        while rem:
            er = max(rem)
            qe = tuple(x - y for x, y in zip(er, eb))
            if any(x < 0 for x in qe):
                raise NotDivisibleError("leading term not divisible")
            qc = rem[er] / cb
            quo[qe] = quo.get(qe, _ZERO) + qc
            for e, c in o.terms.items():
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


class RationalExpression:
    """Quotient num/den of two MultiPoly over the same ring.

    Normalization keeps sizes down without polynomial gcd: cancel the common
    monomial factor, make the denominator primitive with positive lex-leading
    coefficient, and fold constant denominators into the numerator.  Equality
    is decided by cross-multiplication, so normalization is not relied on for
    correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = MultiPoly.const(num.vars, 1)
        elif den.is_constant:
            num = num * (_ONE / den.constant_value())
            den = MultiPoly.const(num.vars, 1)
        else:
            common = tuple(map(min, num.monomial_content(),
                               den.monomial_content()))
            if any(common):
                num = num.divide_monomial(common)
                den = den.divide_monomial(common)
            scale = den.content()
            if den.leading()[1] < 0:
                scale = -scale
            if scale != 1:
                num = num * (_ONE / scale)
                den = den * (_ONE / scale)
        self.num = num
        self.den = den

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalExpression):
            if other.num.vars != self.num.vars:
                raise TypeError("mixed variable sets")
            return other
        if isinstance(other, MultiPoly):
            if other.vars != self.num.vars:
                raise TypeError("mixed variable sets")
            return RationalExpression(other)
        if isinstance(other, (int, Fraction)):
            return RationalExpression(MultiPoly.const(self.num.vars, other))
        return None

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpression(self.num * o.den + o.num * self.den,
                                  self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalExpression(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpression(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalExpression(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalExpression(self.den ** (-n), self.num ** (-n))
        return RationalExpression(self.num ** n, self.den ** n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero

    def __hash__(self):
        return hash((self.num, self.den))

    # -- structure --------------------------------------------------------

    def variables_used(self) -> set:
        return self.num.variables_used() | self.den.variables_used()

    def __str__(self) -> str:
        if self.den.is_constant:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalExpression({self})"


# ---------------------------------------------------------------------------
# Derivations


def ring_gens() -> dict:
    return {name: MultiPoly.gen(VARS, name) for name in VARS}


def h_u() -> MultiPoly:
    """sigma*ds + 2*E4*d4 + 3*E6*d6, the weighted-homogeneity combination
    annihilating the E2 coefficients in the sigma-root derivations."""
    g = ring_gens()
    return g["sigma"] * g["ds"] + 2 * g["E4"] * g["d4"] + 3 * g["E6"] * g["d6"]


def h_f() -> MultiPoly:
    """f*df + 2*E4*d4 + 3*E6*d6, the analogue for the eta-variant root."""
    g = ring_gens()
    return g["f"] * g["df"] + 2 * g["E4"] * g["d4"] + 3 * g["E6"] * g["d6"]


class DerivationReport(namedtuple("DerivationReport",
                                  "name derived assertions")):
    """Outcome of one derivation: the derived RationalExpression plus the
    ordered list of (label, detail) assertions, all of which passed."""

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


def _solve_linear(c0: MultiPoly, var: str, step: str) -> RationalExpression:
    """Solve c0 == 0 for var, required to appear linearly."""
    _check(c0.degree_in(var) == 1, f"{step}: expression linear in {var}")
    lead = c0.coefficient_of(var, 1)
    rest = c0.coefficient_of(var, 0)
    return RationalExpression(-rest, lead)


def derive_e4t() -> DerivationReport:
    """Differentiate U(sigma, E4, E6) = 0 once and solve for E4(q^ell)."""
    g = ring_gens()
    ell, E2, E4, E6 = g["ell"], g["E2"], g["E4"], g["E6"]
    sigma, E4t = g["sigma"], g["E4t"]
    d4, d6, ds = g["d4"], g["d6"], g["ds"]
    checks = []

    E4p = (E2 * E4 - E6) / 3
    E6p = (E2 * E6 - E4 ** 2) / 2
    sigp = ell / 24 * (4 * sigma ** 2 / ell ** 2 + 4 * sigma / ell * E2
                       - (ell ** 2 * E4t - E4))
    tmp = sigp * ds + E4p * d4 + E6p * d6
    num = tmp.num

    _check(num.degree_in("E2") == 1, "e4t: cleared expression linear in E2")
    checks.append(("degree in E2", "1"))

    c1 = num.coefficient_of("E2", 1)
    quot = _divide_by(c1, h_u(), "e4t: E2 coefficient divisible by H_U")
    _check(quot.is_monomial, "e4t: H_U quotient is a monomial")
    checks.append(("E2 coefficient / H_U", f"monomial quotient {quot}"))

    derived = _solve_linear(num.coefficient_of("E2", 0), "E4t",
                            "e4t: constant coefficient")
    ref_num, ref_den = formulas.e4_tilde_parts(ell, sigma, E4, E6, ds, d4, d6)
    _check(derived == RationalExpression(ref_num, ref_den),
           "e4t: cross-multiplied equality with closed form")
    checks.append(("equals closed form", "-(4*ell*(3*E4^2*d6+2*E6*d4)"
                   "-ds*(ell^2*E4+4*sigma^2))/(ell^4*ds)"))

    allowed = {"ell", "E4", "E6", "sigma", "d4", "d6", "ds"}
    _check(derived.variables_used() <= allowed, "e4t: ring hygiene")
    checks.append(("ring hygiene", "no eliminated or foreign symbols"))
    return DerivationReport("e4t", derived, checks)


def derive_e6t() -> DerivationReport:
    """Differentiate twice, eliminate diagonal second partials, and solve
    the E2-constant coefficient for E6(q^ell)."""
    g = ring_gens()
    ell, E2, E4, E6 = g["ell"], g["E2"], g["E4"], g["E6"]
    sigma, E6t = g["sigma"], g["E6t"]
    d4, d6, ds = g["d4"], g["d6"], g["ds"]
    ds4, ds6, d46 = g["ds4"], g["ds6"], g["d46"]
    checks = []

    e4t = derive_e4t().derived
    E4p = (E2 * E4 - E6) / 3
    E6p = (E2 * E6 - E4 ** 2) / 2
    E2p = (E2 ** 2 - E4) / 12
    E2t = (E2 + 2 * sigma / ell) / ell
    sigp = ell * (4 * sigma ** 2 / ell ** 2 + 4 * sigma / ell * E2
                  - (ell ** 2 * e4t - E4)) / 24
    E4pp = (E2p * E4 + E2 * E4p - E6p) / 3
    E6pp = (E2p * E6 + E2 * E6p - 2 * E4 * E4p) / 2
    E4tp = (E2t * e4t - E6t) / 3
    E2tp = (E2t ** 2 - e4t) / 12
    E2pp = (2 * E2 * E2p - E4p) / 12
    E2tpp = (2 * E2t * E2tp - E4tp) / 12
    sigpp = ell * (ell ** 3 * E2tpp - E2pp) / 2

    dss_n, dss_d = formulas.diagonal_dss(ell, sigma, E4, E6, ds, ds4, ds6)
    d44_n, d44_d = formulas.diagonal_d44(ell, sigma, E6, d4, ds4, d46, E4)
    d66_n, d66_d = formulas.diagonal_d66(ell, sigma, E4, d6, ds6, d46, E6)
    dss, d44, d66 = dss_n / dss_d, d44_n / d44_d, d66_n / d66_d

    tmp = sigpp * ds + sigp * (sigp * dss + E4p * ds4 + E6p * ds6)
    tmp = tmp + E4pp * d4 + E4p * (sigp * ds4 + E4p * d44 + E6p * d46)
    tmp = tmp + E6pp * d6 + E6p * (sigp * ds6 + E4p * d46 + E6p * d66)
    num = tmp.num

    _check(num.degree_in("E2") == 2, "e6t: cleared expression quadratic in E2")
    checks.append(("degree in E2", "2"))

    H = h_u()
    q2 = _divide_by(num.coefficient_of("E2", 2), H,
                    "e6t: C2 divisible by H_U")
    checks.append(("C2 / H_U", f"exact, quotient has {len(q2.terms)} terms"))
    q1 = _divide_by(num.coefficient_of("E2", 1), H,
                    "e6t: C1 divisible by H_U")
    checks.append(("C1 / H_U", f"exact, quotient has {len(q1.terms)} terms"))

    derived = _solve_linear(num.coefficient_of("E2", 0), "E6t",
                            "e6t: constant coefficient")
    # The transcription keeps dss/d44/d66 as formal arguments; the derived
    # result has them eliminated, so compare after the same elimination.
    n_ref = formulas.e6_tilde_numerator(ell, sigma, E4, E6, ds, d4, d6,
                                        ds4, ds6, d46, dss, d44, d66)
    ref = -n_ref / formulas.e6_tilde_denominator(ell, ds)
    _check(derived == ref, "e6t: cross-multiplied equality with -N/(ell^6*ds^3)")
    checks.append(("equals closed form", "-N/(ell^6*ds^3), N and c2 from the"
                   " degree-3-in-ell display"))

    allowed = {"ell", "E4", "E6", "sigma", "d4", "d6", "ds", "ds4", "ds6",
               "d46"}
    _check(derived.variables_used() <= allowed, "e6t: ring hygiene")
    checks.append(("ring hygiene", "no eliminated or foreign symbols"))
    return DerivationReport("e6t", derived, checks)


def derive_atkin_sigma() -> DerivationReport:
    """Differentiate Ua(f, E4, E6) = 0 once and solve for sigma."""
    g = ring_gens()
    ell, E2, E4, E6 = g["ell"], g["E2"], g["E4"], g["E6"]
    sigma = g["sigma"]
    d4, d6, f, df = g["d4"], g["d6"], g["f"], g["df"]
    checks = []

    E4p = (E2 * E4 - E6) / 3
    E6p = (E2 * E6 - E4 ** 2) / 2
    E2t = (E2 + 2 * sigma / ell) / ell
    fp = f / 12 * (ell * E2t + E2)
    tmp = fp * df + E4p * d4 + E6p * d6
    num = tmp.num

    _check(num.degree_in("E2") == 1,
           "a-sigma: cleared expression linear in E2")
    checks.append(("degree in E2", "1"))

    c1 = num.coefficient_of("E2", 1)
    quot = _divide_by(c1, h_f(), "a-sigma: E2 coefficient divisible by H_f")
    _check(quot.is_monomial, "a-sigma: H_f quotient is a monomial")
    checks.append(("E2 coefficient / H_f", f"monomial quotient {quot}"))

    derived = _solve_linear(num.coefficient_of("E2", 0), "sigma",
                            "a-sigma: constant coefficient")
    ref_num, ref_den = formulas.atkin_sigma_parts(ell, E4, E6, d4, d6, f, df)
    _check(derived == RationalExpression(ref_num, ref_den),
           "a-sigma: cross-multiplied equality with closed form")
    checks.append(("equals closed form",
                   "ell*(3*d6*E4^2+2*d4*E6)/(f*df)"))

    allowed = {"ell", "E4", "E6", "d4", "d6", "f", "df"}
    _check(derived.variables_used() <= allowed, "a-sigma: ring hygiene")
    checks.append(("ring hygiene", "no eliminated or foreign symbols"))
    return DerivationReport("a-sigma", derived, checks)


def derive_atkin_e4t() -> DerivationReport:
    """Differentiate twice in the eta-variant chart and solve for E4(q^ell)."""
    g = ring_gens()
    ell, E2, E4, E6 = g["ell"], g["E2"], g["E4"], g["E6"]
    E4t = g["E4t"]
    d4, d6, d46 = g["d4"], g["d6"], g["d46"]
    f, df, df4, df6 = g["f"], g["df"], g["df4"], g["df6"]
    checks = []

    sig = derive_atkin_sigma().derived
    E4p = (E2 * E4 - E6) / 3
    E6p = (E2 * E6 - E4 ** 2) / 2
    E2p = (E2 ** 2 - E4) / 12
    E2t = (E2 + 2 * sig / ell) / ell
    fp = f / 12 * (ell * E2t + E2)
    fpp = f / 144 * ((ell * E2t + E2) ** 2 + ell ** 2 * (E2t ** 2 - E4t)
                     + (E2 ** 2 - E4))
    E4pp = (E2p * E4 + E2 * E4p - E6p) / 3
    E6pp = (E2p * E6 + E2 * E6p - 2 * E4 * E4p) / 2

    dff_n, dff_d = formulas.diagonal_dss(ell, f, E4, E6, df, df4, df6)
    d44_n, d44_d = formulas.diagonal_d44(ell, f, E6, d4, df4, d46, E4)
    d66_n, d66_d = formulas.diagonal_d66(ell, f, E4, d6, df6, d46, E6)
    dff, d44, d66 = dff_n / dff_d, d44_n / d44_d, d66_n / d66_d

    tmp = fpp * df + fp * (fp * dff + E4p * df4 + E6p * df6)
    tmp = tmp + E4pp * d4 + E4p * (fp * df4 + E4p * d44 + E6p * d46)
    tmp = tmp + E6pp * d6 + E6p * (fp * df6 + E4p * d46 + E6p * d66)
    num = tmp.num

    _check(num.degree_in("E2") == 2,
           "a-e4t: cleared expression quadratic in E2")
    checks.append(("degree in E2", "2"))

    H = h_f()
    q2 = _divide_by(num.coefficient_of("E2", 2), H,
                    "a-e4t: C2 divisible by H_f")
    checks.append(("C2 / H_f", f"exact, quotient has {len(q2.terms)} terms"))
    q1 = _divide_by(num.coefficient_of("E2", 1), H,
                    "a-e4t: C1 divisible by H_f")
    checks.append(("C1 / H_f", f"exact, quotient has {len(q1.terms)} terms"))

    derived = _solve_linear(num.coefficient_of("E2", 0), "E4t",
                            "a-e4t: constant coefficient")
    m_ref = formulas.atkin_m_block(ell, E4, E6, d4, d6, d46, f, df, df4, df6)
    ref = RationalExpression(
        -m_ref, formulas.atkin_e4_tilde_denominator(ell, E4, E6, f, df))
    _check(derived == ref,
           "a-e4t: cross-multiplied equality with -M/(ell^2*f^2*E4*E6*df^3)")
    checks.append(("equals closed form", "-M/(ell^2*f^2*E4*E6*df^3), M from"
                   " the E4-degree-6 display"))

    allowed = {"ell", "E4", "E6", "d4", "d6", "d46", "f", "df", "df4", "df6"}
    _check(derived.variables_used() <= allowed, "a-e4t: ring hygiene")
    checks.append(("ring hygiene", "no eliminated or foreign symbols"))
    return DerivationReport("a-e4t", derived, checks)


DERIVATIONS = {
    "e4t": derive_e4t,
    "e6t": derive_e6t,
    "a-sigma": derive_atkin_sigma,
    "a-e4t": derive_atkin_e4t,
}
