"""Weighted trivariate polynomials, their bases, and the text store format.

A modular polynomial here is monic of degree ell+1 in X with coefficients
that are polynomials in the pair (E4, E6), or equivalently (A, B) after the
curve-normalization substitution A = -3*E4, B = -2*E6.  Terms are kept
sparse as (i, a, b) -> Fraction meaning X^i * Y^a * Z^b with (Y, Z) the
basis pair.

Weighted homogeneity: (Y, Z) always weigh (2, 3); X weighs what its root
weighs, i.e. 1 for the sigma1 and eta-product kinds, 2 when the roots are
A*-values, 3 for B*-values.  Every monomial then has weighted degree
x_weight*(ell+1).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BuildError, NotDivisibleError, StoreError

KINDS = ("U", "V", "W", "Ua")
BASES = ("E4E6", "AB")

# X carries the weight of the quantity it stands for: sigma1 is weight 1,
# A* weight 2, B* weight 3, the eta product weight 1.
X_WEIGHT = {"U": 1, "V": 2, "W": 3, "Ua": 1}

# E4E6 -> AB substitution is E4 = -A/3, E6 = -B/2, so a coefficient of
# E4^a E6^b picks up (-1)^(a+b) / (3^a 2^b) when re-read on A^a B^b.


def _convert_coeff(c: Fraction, a: int, b: int, to_ab: bool) -> Fraction:
    scale = Fraction((-1) ** (a + b), 3 ** a * 2 ** b)
    return c * scale if to_ab else c / scale


class TrivariatePoly:
    """Terms (i, a, b) -> Fraction in one basis, never changed after
    construction, so ``_fp`` can cache ffield's table of them per p."""

    __slots__ = ("kind", "ell", "basis", "terms", "_fp")

    def __init__(self, kind: str, ell: int, basis: str, terms: dict):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.kind = kind
        self.ell = ell
        self.basis = basis
        self.terms = {k: Fraction(v) for k, v in terms.items() if v}
        self._fp = {}

    # -- structure --------------------------------------------------------

    @property
    def x_weight(self) -> int:
        return X_WEIGHT[self.kind]

    @property
    def weighted_degree(self) -> int:
        return self.x_weight * (self.ell + 1)

    def degree_x(self) -> int:
        return max((i for i, _, _ in self.terms), default=-1)

    def x_coefficients(self) -> dict:
        """Map i -> {(a, b): coeff} for the coefficient of X^i."""
        out: dict = {}
        for (i, a, b), c in self.terms.items():
            out.setdefault(i, {})[(a, b)] = c
        return out

    def validate(self) -> "TrivariatePoly":
        """Check monicity, X-degree, and weighted homogeneity."""
        n = self.ell + 1
        if self.degree_x() != n:
            raise BuildError(f"{self.kind}_{self.ell}: X-degree "
                             f"{self.degree_x()} != {n}")
        if self.terms.get((n, 0, 0)) != 1 or any(
                i == n and (a or b) for (i, a, b) in self.terms):
            raise BuildError(f"{self.kind}_{self.ell}: not monic in X")
        w = self.x_weight
        for (i, a, b) in self.terms:
            if w * i + 2 * a + 3 * b != self.weighted_degree:
                raise BuildError(
                    f"{self.kind}_{self.ell}: monomial ({i},{a},{b}) breaks "
                    f"weighted homogeneity {w}*i+2a+3b={self.weighted_degree}")
        return self

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- basis change ------------------------------------------------------

    def to_basis(self, basis: str) -> "TrivariatePoly":
        if basis == self.basis:
            return self
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        to_ab = basis == "AB"
        terms = {(i, a, b): _convert_coeff(c, a, b, to_ab)
                 for (i, a, b), c in self.terms.items()}
        return TrivariatePoly(self.kind, self.ell, basis, terms)

    # -- calculus ----------------------------------------------------------

    def partial(self, slot: int) -> "TrivariatePoly":
        """Partial derivative in slot 0 (X), 1 (Y) or 2 (Z).  The result is
        carried in the same kind/basis record; it is no longer monic and its
        weighted degree drops by the slot weight, so validate() does not
        apply to it."""
        out: dict = {}
        for (i, a, b), c in self.terms.items():
            e = (i, a, b)[slot]
            if not e:
                continue
            key = tuple(v - (1 if n == slot else 0)
                        for n, v in enumerate((i, a, b)))
            out[key] = out.get(key, Fraction(0)) + c * e
        return TrivariatePoly(self.kind, self.ell, self.basis, out)

    def __eq__(self, other):
        if not isinstance(other, TrivariatePoly):
            return NotImplemented
        return (self.kind, self.ell, self.basis, self.terms) == \
            (other.kind, other.ell, other.basis, other.terms)

    def __repr__(self):
        return (f"TrivariatePoly(kind={self.kind}, ell={self.ell}, "
                f"basis={self.basis}, {len(self.terms)} terms)")


# levels whose Phi_ell the builder makes and the Elkies step checks against
PHI_ELLS = (2, 3, 5, 7, 11, 13)


class ClassicalModularPoly:
    """The symmetric modular polynomial relating j-invariants of
    ell-isogenous curves; terms (i, k) -> integer coefficient of X^i j^k.
    As for TrivariatePoly, ``_fp`` caches the terms mod p per prime."""

    __slots__ = ("ell", "terms", "_fp")

    def __init__(self, ell: int, terms: dict):
        self.ell = ell
        self.terms = {k: v for k, v in terms.items() if v}
        self._fp = {}

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def is_symmetric(self) -> bool:
        return all(self.terms.get((k, i)) == c
                   for (i, k), c in self.terms.items())

    def validate(self) -> "ClassicalModularPoly":
        """Check the X-degree ell+1 and the symmetry in (X, j)."""
        n = self.ell + 1
        if self.degree_x() != n:
            raise BuildError(f"Phi_{self.ell}: X-degree {self.degree_x()} "
                             f"!= {n}")
        if not self.is_symmetric():
            raise BuildError(f"Phi_{self.ell}: not symmetric in (X, j)")
        return self

    def __eq__(self, other):
        if not isinstance(other, ClassicalModularPoly):
            return NotImplemented
        return (self.ell, self.terms) == (other.ell, other.terms)

    def __repr__(self):
        return f"ClassicalModularPoly(ell={self.ell}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# Delta display: factor the largest possible power of
# Delta = (E4^3 - E6^2)/1728 out of each X-coefficient.

_DELTA_VARS = ("E4", "E6")


def _delta_ring() -> tuple:
    """(MultiPoly, Delta as a MultiPoly in E4, E6), imported on use."""
    from .symbolic import MultiPoly
    e4, e6 = (MultiPoly.gen(_DELTA_VARS, v) for v in _DELTA_VARS)
    return MultiPoly, (e4 ** 3 - e6 ** 2) / 1728


def delta_display_terms(poly: TrivariatePoly) -> dict:
    """Rewrite an E4E6-basis polynomial as (i, a, b, m) -> coeff of
    X^i E4^a E6^b Delta^m, with m maximal per X-coefficient."""
    src = poly.to_basis("E4E6")
    MultiPoly, delta = _delta_ring()
    out: dict = {}
    for i, coeffs in src.x_coefficients().items():
        mp = MultiPoly(_DELTA_VARS, {(a, b): c for (a, b), c in coeffs.items()})
        m = 0
        while not mp.is_zero:
            try:
                mp = mp.exact_divide(delta)
            except NotDivisibleError:
                break
            m += 1
        for (a, b), c in mp.terms.items():
            out[(i, a, b, m)] = c
    return out


def expand_delta_display(kind: str, ell: int, terms: dict) -> TrivariatePoly:
    """Inverse of delta_display_terms: multiply the Delta powers back out."""
    MultiPoly, delta = _delta_ring()
    acc: dict = {}
    for (i, a, b, m), c in terms.items():
        mono = MultiPoly(_DELTA_VARS, {(a, b): Fraction(c)})
        expanded = mono * delta ** m
        for (ea, eb), ec in expanded.terms.items():
            key = (i, ea, eb)
            acc[key] = acc.get(key, Fraction(0)) + ec
    return TrivariatePoly(kind, ell, "E4E6", acc)


# ---------------------------------------------------------------------------
# Store format.  Header `CCR kind=<U|V|W|Ua|Phi> ell=<l> basis=<E4E6|AB|j|Delta>`
# then one term per line, exponents descending lexicographically; rationals
# as num/den, integers bare.


def _fmt(c: Fraction) -> str:
    return str(c)


def poly_to_text(obj, basis: str | None = None) -> str:
    if isinstance(obj, ClassicalModularPoly):
        lines = [f"CCR kind=Phi ell={obj.ell} basis=j"]
        for (i, k) in sorted(obj.terms, reverse=True):
            lines.append(f"{i} {k} 0 {obj.terms[(i, k)]}")
        return "\n".join(lines) + "\n"
    if basis == "Delta":
        terms = delta_display_terms(obj)
        lines = [f"CCR kind={obj.kind} ell={obj.ell} basis=Delta"]
        for key in sorted(terms, reverse=True):
            i, a, b, m = key
            lines.append(f"{i} {a} {b} {m} {_fmt(terms[key])}")
        return "\n".join(lines) + "\n"
    if basis is not None:
        obj = obj.to_basis(basis)
    lines = [f"CCR kind={obj.kind} ell={obj.ell} basis={obj.basis}"]
    for (i, a, b) in sorted(obj.terms, reverse=True):
        lines.append(f"{i} {a} {b} {_fmt(obj.terms[(i, a, b)])}")
    return "\n".join(lines) + "\n"


def store_header(text: str) -> tuple:
    """(kind, ell, basis) named by the first non-blank line of store text;
    StoreError when that line is not a well-formed header."""
    line = next((ln for ln in text.splitlines() if ln.strip()), "")
    try:
        if not line.startswith("CCR "):
            raise ValueError
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        kind, ell, basis = fields["kind"], int(fields["ell"]), fields["basis"]
    except (KeyError, ValueError):
        raise StoreError(f"malformed store header {line!r}") from None
    allowed = ("j",) if kind == "Phi" else BASES + ("Delta",)
    if kind not in KINDS + ("Phi",) or basis not in allowed:
        raise StoreError(f"unknown kind or basis in store header {line!r}")
    return kind, ell, basis


def poly_from_text(text: str):
    """Parse store text; a malformed header field or term line raises
    StoreError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("CCR "):
        raise ValueError("missing CCR header line")
    kind, ell, basis = store_header(lines[0])
    # Phi lines are "i k 0 c", Delta lines "i a b m c", the rest "i a b c"
    width, parse = ((3, int) if kind == "Phi" else
                    (4, Fraction) if basis == "Delta" else (3, Fraction))
    terms = {}
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if len(parts) != width + 1:
                raise ValueError
            key = tuple(map(int, parts[:width]))
            terms[key[:2] if kind == "Phi" else key] = parse(parts[width])
        except (ValueError, ZeroDivisionError):
            raise StoreError(f"malformed store line {ln!r}") from None
    if kind == "Phi":
        return ClassicalModularPoly(ell, terms)
    if basis == "Delta":
        return expand_delta_display(kind, ell, terms)
    return TrivariatePoly(kind, ell, basis, terms)
