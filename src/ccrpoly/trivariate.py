"""The kind registry, the polynomials of each kind, displays, store format.

A modular polynomial here is monic of degree ell+1 in X with coefficients
that are polynomials in (E4, E6).  Terms are kept sparse as
(i, a, b) -> Fraction meaning X^i * E4^a * E6^b.  The (A, B) form of the
curve normalization A = -3*E4, B = -2*E6, and the form over powers of
Delta, are displays of the same terms that only the store writer prints.

Weighted homogeneity: (E4, E6) weigh (2, 3); X weighs what its root
weighs, i.e. 1 for the sigma1 and eta-product kinds, 2 when the roots are
A*-values, 3 for B*-values.  Every monomial then has weighted degree
x_weight*(ell+1).
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import BuildError, StoreError
from .ffield import check_level

# levels whose Phi_ell the builder makes and the Elkies step checks against
PHI_ELLS = (2, 3, 5, 7, 11, 13)

# The kind registry: every fact about a kind, one row each.
#   x_weight  X's weight, that of the root it stands for: sigma1 1, A* 2,
#             B* 3, the eta product 1, j 0
#   bases     the bases `build` writes: the kind's one basis, which the
#             polynomial holds and the store reader takes, then displays
#   width     exponents in a term's key: (i, a, b), or (i, k) for X^i j^k
#   smooth    denominators may be 2^x 3^y; otherwise the terms are
#             integral in the AB basis (Phi's are integers)
#   mod12     the residue mod 12 the level must have, or None
#   ells      the levels, or () for every odd prime > 3
#   root      (value, e): the polynomial has a root whose e-th power is
#             that value of certify.CMVector; Ua's root f is known only
#             through f^12
Kind = namedtuple("Kind", "x_weight bases width smooth mod12 ells root")
KINDS = {
    "U": Kind(1, ("E4E6", "AB"), 3, False, None, (), ("sigma", 1)),
    "V": Kind(2, ("E4E6", "AB"), 3, False, None, (), ("a_star", 1)),
    "W": Kind(3, ("E4E6", "AB"), 3, False, None, (), ("b_star", 1)),
    # the eta product's coefficients are printed over powers of Delta
    "Ua": Kind(1, ("E4E6", "AB", "Delta"), 3, True, 11, (), ("f12", 12)),
    "Phi": Kind(0, ("j",), 2, False, None, PHI_ELLS, ("j_star", 1)),
}


def check_kind(kind: str, ell: int) -> Kind:
    """kind's row of KINDS; ValueError when kind is unknown or ell is not
    one of its levels."""
    row = KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown kind {kind!r}")
    if row.ells:
        if ell not in row.ells:
            raise ValueError(f"ell must be one of {row.ells}, got {ell}")
        return row
    check_level(ell)
    if row.mod12 is not None and ell % 12 != row.mod12:
        raise ValueError(f"ell must be {row.mod12} mod 12 for kind {kind}, "
                         f"got {ell}")
    return row


def _denominator_is_smooth(c: Fraction) -> bool:
    """Whether c's denominator d is of the form 2^x 3^y, that is divides
    6^k for k = bit_length(d), which bounds x and y."""
    return 6 ** c.denominator.bit_length() % c.denominator == 0


class _KindPoly:
    """A polynomial of a kind in KINDS: terms (i, ...) -> coefficient of
    X^i times a monomial in the kind's one basis, never changed after
    construction, so ``_fp`` can cache ffield's table of them per p."""

    __slots__ = ("kind", "ell", "terms", "_fp")

    def __init__(self, kind: str, ell: int, terms: dict):
        self.kind = kind
        self.ell = ell
        self.terms = terms
        self._fp = {}

    # the kind's one basis, read from its row: E4E6, or j for Phi
    basis = property(lambda self: KINDS[self.kind].bases[0])

    def degree_x(self) -> int:
        return max((key[0] for key in self.terms), default=-1)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.kind, self.ell, self.terms) == \
            (other.kind, other.ell, other.terms)

    def __repr__(self):
        return (f"{type(self).__name__}(kind={self.kind}, ell={self.ell}, "
                f"basis={self.basis}, {len(self.terms)} terms)")


class TrivariatePoly(_KindPoly):
    """Terms (i, a, b) -> Fraction, the coefficient of X^i E4^a E6^b."""

    __slots__ = ()

    def __init__(self, kind: str, ell: int, terms: dict):
        # Phi, whose one basis is j, is a ClassicalModularPoly
        if kind not in KINDS or kind == "Phi":
            raise ValueError(f"unknown kind {kind!r}")
        super().__init__(kind, ell,
                         {k: Fraction(v) for k, v in terms.items() if v})

    # -- structure --------------------------------------------------------

    @property
    def weighted_degree(self) -> int:
        return KINDS[self.kind].x_weight * (self.ell + 1)

    def validate(self) -> "TrivariatePoly":
        """Check monicity, X-degree, weighted homogeneity, and the
        denominators: integral in the AB basis, or 2^x 3^y for Ua."""
        n = self.ell + 1
        if self.degree_x() != n:
            raise BuildError(f"{self.kind}_{self.ell}: X-degree "
                             f"{self.degree_x()} != {n}")
        if self.terms.get((n, 0, 0)) != 1 or any(
                i == n and (a or b) for (i, a, b) in self.terms):
            raise BuildError(f"{self.kind}_{self.ell}: not monic in X")
        w = KINDS[self.kind].x_weight
        for (i, a, b) in self.terms:
            if w * i + 2 * a + 3 * b != self.weighted_degree:
                raise BuildError(
                    f"{self.kind}_{self.ell}: monomial ({i},{a},{b}) breaks "
                    f"weighted homogeneity {w}*i+2a+3b={self.weighted_degree}")
        if KINDS[self.kind].smooth:
            if not all(map(_denominator_is_smooth, self.terms.values())):
                raise BuildError(f"{self.kind}_{self.ell}: denominator not "
                                 f"of the form 2^x 3^y")
        # c E4^a E6^b reads (-1)^(a+b) c / (3^a 2^b) A^a B^b, an integer
        # exactly when c is one and 3^a 2^b divides it
        elif not self.is_integral() or any(
                c.numerator % (3 ** a * 2 ** b)
                for (_, a, b), c in self.terms.items()):
            raise BuildError(f"{self.kind}_{self.ell}: non-integer "
                             f"coefficients in AB basis")
        return self

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- display -----------------------------------------------------------

    def to_basis(self, basis: str) -> dict:
        """The AB display, the terms read on A^a B^b: as E4 = -A/3 and
        E6 = -B/2, c E4^a E6^b reads (-1)^(a+b) c / (3^a 2^b) A^a B^b."""
        if basis != "AB":
            raise ValueError(f"unknown basis {basis!r}")
        return {(i, a, b): c * Fraction((-1) ** (a + b), 3 ** a * 2 ** b)
                for (i, a, b), c in self.terms.items()}

    # -- calculus ----------------------------------------------------------

    def partial(self, slot: int) -> "TrivariatePoly":
        """Partial derivative in slot 0 (X), 1 (E4) or 2 (E6).  The result
        is carried in the same kind record; it is no longer monic and its
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
        return TrivariatePoly(self.kind, self.ell, out)


class ClassicalModularPoly(_KindPoly):
    """The symmetric modular polynomial relating j-invariants of
    ell-isogenous curves: kind Phi in the basis j, terms (i, k) ->
    integer coefficient of X^i j^k."""

    __slots__ = ()

    def __init__(self, ell: int, terms: dict):
        super().__init__("Phi", ell, {k: v for k, v in terms.items() if v})

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


# ---------------------------------------------------------------------------
# Delta display: factor the largest possible power of
# Delta = (E4^3 - E6^2)/1728 out of each X-coefficient.


def delta_display_terms(poly: TrivariatePoly) -> dict:
    """Rewrite a polynomial in E4, E6 as (i, a, b, m) -> coeff of
    X^i E4^a E6^b Delta^m, m maximal per X-coefficient E4^a0 E6^b0 G:
    G(U, V) = sum of g_t U^(d-t) V^t with U = E4^3, V = E6^2.  As
    1728 Delta = U - V, synthetic division by U - V goes through while
    the g_t sum to 0, and leaves their partial sums."""
    coeffs: dict = {}
    for (i, a, b), c in poly.terms.items():
        coeffs.setdefault(i, {})[(a, b)] = c
    out: dict = {}
    for i, xc in coeffs.items():
        a, b = next(iter(xc))
        a0, b0 = a % 3, b % 2
        d = a // 3 + b // 2
        g = [xc.get((a0 + 3 * (d - t), b0 + 2 * t), 0) for t in range(d + 1)]
        m = 0
        while not sum(g):
            g = list(accumulate(g))[:-1]
            m += 1
        for t, c in enumerate(g):
            if c:
                out[(i, a0 + 3 * (d - m - t), b0 + 2 * t, m)] = c * 1728 ** m
    return out


# ---------------------------------------------------------------------------
# Store format.  Header `CCR kind=<U|V|W|Ua|Phi> ell=<l> basis=<basis>`, then
# one term per line, keys strictly descending, every line ending in "\n";
# rationals as num/den, integers bare.  The writer prints any of the kind's
# bases in KINDS, by default the one the polynomial holds, the others as
# displays of it (AB, Delta), and refuses any other basis with a
# ValueError; the reader takes only the first, and each line only as the
# writer prints what it parses to.  A number in another form (exponents,
# "+", "_", ".") is refused before int or Fraction sees it:
# Fraction("1e999999999") would expand 10**999999999.


def _term_line(key: tuple, c) -> str:
    # Phi's (i, k) keys are written i k 0, the Delta display's
    # (i, a, b, m) in full
    return " ".join(map(str, (*key, *(0,) * (3 - len(key)), c)))


def poly_to_text(obj, basis: str | None = None) -> str:
    basis = basis or obj.basis
    if basis not in KINDS[obj.kind].bases:
        raise ValueError(f"unknown basis {basis!r}")
    terms = (obj.terms if basis == obj.basis
             else delta_display_terms(obj) if basis == "Delta"
             else obj.to_basis(basis))
    lines = [f"CCR kind={obj.kind} ell={obj.ell} basis={basis}"]
    lines += [_term_line(key, terms[key])
              for key in sorted(terms, reverse=True)]
    return "\n".join(lines) + "\n"


# a header and a term line in the writer's form; digits only, so no other
# number form reaches int or Fraction.  A level has at most 9 digits, far
# past any the package builds, so no interpreter's digit limit on int()
# is reached outside the reader's error mapping
_HEADER = re.compile(r"CCR kind=(\S+) ell=(0|[1-9][0-9]{0,8}) basis=(\S+)")
_TERM = re.compile(r"([0-9]+ ){3}-?[0-9]+(/[0-9]+)?")


def _fraction(text: str) -> Fraction:
    """The coefficient a term line writes as n or n/d, from two ints."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def poly_from_text(text: str):
    """Parse store text in its kind's cached basis, exactly as
    poly_to_text writes it: a header or term line in any other form (a
    number written otherwise, a zero term, keys out of order or repeated,
    blank lines, no final newline, among them) raises StoreError."""
    lines = text.split("\n")
    header = lines[0]
    found = _HEADER.fullmatch(header)
    if found is None:
        raise StoreError(f"malformed store header {header!r}")
    kind, ell, basis = found[1], int(found[2]), found[3]
    if kind not in KINDS or basis != KINDS[kind].bases[0]:
        raise StoreError(f"unknown kind or basis in store header {header!r}")
    # every line ends in "\n", so the split leaves one "" after the last
    if lines[-1]:
        raise StoreError(f"malformed store line {lines[-1]!r}")
    width = KINDS[kind].width
    parse = int if basis == "j" else _fraction
    terms, last = {}, None
    for ln in lines[1:-1]:
        try:
            if not _TERM.fullmatch(ln):
                raise ValueError
            *key, c = ln.split(" ")
            key, c = tuple(map(int, key[:width])), parse(c)
            # keys strictly descend, so none repeats
            if not c or last and key >= last or _term_line(key, c) != ln:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise StoreError(f"malformed store line {ln!r}") from None
        terms[key] = c
        last = key
    if basis == "j":
        return ClassicalModularPoly(ell, terms)
    return TrivariatePoly(kind, ell, terms)
