"""Prime-field scalars, dense univariate polynomials, and curve-side
specialization.

Everything downstream of the polynomial builders happens here: reducing
a store polynomial at a curve (A, B) to a univariate in X, finding
its roots in F_p, and evaluating the partial-derivative bundle at a
chosen root.

fp_table reduces a polynomial's exact coefficients into F_p once per
prime and keeps the table on the polynomial; collapse is the one reader
of that table, and every evaluation at a curve or a root goes through it
and runs over plain ints.

Field elements are canonical ints in [0, p).  The PrimeField object
owns the modulus and counts modular multiplications and inversions,
including those performed inside polynomial arithmetic; the complexity
checks read these counters.  Polynomial arithmetic is counted in
schoolbook units, whatever algorithm does the work: a product of
lengths m and n inside powmod adds m*n, and reducing a length-n
polynomial by a degree-d modulus adds (n - d)*d.  The evaluators that
read a compiled table count per table term and per power they take, as
the PrimeField docstring lists.  Polynomials are dense coefficient
lists, lowest degree first, trailing zeros stripped.

Products of polynomials happen only inside powmod, by Kronecker
substitution: the coefficients are packed into one integer, one slot
each, the integers are multiplied, and the slots of the product are
the coefficients of the polynomial product, reduced mod p.  Slots of up
to 8 bytes are packed as machine words, one C call each way.  Division
and Euclid's gcd run on plain coefficient lists, counted in the units
above; division takes two quotient digits per pass over the remainder,
so a Euclid step, whose quotient mostly has two digits, is one pass.
roots makes its splitting generator only when a factor splits, which
few calls reach.
"""

import operator
import random
import sys
from array import array
from collections import namedtuple
from itertools import chain, zip_longest
from math import isqrt

from .errors import SingularCurve

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_BASES
_PSI_13 = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact below psi_13 =
    3317044064679887385961981.  From psi_13 on, a strong Lucas test is
    added, making the test Baillie-PSW, which has no known
    counterexample; fixed bases alone can be beaten (Arnault 1995).
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for
    odd n free of prime factors up to 41: D is the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 =
    k*2^s, k odd, n passes when U_k = 0 or V_(k*2^r) = 0 for some r < s
    (Baillie and Wagstaff 1980)."""
    if isqrt(n) ** 2 == n:
        return False            # no D would be found for a square
    d = 5
    while (jac := _jacobi(d, n)) == 1:
        d = 2 - d if d < 0 else -d - 2
    if jac == 0:
        return False            # gcd(D, n) is a proper factor
    q = (1 - d) // 4
    k = (n + 1) >> 1
    s = 1
    while k % 2 == 0:
        k //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    # left-to-right binary ladder on (U_i, V_i, Q^i), starting at i = 0
    u, v, qk = 0, 2, 1
    for bit in bin(k)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = half(u + v), half(d * u + v)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def check_level(ell: int) -> None:
    """ValueError unless ell is an odd prime > 3: the levels the builders
    and the level-dependent q-expansions accept."""
    if not (is_probable_prime(ell) and ell > 3):
        raise ValueError(f"ell must be an odd prime > 3, got {ell}")


class PrimeField:
    """Arithmetic mod a prime p > 3, with operation counting.

    mul_count counts modular multiplications.  Polynomial arithmetic
    adds in schoolbook units, independent of the algorithm used: a
    product of lengths m and n inside powmod adds m*n, reducing a
    length-n polynomial by a degree-d modulus adds (n - d)*d, plus n - d
    for the quotient digits when the modulus is not monic, and making a
    length-n polynomial monic adds n.  Reading a compiled table of T
    terms adds one per power taken and 2T per collapse: specialize is
    one collapse, derivative_bundle six, plus one per power for each of
    its slope tables k*v^(k-1) and k(k-1)*v^(k-2) and 10 per power of X
    for its dot products.  An exponentiation x^e adds e.bit_length() +
    popcount(e) - 2, its square-and-multiply steps; roots adds one such
    exponentiation and 4 more per degree-2 factor it solves in closed
    form.
    inv_count counts inversions, one per coefficient denominator when a
    table is compiled.
    """

    __slots__ = ("p", "mul_count", "inv_count")

    def __init__(self, p: int):
        if p <= 3:
            raise ValueError("p must exceed 3")
        if not is_probable_prime(p):
            raise ValueError("p not prime")
        self.p = p
        self.mul_count = 0
        self.inv_count = 0

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero mod p")
        self.inv_count += 1
        return pow(a, -1, self.p)

    def pow(self, x: int, e: int) -> int:
        """x^e for e >= 1, counted as square and multiply."""
        self.mul_count += e.bit_length() + bin(e).count("1") - 2
        return pow(x, e, self.p)

    def powers(self, x: int, n: int) -> list:
        """[1, x, ..., x^n] with counted multiplications."""
        p = self.p
        out = [1]
        for _ in range(n):
            out.append(out[-1] * x % p)
        self.mul_count += n
        return out

    def __repr__(self):
        return f"PrimeField({self.p})"


def _slot_bytes(p: int, terms: int) -> int:
    """Bytes per slot that hold a sum of `terms` products of residues,
    at least 8: such a slot is one machine word."""
    return max(8, ((terms * (p - 1) ** 2).bit_length() + 7) // 8)


def _pack(coeffs, width: int) -> int:
    """Kronecker substitution: coefficient i goes in bytes
    [i*width, (i+1)*width) of one little-endian integer; on a
    little-endian host 8-byte slots are packed as one array of machine
    words."""
    if width == 8 and sys.byteorder == "little":
        return int.from_bytes(array("Q", coeffs).tobytes(), "little")
    return int.from_bytes(b"".join([c.to_bytes(width, "little")
                                    for c in coeffs]), "little")


def _unpack(v: int, width: int, n: int) -> list:
    """The first n slots of a packed integer, unreduced; on a
    little-endian host 8-byte slots are read as one array of machine
    words."""
    raw = v.to_bytes(n * width, "little")
    if width == 8 and sys.byteorder == "little":
        return array("Q", raw).tolist()
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, n * width, width)]


def _divmod_lists(fld: PrimeField, a: list, b: list) -> tuple:
    """(quotient, stripped remainder) of coefficient lists, b stripped
    and nonzero, counted by the PrimeField rule for a reduction.

    Quotient digits come two at a time: the upper digit c1 is read from
    the top slot, the lower c0 from the slot under it as c1 leaves it,
    and one pass subtracts both, r_j - c1*b_(j-1) - c0*b_j.  A leftover
    odd digit takes a one-digit pass, so a Euclid step whose divisor is
    one degree lower walks its remainder once.
    """
    p = fld.p
    db = len(b) - 1
    r = list(a)
    if len(r) <= db:
        return [], r
    inv_lead = 1 if b[-1] == 1 else fld.inv(b[-1])
    steps = len(r) - db
    fld.mul_count += steps * db + (steps if inv_lead != 1 else 0)
    q = [0] * steps
    # b's next-to-leading coefficient: c1 times it lands in c0's slot
    b_next = b[db - 1] if db else 0
    k = steps - 1
    while k > 0:
        c1 = r[k + db] * inv_lead % p
        c0 = (r[k + db - 1] - c1 * b_next) * inv_lead % p
        q[k - 1:k + 1] = c0, c1
        if c1 or c0:
            # zip stops at db: c0's slots below its top, which it clears
            r[k - 1:k - 1 + db] = [
                (u - c1 * s - c0 * v) % p
                for u, s, v in zip(r[k - 1:k - 1 + db], chain((0,), b), b)]
        k -= 2
    if k == 0:
        c = r[db] * inv_lead % p
        if c:
            q[0] = c
            # zip stops at db, before b's leading coefficient
            r[:db] = [(u - c * v) % p for u, v in zip(r[:db], b)]
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return q, r


class UniPoly:
    """Dense univariate polynomial over a prime field.

    Coefficients run lowest degree first; the zero polynomial is the
    empty list.  It has what root finding runs: difference, division
    with remainder, gcd, powmod and evaluation; products of polynomials
    happen only inside powmod.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        p = field.p
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = c

    @classmethod
    def x(cls, field: PrimeField) -> "UniPoly":
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field.p == other.field.p and self.coeffs == other.coeffs

    def __sub__(self, other):
        return UniPoly(self.field, [a - b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)])

    def __divmod__(self, other):
        fld = self.field
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q, r = _divmod_lists(fld, self.coeffs, other.coeffs)
        return UniPoly(fld, q), UniPoly(fld, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        inv_lead = self.field.inv(self.coeffs[-1])
        self.field.mul_count += len(self.coeffs)
        return UniPoly(self.field, [c * inv_lead for c in self.coeffs])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        fld = self.field
        a, b = self.coeffs, other.coeffs
        while b:
            a, b = b, _divmod_lists(fld, a, b)[1]
        return UniPoly(fld, a).monic()

    def powmod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        """self^e mod modulus by left-to-right square-and-multiply.

        Each step squares a packed integer and folds the high half back
        with a table of the packed rows X^(d+k) mod f, k = 0..d-2, built
        once per call for the monic modulus f of degree d.  The slots of
        the running value stay unreduced until one pass of % p at the
        end of the step, so a step costs O(d) Python operations.  When
        the base is X the multiply is a one-slot shift plus one row.
        """
        if e < 0:
            raise ValueError("negative exponent")
        fld = self.field
        p = fld.p
        f = modulus.monic()
        d = f.degree
        if e == 0 or d <= 0:
            return UniPoly(fld, [1]) % f
        base = (self % f).coeffs
        # a slot holds at most d products, and a fold adds at most d more
        width = _slot_bytes(p, 2 * d)
        bits = 8 * width
        low_mask = (1 << (d * bits)) - 1
        top_mask = (1 << ((d - 1) * bits)) - 1
        # rows[k] = X^(d+k) mod f, each from the last by X*r = shift + one row
        row = row0 = [-c % p for c in f.coeffs[:d]]
        rows = [_pack(row, width)]
        for _ in range(d - 2):
            lead = row[-1]
            row = [(a + lead * b) % p
                   for a, b in zip(chain((0,), row), row0)]
            rows.append(_pack(row, width))
        units = 0

        def fold(v: int, n: int) -> int:
            """Reduce the n packed slots of v to d unreduced slots."""
            nonlocal units
            if n <= d:
                return v
            units += (n - d) * d
            low = v & low_mask
            high = _unpack(v >> (d * bits), width, n - d)
            for c, r in zip(high, rows):
                c %= p
                if c:
                    low += c * r
            return low

        def canonical(v: int) -> list:
            out = [c % p for c in _unpack(v, width, d)]
            while out and out[-1] == 0:
                out.pop()
            return out

        x_base = base == [0, 1]
        pbase = _pack(base, width)
        result = [1]
        for bit in bin(e)[2:]:
            m = len(result)
            units += m * m
            pr = _pack(result, width)
            v = fold(pr * pr, 2 * m - 1)
            if bit == "1" and x_base:
                # X*r for the remainder r of the square: slot d-1 holds
                # r's X^(d-1) coefficient t, which moves up to X^d and
                # folds with rows[0]; r has length d exactly when t != 0
                t = (v >> ((d - 1) * bits)) % p
                result = canonical(((v & top_mask) << bits) + t * rows[0])
                m = d if t else max(len(result) - 1, 0)
                units += 2 * m + (d if t else 0)
                continue
            result = canonical(v)
            if bit == "1":
                m = len(result)
                units += m * len(base)
                pr = _pack(result, width)
                result = canonical(fold(pr * pbase, m + len(base) - 1))
        fld.mul_count += units
        return UniPoly(fld, result)

    def evaluate(self, x: int) -> int:
        fld = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % fld.p
        fld.mul_count += max(0, len(self.coeffs) - 1)
        return acc

    def __repr__(self):
        return f"UniPoly(p={self.field.p}, coeffs={self.coeffs})"


def roots(f: UniPoly) -> list:
    """All distinct roots of f in F_p, sorted ascending.

    gcd(X^p - X, f) isolates the product of distinct linear factors.
    When p = 3 (mod 4) a factor of degree 2 is solved by the quadratic
    formula, the square root of its discriminant taken as disc^((p+1)/4);
    every other factor goes through equal-degree splitting, whose random
    shifts come from a generator seeded with the constant 0, so every
    call on the same f takes the same path.  The generator is made on
    the first factor that splits.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    fld = f.field
    p = fld.p
    x = UniPoly.x(fld)
    if f.degree == 0:
        return []
    lin = (x.powmod(p, f) - x).gcd(f)
    rng = None
    found = []
    stack = [lin]
    while stack:
        h = stack.pop()
        d = h.degree
        if d <= 0:
            continue
        if d == 1:
            # h is monic X + c, root is -c
            found.append((p - h.coeffs[0]) % p)
            continue
        if d == 2 and p % 4 == 3:
            # h = X^2 + bX + c splits, so its discriminant is a nonzero square
            c, b = h.coeffs[:2]
            disc = (b * b - 4 * c) % p
            s = fld.pow(disc, (p + 1) // 4)
            if s * s % p != disc:
                raise ValueError(f"{disc} is not a square mod {p}")
            half = (p + 1) // 2
            found += [(s - b) * half % p, (-s - b) * half % p]
            fld.mul_count += 4
            continue
        if rng is None:
            # made on the first factor that splits: most calls have none
            rng = random.Random(0)
            one = UniPoly(fld, [1])
        while True:
            shift = UniPoly(fld, [rng.randrange(p), 1])
            g = (shift.powmod((p - 1) // 2, h) - one).gcd(h)
            if 0 < g.degree < d:
                stack.append(g)
                stack.append(h // g)
                break
    return sorted(found)


class CurveParams:
    """A nonsingular short Weierstrass curve Y^2 = X^3 + AX + B."""

    __slots__ = ("field", "A", "B", "e4", "e6")

    def __init__(self, field: PrimeField, A: int, B: int):
        p = field.p
        A %= p
        B %= p
        if (4 * A * A * A + 27 * B * B) % p == 0:
            raise SingularCurve(f"4A^3 + 27B^2 = 0 mod {p}")
        self.field = field
        self.A = A
        self.B = B
        # normalized Eisenstein values: E4 = -A/3, E6 = -B/2
        self.e4 = -A * field.inv(3) % p
        self.e6 = -B * field.inv(2) % p

    def j_invariant(self) -> int:
        p = self.field.p
        c4 = pow(self.e4, 3, p)
        c6 = pow(self.e6, 2, p)
        return 1728 * c4 * self.field.inv(c4 - c6) % p

    def __repr__(self):
        return f"CurveParams(p={self.field.p}, A={self.A}, B={self.B})"


DerivativeBundle = namedtuple("DerivativeBundle", "u du_s du_4 du_6 du_s4 "
                              "du_s6 du_46 du_ss du_44 du_66")
DerivativeBundle.__doc__ = """Value and partials of a trivariate polynomial
at (root, E4, E6), each a residue in [0, p).

du_s is the partial in the X slot (the sigma or f direction), du_4 and
du_6 the E4 and E6 partials, du_s4/du_s6/du_46 the mixed seconds and
du_ss/du_44/du_66 the diagonal seconds.  u is the value itself and must
be zero.
"""


def fp_table(P, fld: PrimeField) -> tuple:
    """P's terms reduced into F_p, compiled once per (P, p) and kept on P.

    The table is (terms, tops): one (i, a, b, c) per nonzero coefficient
    c of X^i E4^a E6^b mod p, or (i, k, 0, c) for X^i j^k of Phi, as
    their store lines read; tops holds each slot's maximal exponent.
    This is the package's one reduction of a Fraction into F_p.
    """
    p = fld.p
    table = P._fp.get(p)
    if table is None:
        if p == P.ell:
            raise ValueError("p equals the level ell")
        inv = {1: 1}
        terms = []
        for key, c in P.terms.items():
            if c.denominator not in inv:
                inv[c.denominator] = fld.inv(c.denominator)
            c = c.numerator * inv[c.denominator] % p
            if c:
                # Phi's (i, k) keys take a zero third exponent
                terms.append((*key, *(0,) * (3 - len(key)), c))
        tops = tuple(map(max, zip(*terms)))[:-1]
        table = P._fp[p] = (tuple(terms), tops)
    return table


def collapse(P, fld: PrimeField, keep: int, t1: list, t2: list) -> list:
    """The one reader of P's table: entry e sums c * t1[m] * t2[n], left
    unreduced mod p, over the terms with exponent e in slot keep and
    m, n in the other two slots; t1, t2 are power or slope tables."""
    terms, tops = fp_table(P, fld)
    others = [s for s in (0, 1, 2) if s != keep]
    rows = terms if keep == 0 else map(
        operator.itemgetter(keep, *others, 3), terms)
    out = [0] * (tops[keep] + 1)
    for e, m, n, c in rows:
        out[e] += c * t1[m] * t2[n]
    fld.mul_count += 2 * len(terms)
    return out


def specialize(P, curve: CurveParams) -> UniPoly:
    """Reduce a store polynomial at a curve to a univariate in X.

    A CCR kind's table, in E4 and E6, is read at (-A/3, -B/2); Phi's,
    in j, is read at the curve's j, which gives Phi(X, j).
    """
    fld = curve.field
    _, (_, dy, dz) = fp_table(P, fld)
    # Phi's third exponent is always 0, so its E6 power table is [1]
    y = curve.j_invariant() if P.kind == "Phi" else curve.e4
    return UniPoly(fld, collapse(P, fld, 0, fld.powers(y, dy),
                                 fld.powers(curve.e6, dz)))


def derivative_bundle(P, curve: CurveParams, root: int) -> DerivativeBundle:
    """First and second partials of P at (root, -A/3, -B/2).

    Six collapses onto X give, per power X^i, its (E4, E6) coefficient
    and that coefficient's E4, E6, E4E6, E4E4 and E6E6 partials; the
    root's power, slope and second-slope tables then give all ten
    entries.

    Raises ValueError for Phi, which has no E4 or E6 slot, or at a point
    that is not a root: either is a caller logic error, not bad input.
    """
    if P.kind == "Phi":
        raise ValueError("Phi has no E4, E6 partials: it is read at j")
    fld = curve.field
    p = fld.p
    _, (dx, dy, dz) = fp_table(P, fld)
    xs = fld.powers(root % p, dx)
    ys = fld.powers(curve.e4, dy)
    zs = fld.powers(curve.e6, dz)

    def slope(vs) -> list:
        # entry k is k * vs[k-1]: k * v^(k-1), the derivative of v^k, from
        # a power table, and k(k-1) * v^(k-2) from a slope table
        return [0] + [k * v % p for k, v in enumerate(vs[:-1], 1)]

    dxs, dys, dzs = map(slope, (xs, ys, zs))
    ddxs, ddys, ddzs = map(slope, (dxs, dys, dzs))
    g, g4, g6, g46, g44, g66 = (
        collapse(P, fld, 0, t1, t2) for t1, t2 in
        ((ys, zs), (dys, zs), (ys, dzs), (dys, dzs), (ddys, zs), (ys, ddzs)))
    fld.mul_count += 2 * (dx + dy + dz) + 10 * (dx + 1)

    def dot(coeffs, powers) -> int:
        return sum(map(operator.mul, coeffs, powers)) % p

    u = dot(g, xs)
    if u != 0:
        raise ValueError(f"{root} is not a root of the specialized polynomial")
    return DerivativeBundle(
        u=u,
        du_s=dot(g, dxs),
        du_4=dot(g4, xs),
        du_6=dot(g6, xs),
        du_s4=dot(g4, dxs),
        du_s6=dot(g6, dxs),
        du_46=dot(g46, xs),
        du_ss=dot(g, ddxs),
        du_44=dot(g44, xs),
        du_66=dot(g66, xs),
    )
