"""Prime-field scalars, dense univariate polynomials, and curve-side
specialization.

Everything downstream of the polynomial builders happens here: reducing
a trivariate polynomial at a curve (A, B) to a univariate in X, finding
its roots in F_p, evaluating the partial-derivative bundle at a chosen
root, and the division polynomials f_n.

fp_table reduces a polynomial's exact coefficients into F_p once per
prime and keeps the table on the polynomial; every evaluation at a
curve or a root reads that table and runs over plain ints.

Field elements are canonical ints in [0, p).  The PrimeField object
owns the modulus and counts modular multiplications and inversions,
including those performed inside polynomial arithmetic; the complexity
checks read these counters.  Polynomial arithmetic is counted in
schoolbook units, whatever algorithm does the work: a product of
polynomials of lengths m and n adds m*n, and reducing a length-n
polynomial by a degree-d modulus adds (n - d)*d.  The evaluators that
read a compiled table count per table term and per power they take, as
the PrimeField docstring lists.  Polynomials are dense coefficient
lists, lowest degree first, trailing zeros stripped.

Products of polynomials go through Kronecker substitution: the
coefficients are packed into one integer, one slot each, the integers
are multiplied, and the slots of the product are the coefficients of
the polynomial product, reduced mod p.
"""

import operator
import random
from collections import namedtuple

from .errors import SingularCurve
from .trivariate import TrivariatePoly

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set.

    Deterministic below 3.3e24; for larger n the bases act as strong
    probabilistic witnesses.
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
    return True


class PrimeField:
    """Arithmetic mod a prime p > 3, with operation counting.

    mul_count counts modular multiplications.  Polynomial arithmetic
    adds in schoolbook units, independent of the algorithm used: a
    product of polynomials of lengths m and n adds m*n, and reducing a
    length-n polynomial by a degree-d modulus adds (n - d)*d, plus n - d
    for the quotient digits when the modulus is not monic.  The
    evaluators over a compiled table of T terms add one per power they
    take; specialize adds 2T, derivative_bundle one per slope k*v^(k-1)
    plus 6T plus 7 per power of X.  An exponentiation x^e adds
    e.bit_length() + popcount(e) - 2, its square-and-multiply steps;
    sqrt adds its exponentiations plus one per further squaring or
    product, and roots adds 3 more per degree-2 factor it solves.
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

    def sqrt(self, a: int) -> int:
        """A square root of a: a^((p+1)/4) when p = 3 (mod 4), Tonelli-Shanks
        with the least non-residue otherwise.  ValueError when a is not a
        square."""
        p = self.p
        a %= p
        if p % 4 == 3 or a == 0:
            r = self.pow(a, (p + 1) // 4)
            self.mul_count += 1
            if r * r % p != a:
                raise ValueError(f"{a} is not a square mod {p}")
            return r
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.pow(z, (p - 1) // 2) != p - 1:
            z += 1
        c, t, r = self.pow(z, q), self.pow(a, q), self.pow(a, (q + 1) // 2)
        # invariants: c has order 2^s, t has order 2^i with i < s, r^2 = a*t
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            if i == s:
                raise ValueError(f"{a} is not a square mod {p}")
            b = c
            for _ in range(s - i - 1):
                b = b * b % p
            self.mul_count += s + 2
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r

    def powers(self, x: int, n: int) -> list:
        """[1, x, ..., x^n] with counted multiplications."""
        p = self.p
        out = [1]
        for _ in range(n):
            out.append(out[-1] * x % p)
        self.mul_count += n
        return out

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def _slot_bytes(p: int, terms: int) -> int:
    """Bytes per slot that hold a sum of `terms` products of residues."""
    return ((terms * (p - 1) ** 2).bit_length() + 7) // 8


def _pack(coeffs, width: int) -> int:
    """Kronecker substitution: coefficient i goes in bytes
    [i*width, (i+1)*width) of one little-endian integer."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little")
                                    for c in coeffs]), "little")


def _unpack(v: int, width: int, n: int) -> list:
    """The first n slots of a packed integer, unreduced."""
    raw = v.to_bytes(n * width, "little")
    return [int.from_bytes(raw[i:i + width], "little")
            for i in range(0, n * width, width)]


class UniPoly:
    """Dense univariate polynomial over a prime field.

    Coefficients run lowest degree first; the zero polynomial is the
    empty list.  Arithmetic accepts int scalars on either side.
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

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, int):
            return UniPoly(self.field, [other])
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.p == other.field.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, tuple(self.coeffs)))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly(fld, [])
        fld.mul_count += len(a) * len(b)
        width = _slot_bytes(fld.p, min(len(a), len(b)))
        pa = _pack(a, width)
        # the same object on both sides lets the int product square
        pb = pa if b is a else _pack(b, width)
        return UniPoly(fld, _unpack(pa * pb, width, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly(self.field, [1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        p = fld.p
        b = other.coeffs
        db = len(b) - 1
        r = list(self.coeffs)
        if len(r) <= db:
            return UniPoly(fld, []), UniPoly(fld, r)
        inv_lead = 1 if b[-1] == 1 else fld.inv(b[-1])
        steps = len(r) - db
        fld.mul_count += steps * db + (steps if inv_lead != 1 else 0)
        q = [0] * steps
        for k in range(steps - 1, -1, -1):
            c = r[k + db] * inv_lead % p
            if c == 0:
                continue
            q[k] = c
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % p
        return UniPoly(fld, q), UniPoly(fld, r[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        inv_lead = self.field.inv(self.coeffs[-1])
        return self * inv_lead

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

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
            row = [(a + lead * b) % p for a, b in zip([0] + row[:-1], row0)]
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


def roots(f: UniPoly, seed) -> list:
    """All distinct roots of f in F_p, sorted ascending.

    gcd(X^p - X, f) isolates the product of distinct linear factors.
    A factor of degree 2 is solved by the quadratic formula; larger
    ones go through seeded equal-degree splitting.  The result does not
    depend on the seed; only the internal path does.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    fld = f.field
    p = fld.p
    x = UniPoly.x(fld)
    if f.degree == 0:
        return []
    lin = (x.powmod(p, f) - x).gcd(f)
    rng = random.Random(seed)
    one = UniPoly(fld, [1])
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
        if d == 2:
            # h = X^2 + bX + c splits, so its discriminant is a nonzero square
            c, b = h.coeffs[:2]
            s = fld.sqrt((b * b - 4 * c) % p)
            half = (p + 1) // 2
            found += [(s - b) * half % p, (-s - b) * half % p]
            fld.mul_count += 3
            continue
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


DerivativeBundle = namedtuple("DerivativeBundle",
                              "u du_s du_4 du_6 du_s4 du_s6 du_46")
DerivativeBundle.__doc__ = """Value and partials of a trivariate polynomial
at (root, E4, E6), each a residue in [0, p).

du_s is the partial in the X slot (the sigma or f direction), du_4 and
du_6 the E4 and E6 partials, du_s4/du_s6/du_46 the mixed seconds.  u is
the value itself and must be zero.
"""


def fp_table(P, fld: PrimeField) -> tuple:
    """P's terms reduced into F_p, compiled once per (P, p) and kept on P.

    The table is (terms, tops): one (i, a, b, c) per nonzero coefficient
    c of X^i E4^a E6^b mod p, in the E4E6 basis whatever basis P is
    stored in, or (i, k, c) for X^i j^k of Phi; tops holds each
    variable's maximal exponent.  This is the package's one reduction of
    a Fraction into F_p.
    """
    p = fld.p
    table = P._fp.get(p)
    if table is None:
        if p == P.ell:
            raise ValueError("p equals the level ell")
        src = P
        if isinstance(P, TrivariatePoly) and P.basis != "E4E6":
            src = P.to_basis("E4E6")
        inv = {1: 1}
        terms = []
        for key, c in src.terms.items():
            if c.denominator not in inv:
                inv[c.denominator] = fld.inv(c.denominator)
            c = c.numerator * inv[c.denominator] % p
            if c:
                terms.append((*key, c))
        tops = tuple(map(max, zip(*terms)))[:-1]
        table = P._fp[p] = (tuple(terms), tops)
    return table


def specialize(P, curve: CurveParams) -> UniPoly:
    """Reduce a trivariate polynomial at a curve to a univariate in X.

    Either stored basis gives the same result: the table is in the E4E6
    basis, read at (-A/3, -B/2), which is the AB basis read at (A, B).
    """
    fld = curve.field
    terms, (dx, dy, dz) = fp_table(P, fld)
    ys = fld.powers(curve.e4, dy)
    zs = fld.powers(curve.e6, dz)
    out = [0] * (dx + 1)
    for i, a, b, c in terms:
        out[i] += c * ys[a] * zs[b]
    fld.mul_count += 2 * len(terms)
    return UniPoly(fld, out)


def derivative_bundle(P, curve: CurveParams, root: int) -> DerivativeBundle:
    """First and mixed-second partials of P at (root, -A/3, -B/2).

    One pass over P's table sums, per power X^i, its (E4, E6) coefficient
    and that coefficient's E4, E6 and E4E6 partials; the root's power and
    slope tables then give all seven entries.

    Raises ValueError when the given point is not actually a root;
    that always signals a caller logic error, not bad input data.
    """
    fld = curve.field
    p = fld.p
    terms, (dx, dy, dz) = fp_table(P, fld)
    xs = fld.powers(root % p, dx)
    ys = fld.powers(curve.e4, dy)
    zs = fld.powers(curve.e6, dz)
    # slopes: entry k is k * v^(k-1), the derivative of v^k
    dxs, dys, dzs = ([0] + [k * v % p for k, v in enumerate(vs[:-1], 1)]
                     for vs in (xs, ys, zs))
    g, g4, g6, g46 = ([0] * (dx + 1) for _ in range(4))
    for i, a, b, c in terms:
        cz = c * zs[b]
        cdz = c * dzs[b]
        g[i] += cz * ys[a]
        g4[i] += cz * dys[a]
        g6[i] += cdz * ys[a]
        g46[i] += cdz * dys[a]
    fld.mul_count += dx + dy + dz + 6 * len(terms) + 7 * (dx + 1)

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
    )


_DPOLY_VARS = ("X", "A", "B")


def division_poly(n: int, curve: CurveParams = None):
    """The n-division polynomial f_n with the curve relation folded in.

    f_n = psi_n for odd n and psi_n/(2Y) for even n, so f_n is a
    polynomial in X alone; the leading coefficient is n for odd n and
    n/2 for even n.  With a curve the result is a UniPoly, without one
    an exact polynomial in (X, A, B).
    """
    if n < -1:
        raise ValueError("n must be at least -1")
    if n > 30:
        raise ValueError("n beyond supported range")
    if curve is None:
        from .symbolic import MultiPoly
        x = MultiPoly.gen(_DPOLY_VARS, "X")
        a = MultiPoly.gen(_DPOLY_VARS, "A")
        b = MultiPoly.gen(_DPOLY_VARS, "B")
    else:
        fld = curve.field
        x = UniPoly.x(fld)
        a = UniPoly(fld, [curve.A])
        b = UniPoly(fld, [curve.B])
    cubic = x * x * x + a * x + b
    # 16 Y^4 reduced on the curve
    ff = 16 * cubic * cubic
    f = {
        -1: -(x ** 0),
        0: 0 * x,
        1: x ** 0,
        2: x ** 0,
        3: 3 * x ** 4 + 6 * a * x ** 2 + 12 * b * x - a * a,
        4: (2 * x ** 6 + 10 * a * x ** 4 + 40 * b * x ** 3
            - 10 * a * a * x ** 2 - 8 * a * b * x - 16 * b * b
            - 2 * a ** 3),
    }

    def fill(k: int):
        if k in f:
            return f[k]
        m, odd = divmod(k, 2)
        if odd:
            first = fill(m + 2) * fill(m) ** 3
            second = fill(m - 1) * fill(m + 1) ** 3
            f[k] = ff * first - second if m % 2 == 0 else first - ff * second
        else:
            f[k] = fill(m) * (fill(m + 2) * fill(m - 1) ** 2
                              - fill(m - 2) * fill(m + 1) ** 2)
        return f[k]

    return fill(n)
