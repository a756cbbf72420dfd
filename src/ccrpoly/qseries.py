"""Exact truncated Laurent series in one variable x.

A series is a dense window of exact rational coefficients, held as one
list of integer numerators ``nums`` over one positive integer denominator
``den``: the coefficient of x**(lead+k) is nums[k]/den.  Exponents below
the window are exact zeros; exponents at or past ``end = lead + len(nums)``
are unknown and reading one raises PrecisionError.  Negative leads are
allowed (the j-function needs them).  x is q in every named expansion;
only the builder reads a series in x = q**(1/ell), and traces it to q.

Every series is kept in canonical form: den > 0 and
gcd(den, *nums) == 1, so the zero series has den == 1.  Two series with
the same rational coefficients therefore have the same ``nums`` and
``den``, which keeps ``==`` and ``hash`` exact.  All arithmetic runs on
the integers; Fractions appear only at the edges: the constructor,
``coefficient()`` and the ``coeffs`` view.  A product whose numerators
are narrow, their largest bit lengths summing to at most twice the
window length, is two half-size integer products (Harvey's KS2
Kronecker substitution, evaluated at +2**h and -2**h): each list's
even- and odd-indexed numerators are packed into signed slots of k
bytes, h = 4k bits, wide enough that every slot of the product has
|c_n| < 2**(8k-1); in any other product each coefficient is one dot
product of numerator lists (half of one for ``s * s``).
``product_trace`` takes only the coefficients at the exponents a given
ell divides, each a dot product.  A quotient ``a / b``, and the inverse
as 1 / b, is one forward substitution in the integers, each coefficient
a dot product against the ones before it and the u0 powers kept until
one denominator at the end (u0 b's first nonzero numerator).  A scalar
c plus a series s is the series sum s + constant(c, s.end), so s's
window must reach x^0.  ``s ** k`` for k >= 0, the builder's chains of
powers and MultiPoly's ``**`` all come from _powers, which forms each
even power as a square and each odd one as the power below it times x.

Instances are treated as immutable; every operation returns a fresh
series whose window is the largest one justified by its operands, so
precision bookkeeping never has to be done by callers.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import PrecisionError
from .ffield import check_level


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


def _series(nums, den, lead):
    """The series nums/den, brought into canonical form."""
    if den != 1:
        if den < 0:
            nums, den = [-v for v in nums], -den
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
    out = PowerSeries.__new__(PowerSeries)
    out.lead, out.nums, out.den = lead, nums, den
    return out


def _powers(pw: list, top: int) -> list:
    """Grow pw = [x^0 or None, x, x^2, ...] in place through x^top and
    return it; every even power is formed as a square."""
    while len(pw) <= top:
        k = len(pw)
        pw.append(pw[k // 2] * pw[k // 2] if k % 2 == 0 else pw[-1] * pw[1])
    return pw


def _scaled(nums, f):
    return nums if f == 1 else [v * f for v in nums]


def _convolve(a, b, size, slots):
    """Slot n of the product of the numerator lists a and b truncated to
    ``size``, for each n in ``slots``: sum(a[t] * b[n-t] for t <= n), one
    C-level dot product against b's head reversed (map stops at the
    shorter list).  A square (a is b) pairs a[t] * a[n-t] once, for
    t < n - t, and adds a[n/2]**2 at even n: half the products."""
    rb = b[size - 1::-1]
    if a is not b:
        return [sum(map(mul, a, rb[size - 1 - n:])) for n in slots]
    return [2 * sum(map(mul, a[:(n + 1) // 2], rb[size - 1 - n:]))
            + (0 if n % 2 else a[n // 2] ** 2) for n in slots]


def _kronecker(a, b, size, bits):
    """Slots 0 .. size-1 of the product of the numerator lists a and b,
    whose largest bit lengths sum to ``bits``, from two half-size integer
    products (Harvey's KS2: Kronecker substitution at +2**h and -2**h),
    squares when a is b.  Slot n of the product, sum(a[t] * b[n-t] for
    t <= n), is below 2**(bits + bit_length(size)) in size, so k bytes
    hold it with a sign bit: |c_n| < 2**(8k-1).  Each list, cut to
    ``size``, packs its even-indexed and its odd-indexed numerators into
    two ints E and O of signed k-byte slots, and is read at x = +-2**h,
    h = 4k, as E +- 2**h O.  With X = 2**(8k) = x**2 and c(x) = Ce(X)
    + x Co(X) the product, c(2**h) and c(-2**h) give Ce, the even slots,
    as their half sum and Co, the odd ones, as their difference over
    2**(h+1), both exact; neither spills a slot into the next."""
    k = (bits + size.bit_length() + 8) // 8
    h, n_even = 4 * k, (size + 1) // 2
    signs = int.from_bytes((bytes(k - 1) + b"\x80") * n_even, "little")

    def pack(nums):
        t = int.from_bytes(b"".join([v.to_bytes(k, "little", signed=True)
                                     for v in nums]), "little")
        # a negative slot reads 2**(8k) too high: borrow it from the next
        return t - ((t & signs) << 1)

    ea, oa = pack(a[:size:2]), pack(a[1:size:2]) << h
    if a is b:
        plus, minus = ea + oa, ea - oa
        plus *= plus
        minus *= minus
    else:
        eb, ob = pack(b[:size:2]), pack(b[1:size:2]) << h
        plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    # adding the sign bits carries every slot's borrow at once, and the
    # xor then leaves each slot in two's complement; the odd slots go
    # above the even ones, and are read back in one pass
    width = 8 * k * n_even
    mask = (1 << width) - 1
    even, odd = ((((c + signs) & mask) ^ signs) for c in (
        (plus + minus) >> 1, (plus - minus) >> (h + 1)))
    buf = (even | odd << width).to_bytes(2 * k * n_even, "little")
    slots = [int.from_bytes(buf[i:i + k], "little", signed=True)
             for i in range(0, 2 * k * n_even, k)]
    out = [0] * size
    out[::2], out[1::2] = slots[:n_even], slots[n_even:n_even + size // 2]
    return out


class PowerSeries:
    """Truncated series sum(nums[k]/den * x**(lead+k)) + O(x**end)."""

    __slots__ = ("lead", "nums", "den")

    def __init__(self, coeffs, lead=0):
        fracs = [_as_fraction(c) for c in coeffs]
        # the lcm of reduced denominators is already coprime to the nums
        den = lcm(*(c.denominator for c in fracs))
        self.lead, self.den = lead, den
        self.nums = [c.numerator * (den // c.denominator) for c in fracs]

    @property
    def end(self):
        return self.lead + len(self.nums)

    @property
    def coeffs(self):
        """The window's coefficients as Fractions."""
        return [Fraction(v, self.den) for v in self.nums]

    @classmethod
    def from_numerators(cls, nums, den=1, lead=0):
        """The series sum(nums[k]/den * x**(lead+k)) from a list of integer
        numerators, which it keeps, and a nonzero integer den."""
        return _series(nums, den, lead)

    @classmethod
    def constant(cls, value, precision):
        c = _as_fraction(value)
        return _series([c.numerator] + [0] * (precision - 1), c.denominator,
                       0)

    def coefficient(self, n):
        """Exact coefficient of x**n; zero below the window, error past it."""
        if n >= self.end:
            raise PrecisionError(f"coefficient of x^{n} unknown (end={self.end})")
        if n < self.lead:
            return Fraction(0)
        return Fraction(self.nums[n - self.lead], self.den)

    def effective_lead(self):
        """Exponent of the first nonzero known coefficient, or None."""
        for k, v in enumerate(self.nums):
            if v:
                return self.lead + k
        return None

    def is_zero(self):
        """True when all known coefficients vanish."""
        return not any(self.nums)

    def truncate(self, end):
        """Forget coefficients at or past exponent ``end``."""
        if end <= self.lead:
            raise PrecisionError("truncation would leave an empty window")
        return _series(self.nums[:end - self.lead], self.den, self.lead)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if self.end <= 0:
                raise PrecisionError("constant term lies outside the window")
            other = PowerSeries.constant(other, self.end)
        elif not isinstance(other, PowerSeries):
            return NotImplemented
        lead = min(self.lead, other.lead)
        end = min(self.end, other.end)
        if end <= lead:
            raise PrecisionError("empty window in series addition")
        den = lcm(self.den, other.den)
        # both padded windows reach end; zip stops there
        pa, pb = ([0] * (s.lead - lead)
                  + _scaled(s.nums[:max(end - s.lead, 0)], den // s.den)
                  for s in (self, other))
        return _series([u + v for u, v in zip(pa, pb)], den, lead)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.nums], self.den, self.lead)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries)
                       else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _series(_scaled(self.nums, c.numerator),
                           self.den * c.denominator, self.lead)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        size = self._product_window(other)
        a, b = self.nums, other.nums
        # narrow products, whose widest numerators sum to at most two
        # bits a slot, take the packed products; wider ones lose to the
        # dot products, whose cost follows the mostly small leading
        # numerators.  A gate at three bits a slot timed even with this
        # one over whole builds at levels 5 to 47.
        # The top numerators' widths bound the widest from below, and
        # settle almost every wide product without a pass over the lists
        bits = a[size - 1].bit_length() + b[size - 1].bit_length()
        if bits <= 2 * size:
            bits = sum(max(map(int.bit_length, x[:size])) for x in (a, b))
        nums = (_kronecker(a, b, size, bits) if bits <= 2 * size
                else _convolve(a, b, size, range(size)))
        return _series(nums, self.den * other.den, self.lead + other.lead)

    __rmul__ = __mul__

    def _product_window(self, other):
        """The length of the product's window."""
        size = min(len(self.nums), len(other.nums))
        if size <= 0:
            raise PrecisionError("empty window in series multiplication")
        return size

    def product_trace(self, other, ell):
        """(self * other).extract_progression(ell) without forming the
        product: only the slots whose exponent ell divides are convolved,
        about 1/ell of the work of the full product."""
        size = self._product_window(other)
        lead = self.lead + other.lead
        qlead = -((-lead) // ell)
        kept = _convolve(self.nums, other.nums, size,
                         range(qlead * ell - lead, size, ell))
        return _series([ell * v for v in kept], self.den * other.den, qlead)

    def inverse(self):
        """Multiplicative inverse, window matched to the known coefficients
        from the first nonzero one on: 1 divided by self."""
        return PowerSeries.constant(1, len(self.nums)) / self

    def __truediv__(self, other):
        """self/other by one forward substitution in the integers, on the
        shorter of self's window and other's from its first nonzero
        numerator u0 on.  With a self's numerators and u other's from u0
        on, the quotient's k-th coefficient is
        (other.den/self.den) * t_k / u0**(k+1), where
        t_k = a_k u0**k - sum_{i=1..k} u_i u0**(i-1) t_(k-i): integers
        throughout, one denominator at the end."""
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of series by zero scalar")
            return self * (1 / c)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        first = other.effective_lead()
        if first is None:
            raise ZeroDivisionError("division by a zero series")
        # u cut to the quotient's window; an empty self raises there
        u = other.nums[first - other.lead:][:self._product_window(other)]
        u0 = u[0]
        scaled = []
        p = 1
        for ui in u[1:]:
            scaled.append(ui * p)
            p *= u0
        t = []
        p = 1
        for ak in self.nums[:len(u)]:
            # map stops at the k terms of t
            t.append(ak * p - sum(map(mul, scaled, reversed(t))))
            p *= u0
        nums = []
        p = other.den
        for tk in reversed(t):
            nums.append(tk * p)
            p *= u0
        # p is now other.den * u0**len(t); nums[k] carries
        # other.den * u0**(len(t)-1-k)
        nums.reverse()
        return _series(nums, self.den * (p // other.den), self.lead - first)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _powers([PowerSeries.constant(1, len(self.nums)), self], k)[k]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.lead == other.lead and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.lead, self.den, tuple(self.nums)))

    def __repr__(self):
        shown = ", ".join(str(Fraction(v, self.den)) for v in self.nums[:6])
        if len(self.nums) > 6:
            shown += ", ..."
        return f"PowerSeries(x^{self.lead}..x^{self.end}: [{shown}])"

    # -- q-operators ------------------------------------------------------

    def substitute_q_power(self, m, end):
        """Replace x by x**m, i.e. multiply every exponent by m, on the
        window that ends at x**end, reading only exponents below end/m."""
        if m < 1:
            raise ValueError("substitution power must be positive")
        lead = m * self.lead
        # known mod x^end before means known mod x^(m*end) after
        if not lead < end <= m * self.end:
            raise PrecisionError("substitution window is empty or unknown")
        nums = [0] * (end - lead)
        nums[::m] = self.nums[:-(-(end - lead) // m)]
        return _series(nums, self.den, lead)

    def extract_progression(self, ell):
        """Read the series in x = q**(1/ell): keep the exponents ell
        divides, rescale x**(ell*m) to q**m, and multiply by ell.

        This is the trace over the ell-th roots of unity: summing the series
        at x*zeta^j over all j kills every exponent not divisible by ell and
        multiplies the surviving ones by ell.
        """
        qlead = -((-self.lead) // ell)
        kept = self.nums[qlead * ell - self.lead::ell]
        return _series([ell * v for v in kept], self.den, qlead)


# -- named expansions -----------------------------------------------------

def _divisor_power_sums(r, n):
    """sums[m] = sum of d**r over divisors d of m, for 0 <= m < n."""
    sums = [0] * n
    for d in range(1, n):
        dp = d ** r
        for m in range(d, n, d):
            sums[m] += dp
    return sums


def eisenstein_series(weight, precision):
    """Level-one Eisenstein series E2, E4 or E6, normalized to lead 1."""
    try:
        mult, r = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[weight]
    except KeyError:
        raise ValueError("weight must be 2, 4 or 6") from None
    if precision < 1:
        raise ValueError("precision must be at least 1")
    sums = _divisor_power_sums(r, precision)
    coeffs = [mult * s for s in sums]
    coeffs[0] = 1
    return _series(coeffs, 1, 0)


def delta_series(precision):
    """Discriminant form (E4^3 - E6^2)/1728 = q - 24q^2 + 252q^3 - ..."""
    e4 = eisenstein_series(4, precision)
    e6 = eisenstein_series(6, precision)
    return (e4 ** 3 - e6 ** 2) / 1728


def j_series(precision):
    """j = E4^3/Delta = q^-1 + 744 + ...; window reaches x^(precision-3)."""
    if precision < 2:
        raise ValueError("j needs precision at least 2")
    c4 = eisenstein_series(4, precision) ** 3
    e6 = eisenstein_series(6, precision)
    # dividing by c4 - e6**2, which leads with 1728, is much slower
    return c4 / ((c4 - e6 ** 2) / 1728)


def fn_series(n, precision):
    """E2(q) - n*E2(q^n), the weight-two form attached to the n-isogeny."""
    e2 = eisenstein_series(2, precision)
    return e2 - n * e2.substitute_q_power(n, precision)


def sigma1_series(ell, precision):
    """Sum of the abscissas of the kernel of the q -> q^ell isogeny.

    Equals (ell/2)*(ell*E2(q^ell) - E2(q)) = -(ell/2)*F_ell.
    """
    return fn_series(ell, precision) * Fraction(-ell, 2)


def eta_squared_product(ell, precision):
    """f = q^((ell+1)/12) * prod((1-q^n)^2 (1-q^(ell*n))^2) for ell = 11 mod 12.

    By Euler's pentagonal number theorem, prod(1-q^n) is the sum over all
    integers k of (-1)^k q^(k(3k-1)/2), whose coefficients are 0 and +-1.
    Its square s is a narrow series, and f = q^((ell+1)/12) s(q) s(q^ell):
    two narrow products.  The congruence on ell makes the leading
    exponent integral.
    """
    if ell % 12 != 11:
        raise ValueError("eta-square product needs ell = 11 (mod 12)")
    if ell < 11 or precision < 1:
        raise ValueError("eta-square product needs ell >= 11 and "
                         "precision at least 1")
    eta = [0] * precision
    for k in range(-isqrt(precision) - 1, isqrt(precision) + 2):
        e = k * (3 * k - 1) // 2
        if e < precision:
            eta[e] = -1 if k % 2 else 1
    s = _series(eta, 1, 0)
    s = s * s
    return _series((s * s.substitute_q_power(ell, precision)).nums, 1,
                   (ell + 1) // 12)


_FORM_NAMES = ("E2", "E4", "E6", "Delta", "j", "F", "sigma1", "f")


def expand(name, precision, ell=None):
    """Named expansion dispatcher used by the command line.  F, sigma1
    and f take the builder's levels: ell an odd prime > 3."""
    if name in ("E2", "E4", "E6"):
        return eisenstein_series(int(name[1]), precision)
    if name == "Delta":
        return delta_series(precision)
    if name == "j":
        return j_series(precision)
    if name in ("F", "sigma1", "f"):
        if ell is None:
            raise ValueError(f"expansion {name!r} needs ell")
        check_level(ell)
        if name == "F":
            return fn_series(ell, precision)
        if name == "sigma1":
            return sigma1_series(ell, precision)
        return eta_squared_product(ell, precision)
    raise ValueError(f"unknown expansion {name!r}; choose from {_FORM_NAMES}")
