"""Exact truncated power series in a fractional power of q.

A series is a dense window of exact rational coefficients, held as one
list of integer numerators ``nums`` over one positive integer denominator
``den``: the coefficient of x**(lead+k) is nums[k]/den, where
x = q**(1/step).  Exponents below the window are exact zeros; exponents at
or past ``end = lead + len(nums)`` are unknown and reading one raises
PrecisionError.  Negative leads are allowed (the j-function needs them).

Every series is kept in canonical form: den > 0 and
gcd(den, *nums) == 1, so the zero series has den == 1.  Two series with
the same rational coefficients therefore have the same ``nums`` and
``den``, which keeps ``==`` and ``hash`` exact.  All arithmetic runs on
the integers; Fractions appear only at the edges: the constructor,
``coefficient()`` and the ``coeffs`` view.  Each coefficient of a
product is one dot product of numerator lists (half of one for
``s * s``), and ``product_trace`` takes only the coefficients at the
exponents a given ell divides.

Instances are treated as immutable; every operation returns a fresh
series whose window is the largest one justified by its operands, so
precision bookkeeping never has to be done by callers.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import PrecisionError
from .ffield import check_level


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


def _series(nums, den, lead, step):
    """The series nums/den, brought into canonical form."""
    if den != 1:
        if den < 0:
            nums, den = [-v for v in nums], -den
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
    out = PowerSeries.__new__(PowerSeries)
    out.step, out.lead, out.nums, out.den = step, lead, nums, den
    return out


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


class PowerSeries:
    """Truncated series sum(nums[k]/den * x**(lead+k)) + O(x**end)."""

    __slots__ = ("step", "lead", "nums", "den")

    def __init__(self, coeffs, lead=0, step=1):
        if step < 1:
            raise ValueError("step must be a positive integer")
        fracs = [_as_fraction(c) for c in coeffs]
        # the lcm of reduced denominators is already coprime to the nums
        den = lcm(*(c.denominator for c in fracs))
        self.step, self.lead, self.den = step, lead, den
        self.nums = [c.numerator * (den // c.denominator) for c in fracs]

    @property
    def end(self):
        return self.lead + len(self.nums)

    @property
    def coeffs(self):
        """The window's coefficients as Fractions."""
        return [Fraction(v, self.den) for v in self.nums]

    @classmethod
    def constant(cls, value, precision, step=1):
        c = _as_fraction(value)
        return _series([c.numerator] + [0] * (precision - 1), c.denominator,
                       0, step)

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

    def reinterpret(self, step):
        """Same coefficients read against a new fractional power of q."""
        if step < 1:
            raise ValueError("step must be a positive integer")
        return _series(self.nums, self.den, self.lead, step)

    def truncate(self, end):
        """Forget coefficients at or past exponent ``end``."""
        if end <= self.lead:
            raise PrecisionError("truncation would leave an empty window")
        return _series(self.nums[:end - self.lead], self.den, self.lead,
                       self.step)

    # -- arithmetic -------------------------------------------------------

    def _aligned(self, other):
        if self.step == other.step:
            return self, other
        s = lcm(self.step, other.step)
        return self._rescale(s // self.step, s), other._rescale(s // other.step, s)

    def _rescale(self, m, step):
        if m == 1:
            return self
        nums = [0] * (m * len(self.nums))
        nums[::m] = self.nums
        # known mod x^end in the old variable means mod x^(m*end) in the new
        return _series(nums, self.den, m * self.lead, step)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._add_scalar(_as_fraction(other))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b = self._aligned(other)
        lead = min(a.lead, b.lead)
        end = min(a.end, b.end)
        if end <= lead:
            raise PrecisionError("empty window in series addition")
        den = lcm(a.den, b.den)
        # both padded windows reach end; zip stops there
        pa, pb = ([0] * (s.lead - lead)
                  + _scaled(s.nums[:max(end - s.lead, 0)], den // s.den)
                  for s in (a, b))
        return _series([u + v for u, v in zip(pa, pb)], den, lead, a.step)

    def _add_scalar(self, c):
        if self.end <= 0:
            raise PrecisionError("constant term lies outside the window")
        lead = min(self.lead, 0)
        den = lcm(self.den, c.denominator)
        nums = [0] * (self.lead - lead) + _scaled(self.nums, den // self.den)
        nums[-lead] += c.numerator * (den // c.denominator)
        return _series(nums, den, lead, self.step)

    __radd__ = __add__

    def __neg__(self):
        return _series([-v for v in self.nums], self.den, self.lead,
                       self.step)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries)
                       else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _series(_scaled(self.nums, c.numerator),
                           self.den * c.denominator, self.lead, self.step)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        a, b, size = self._product_window(other)
        return _series(_convolve(a.nums, b.nums, size, range(size)),
                       a.den * b.den, a.lead + b.lead, a.step)

    __rmul__ = __mul__

    def _product_window(self, other):
        """Both factors on one step, and the length of their product's
        window."""
        a, b = self._aligned(other)
        size = min(len(a.nums), len(b.nums))
        if size <= 0:
            raise PrecisionError("empty window in series multiplication")
        return a, b, size

    def product_trace(self, other, ell):
        """(self * other).extract_progression(ell) without forming the
        product: only the slots whose exponent ell divides are convolved,
        about 1/ell of the work of the full product."""
        a, b, size = self._product_window(other)
        if a.step != ell:
            raise ValueError("extraction requires a series in x = q^(1/ell)")
        lead = a.lead + b.lead
        qlead = -((-lead) // ell)
        kept = _convolve(a.nums, b.nums, size,
                         range(qlead * ell - lead, size, ell))
        return _series([ell * v for v in kept], a.den * b.den, qlead, 1)

    def inverse(self):
        """Multiplicative inverse, window matched to the known coefficients.

        With u the integer numerators from the first nonzero one on, the
        inverse of u is d_k = t_k / u0**(k+1), where t_0 = 1 and
        t_k = -sum_{i=1..k} u_i u0**(i-1) t_(k-i): integers throughout,
        one division at the end."""
        first = self.effective_lead()
        if first is None:
            raise ZeroDivisionError("inverse of a zero series")
        u = self.nums[first - self.lead:]
        u0 = u[0]
        scaled = []
        p = 1
        for ui in u[1:]:
            scaled.append(ui * p)
            p *= u0
        t = [1]
        for k in range(1, len(u)):
            t.append(-sum(map(mul, scaled[:k], reversed(t))))
        nums = []
        p = self.den
        for tk in reversed(t):
            nums.append(tk * p)
            p *= u0
        # p is now den * u0**len(u); nums[k] carries den * u0**(len-1-k)
        nums.reverse()
        return _series(nums, p // self.den, -first, self.step)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of series by zero scalar")
            return self * (1 / c)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return PowerSeries.constant(1, len(self.nums), step=self.step)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.step == other.step and self.lead == other.lead
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.step, self.lead, self.den, tuple(self.nums)))

    def __repr__(self):
        shown = ", ".join(str(Fraction(v, self.den)) for v in self.nums[:6])
        if len(self.nums) > 6:
            shown += ", ..."
        return (f"PowerSeries(step={self.step}, x^{self.lead}..x^{self.end}:"
                f" [{shown}])")

    # -- q-operators ------------------------------------------------------

    def substitute_q_power(self, m):
        """Replace q by q**m, i.e. multiply every exponent by m."""
        if m < 1:
            raise ValueError("substitution power must be positive")
        return self._rescale(m, self.step)

    def extract_progression(self, ell):
        """Keep exponents divisible by ell, rescale x**(ell*m) to q**m,
        and multiply by ell.

        This is the trace over the ell-th roots of unity: summing the series
        at x*zeta^j over all j kills every exponent not divisible by ell and
        multiplies the surviving ones by ell.  Requires step == ell so the
        result is an integral q-series.
        """
        if self.step != ell:
            raise ValueError("extraction requires a series in x = q^(1/ell)")
        qlead = -((-self.lead) // ell)
        kept = self.nums[qlead * ell - self.lead::ell]
        return _series([ell * v for v in kept], self.den, qlead, 1)


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
    return PowerSeries(coeffs)


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
    return (e2 - n * e2.substitute_q_power(n)).truncate(precision)


def sigma1_series(ell, precision):
    """Sum of the abscissas of the kernel of the q -> q^ell isogeny.

    Equals (ell/2)*(ell*E2(q^ell) - E2(q)) = -(ell/2)*F_ell.
    """
    return fn_series(ell, precision) * Fraction(-ell, 2)


def eta_squared_product(ell, precision):
    """f = q^((ell+1)/12) * prod((1-q^n)^2 (1-q^(ell*n))^2) for ell = 11 mod 12.

    Expanded factor by factor so only integer q-exponents ever appear; the
    congruence on ell makes the leading exponent integral.
    """
    if ell % 12 != 11:
        raise ValueError("eta-square product needs ell = 11 (mod 12)")
    if ell < 11 or precision < 1:
        raise ValueError("eta-square product needs ell >= 11 and "
                         "precision at least 1")
    shift = (ell + 1) // 12
    prod = [1] + [0] * (precision - 1)
    for n in range(1, precision):
        for m in (n, ell * n):
            if m >= precision:
                break
            # multiply in place by (1 - q^m)^2 = 1 - 2q^m + q^(2m)
            for i in range(precision - 1, m - 1, -1):
                v = prod[i] - 2 * prod[i - m]
                if i >= 2 * m:
                    v += prod[i - 2 * m]
                prod[i] = v
    return PowerSeries(prod, lead=shift)


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
