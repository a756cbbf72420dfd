"""Series ring: windows, operators and the classical form identities."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ccrpoly import builder, cli, qseries
from ccrpoly.errors import BasisMatchError, PrecisionError
from ccrpoly.qseries import (PowerSeries, delta_series, eisenstein_series,
                             eta_squared_product, expand, fn_series, j_series,
                             sigma1_series)
from oracles import (eta_squared_loop, form_basis_exponents, long_division,
                     ref_qdiff, zero_through)


def geometric(precision):
    return PowerSeries([1] * precision)


def test_geometric_inverse():
    # (1 - q) * (1 + q + q^2 + ...) = 1
    one_minus_q = PowerSeries([1, -1] + [0] * 18)
    prod = one_minus_q * geometric(20)
    assert prod.coefficient(0) == 1
    assert zero_through(prod, 19) is False  # constant 1 present
    assert all(prod.coefficient(n) == 0 for n in range(1, 19))
    inv = one_minus_q.inverse()
    assert [inv.coefficient(n) for n in range(20)] == [1] * 20


def test_difference_of_squares():
    a = PowerSeries([1, 1, 0, 0, 0])
    b = PowerSeries([1, -1, 0, 0, 0])
    prod = a * b
    assert [prod.coefficient(n) for n in range(5)] == [1, 0, -1, 0, 0]


def test_window_shrinks_with_multiplication():
    a = PowerSeries([1, 2, 3], lead=0)        # known through x^2
    b = PowerSeries([5, 7], lead=1)           # known through x^2
    prod = a * b
    assert prod.lead == 1
    assert prod.end == 3                      # min(3+1, 3+0)
    with pytest.raises(PrecisionError):
        prod.coefficient(3)


def test_coefficients_below_window_are_exact_zero():
    s = PowerSeries([4, 5], lead=3)
    assert s.coefficient(0) == 0
    assert s.coefficient(2) == 0
    assert s.coefficient(3) == 4


def test_scalar_ops_and_negative_lead():
    s = PowerSeries([1, 744, 196884], lead=-1)
    t = s - 744
    assert t.coefficient(0) == 0
    assert t.coefficient(-1) == 1
    u = s * Fraction(1, 2)
    assert u.coefficient(-1) == Fraction(1, 2)


def test_division_by_zero_series():
    z = PowerSeries([0, 0, 0])
    with pytest.raises(ZeroDivisionError):
        z.inverse()


@st.composite
def divisions(draw):
    """(a, b, k): a numerator and a divisor series of either lead and of
    windows of their own lengths, signed coefficients, and up to three
    zero numerators in b before its first nonzero one u0, an integer or
    a Fraction; and a power k for b ** -k."""
    coeffs = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(-50, 50, max_denominator=36))
    u0 = draw(st.one_of(st.integers(-40, 40),
                        st.fractions(-9, 9, max_denominator=12))
              .filter(bool))
    b = [0] * draw(st.integers(0, 3)) + [u0] + draw(st.lists(coeffs,
                                                             max_size=12))
    a = draw(st.lists(coeffs, min_size=1, max_size=14))
    return (PowerSeries(a, lead=draw(st.integers(-4, 4))),
            PowerSeries(b, lead=draw(st.integers(-4, 4))),
            draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(divisions())
@example((PowerSeries([5, -7, 3], lead=-2),
          PowerSeries([0, 0, Fraction(3, 2), -1, 4, 2], lead=1), 2))
@example((PowerSeries([1, 2, 3, 4, 5, 6], lead=3),
          PowerSeries([-6, 1], lead=-1), 3))
def test_division_matches_fraction_long_division(case):
    a, b, k = case
    quotient = a / b
    assert (quotient.lead, quotient.coeffs) == long_division(a, b)
    assert quotient.den > 0 and gcd(quotient.den, *quotient.nums) == 1
    one = PowerSeries.constant(1, len(b.nums))
    inv = b.inverse()
    assert (inv.lead, inv.coeffs) == long_division(one, b)
    power = one
    for _ in range(k):
        lead, coeffs = long_division(power, b)
        power = PowerSeries(coeffs, lead=lead)
    assert b ** -k == power
    with pytest.raises(ZeroDivisionError):
        a / PowerSeries([0] * len(b.nums), lead=b.lead)
    with pytest.raises(PrecisionError):
        PowerSeries([], lead=a.lead) / b


# k = 0..8 takes every odd and every even step of the chain of powers
@pytest.mark.parametrize("k", range(9))
def test_pow_matches_repeated_multiplication(k):
    rng = random.Random(7)
    s = PowerSeries([rng.randrange(-9, 10) for _ in range(12)])
    power = PowerSeries.constant(1, 12)
    for _ in range(k):
        power = power * s
    assert s ** k == power


def test_qdiff_basics():
    # qdiff(q^n) = n q^n
    s = PowerSeries([0, 1, 0, 5])
    d = ref_qdiff(s)
    assert d.coefficient(1) == 1
    assert d.coefficient(3) == 15


def test_substitute_q_power_and_extract_roundtrip():
    s = PowerSeries([2, 3, 5, 7])
    sub = s.substitute_q_power(3, 12)
    assert sub.coefficient(0) == 2
    assert sub.coefficient(3) == 3
    assert sub.coefficient(4) == 0
    assert sub.end == 12
    back = sub.extract_progression(3)
    assert [back.coefficient(n) for n in range(4)] == [6, 9, 15, 21]


def test_substitute_q_power_costs_its_window():
    s = PowerSeries([2, 3, 5, 7], lead=-1)
    assert s.substitute_q_power(3, 4).coeffs == [2, 0, 0, 3, 0, 0, 5]
    with pytest.raises(PrecisionError):
        s.substitute_q_power(3, 10)     # past x^(3 * 3)
    with pytest.raises(PrecisionError):
        s.substitute_q_power(3, -3)     # empty
    # at 2^89 - 1 only the constant term falls inside the window
    far = PowerSeries([2, 3]).substitute_q_power(2 ** 89 - 1, 10)
    assert far.coeffs == [2] + [0] * 9


def test_extract_progression_drops_other_residues():
    # x^1 + x^2 + x^4 with x = q^(1/2): only x^2 and x^4 survive, times 2
    s = PowerSeries([0, 1, 1, 0, 1])
    e = s.extract_progression(2)
    assert [e.coefficient(n) for n in range(3)] == [0, 2, 2]


def test_eisenstein_leading_coefficients():
    e2 = eisenstein_series(2, 6)
    assert [e2.coefficient(n) for n in range(5)] == [1, -24, -72, -96, -168]
    e4 = eisenstein_series(4, 4)
    assert [e4.coefficient(n) for n in range(3)] == [1, 240, 2160]
    e6 = eisenstein_series(6, 4)
    assert [e6.coefficient(n) for n in range(3)] == [1, -504, -16632]


def test_e2_at_q_squared():
    s = eisenstein_series(2, 4).substitute_q_power(2, 8)
    assert [s.coefficient(n) for n in range(5)] == [1, 0, -24, 0, -72]


def test_e4_cubed_minus_e6_squared():
    e4 = eisenstein_series(4, 4)
    e6 = eisenstein_series(6, 4)
    diff = e4 ** 3 - e6 ** 2
    assert [diff.coefficient(n) for n in range(3)] == [0, 1728, -41472]


def test_delta_expansion():
    d = delta_series(5)
    assert [d.coefficient(n) for n in range(5)] == [0, 1, -24, 252, -1472]


def test_delta_equals_eta_power_24():
    # Delta = q * prod (1-q^n)^24, checked via twelve applications of the
    # squared Euler product
    n = 30
    prod = [1] + [0] * (n - 1)
    for m in range(1, n):
        for i in range(n - 1, m - 1, -1):
            v = prod[i] - 2 * prod[i - m]
            if i >= 2 * m:
                v += prod[i - 2 * m]
            prod[i] = v
    eta2 = PowerSeries(prod)
    d = delta_series(n)
    diff = d - eta2 ** 12 * PowerSeries([0, 1] + [0] * (n - 2))
    assert zero_through(diff, 25)


def test_ramanujan_derivative_system():
    n = 52
    e2 = eisenstein_series(2, n)
    e4 = eisenstein_series(4, n)
    e6 = eisenstein_series(6, n)
    assert zero_through(3 * ref_qdiff(e4) - (e4 * e2 - e6), 50)
    assert zero_through(2 * ref_qdiff(e6) - (e6 * e2 - e4 ** 2), 50)
    assert zero_through(12 * ref_qdiff(e2) - (e2 ** 2 - e4), 50)


def test_j_times_delta_is_e4_cubed():
    n = 54
    j = j_series(n)
    prod = j * delta_series(n)
    diff = prod - eisenstein_series(4, n) ** 3
    assert zero_through(diff, 50)
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884


def test_qdiff_j_identity():
    # q dj/dq * Delta = -E4^2 * E6
    n = 54
    lhs = ref_qdiff(j_series(n)) * delta_series(n)
    rhs = -(eisenstein_series(4, n) ** 2) * eisenstein_series(6, n)
    assert zero_through(lhs - rhs, 50)


def test_sigma1_is_scaled_fn():
    for ell in (5, 7, 11):
        s = sigma1_series(ell, 20)
        f = fn_series(ell, 20)
        assert zero_through(s + Fraction(ell, 2) * f, 20)
    assert sigma1_series(5, 8).coefficient(0) == 10


def test_fn_series_small_coefficients():
    f5 = fn_series(5, 7)
    # E2 - 5 E2(q^5): constant 1-5 = -4; at q^5 the shifted copy kicks in
    assert f5.coefficient(0) == -4
    assert f5.coefficient(1) == -24
    assert f5.coefficient(5) == -24 * 6 + 5 * 24


def test_eta_squared_product_lead_and_integrality():
    f = eta_squared_product(11, 20)
    assert f.lead == 1
    assert f.coefficient(1) == 1
    assert all(c.denominator == 1 for c in f.coeffs)
    with pytest.raises(ValueError):
        eta_squared_product(13, 10)


def test_eta_squared_product_twelfth_power():
    # f^12 = Delta(q) * Delta(q^11)
    n = 26
    f = eta_squared_product(11, n)
    lhs = f ** 12
    rhs = delta_series(n) * delta_series(3).substitute_q_power(11, 33)
    assert zero_through(lhs - rhs, 24)


@pytest.mark.parametrize("ell, top", [(11, 300), (23, 300), (47, 300),
                                      (71, 300), (11, 5000)])
def test_eta_squared_product_matches_the_factor_loop(ell, top):
    # the pentagonal expansion against the product multiplied in factor by
    # factor; the loop's coefficients below q^n do not depend on n, so one
    # loop serves every precision up to top (only top itself at 5000)
    ref = eta_squared_loop(ell, top)
    shift = (ell + 1) // 12
    for n in range(1, top + 1) if top <= 300 else [top]:
        f = eta_squared_product(ell, n)
        assert (f.lead, f.den, f.nums) == (shift, 1, ref[:n])


@pytest.mark.parametrize("make", [
    lambda: eisenstein_series(4, 0),
    lambda: delta_series(-1),
    lambda: j_series(1),
    lambda: fn_series(5, 0),
    lambda: eta_squared_product(11, 0),
    lambda: eta_squared_product(-1, 5),
])
def test_window_below_the_first_coefficient_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_expand_dispatcher_and_determinism():
    a = expand("E4", 30)
    b = expand("E4", 30)
    assert a == b and a.coeffs == b.coeffs
    assert expand("sigma1", 10, ell=7).coefficient(0) == 21
    with pytest.raises(ValueError):
        expand("nope", 5)
    with pytest.raises(ValueError):
        expand("F", 5)


# -- the integer core against a plain list of Fractions ----------------------

class Ref:
    """Reference series: the window as a plain list of Fractions."""

    def __init__(self, coeffs, lead=0):
        self.coeffs = [Fraction(c) for c in coeffs]
        self.lead = lead

    @property
    def end(self):
        return self.lead + len(self.coeffs)

    def at(self, n):
        return self.coeffs[n - self.lead] if n >= self.lead else Fraction(0)

    def rescale(self, m):
        coeffs = [Fraction(0)] * (m * len(self.coeffs))
        coeffs[::m] = self.coeffs
        return Ref(coeffs, m * self.lead)


def ref_add(a, b):
    lead, end = min(a.lead, b.lead), min(a.end, b.end)
    if end <= lead:
        raise PrecisionError("empty window")
    return Ref([a.at(n) + b.at(n) for n in range(lead, end)], lead)


def ref_add_scalar(a, c):
    if a.end <= 0:
        raise PrecisionError("constant term outside the window")
    lead = min(a.lead, 0)
    return Ref([a.at(n) + (c if n == 0 else 0) for n in range(lead, a.end)],
               lead)


def ref_scale(a, c):
    return Ref([c * v for v in a.coeffs], a.lead)


def ref_mul(a, b):
    size = min(len(a.coeffs), len(b.coeffs))
    out = [sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)),
               Fraction(0)) for k in range(size)]
    return Ref(out, a.lead + b.lead)


def ref_inverse(a):
    first = next((a.lead + k for k, c in enumerate(a.coeffs) if c), None)
    if first is None:
        raise ZeroDivisionError("zero series")
    u = a.coeffs[first - a.lead:]
    d = [1 / u[0]]
    for k in range(1, len(u)):
        d.append(-sum(u[i] * d[k - i] for i in range(1, k + 1)) / u[0])
    return Ref(d, -first)


def ref_pow(a, k):
    if k < 0:
        return ref_pow(ref_inverse(a), -k)
    out = Ref([1] + [0] * (len(a.coeffs) - 1), 0)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_truncate(a, end):
    if end <= a.lead:
        raise PrecisionError("empty window")
    return Ref(a.coeffs[:end - a.lead], a.lead)


def ref_substitute(a, m, end):
    if not m * a.lead < end <= m * a.end:
        raise PrecisionError("window past the known one, or empty")
    return ref_truncate(a.rescale(m), end)


def ref_extract(a, ell):
    qlead, qend = -(-a.lead // ell), -(-a.end // ell)
    return Ref([ell * a.at(n * ell) for n in range(qlead, qend)], qlead)


def assert_matches(s, ref):
    """s has ref's window and coefficients, and is in canonical form."""
    assert s.lead == ref.lead
    assert s.coeffs == ref.coeffs
    assert all(type(v) is int for v in s.nums) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    twin = PowerSeries(ref.coeffs, lead=ref.lead)
    assert s == twin and hash(s) == hash(twin)


def agree(run, reference):
    """run() and reference() give the same series or the same error."""
    try:
        expected = reference()
    except (PrecisionError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            run()
        return
    assert_matches(run(), expected)


coefficients = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=36))
scalars = st.one_of(st.integers(-30, 30),
                    st.fractions(min_value=-9, max_value=9,
                                 max_denominator=24))


@st.composite
def series_pairs(draw, max_size=9, max_bits=0):
    """(PowerSeries, Ref) with a negative, zero or positive lead.  With
    max_bits, a seeded generator extends the window to a drawn length of
    up to max_size: integers of either sign, or zero, each of up to a
    drawn width of at most max_bits bits.  The width is at most 24 bits
    half the time, so that a product's summed numerator widths fall on
    either side of its window length."""
    coeffs = draw(st.lists(st.one_of(st.just(0), coefficients),
                           min_size=1, max_size=9))
    if max_bits:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        bits = draw(st.one_of(st.integers(0, 24), st.integers(0, max_bits)))
        size = draw(st.integers(len(coeffs), max_size))
        coeffs += [rng.choice((-1, 0, 1))
                   * rng.getrandbits(rng.randint(0, bits))
                   for _ in range(size - len(coeffs))]
    lead = draw(st.integers(-4, 4))
    return PowerSeries(coeffs, lead=lead), Ref(coeffs, lead)


def schoolbook(a, b, size):
    """Slots 0 .. size-1 of the product of the integer lists a and b."""
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(size)]


def assert_product(s, a, b):
    """s is a * b, checked against the schoolbook product of the
    numerators read back through the constructor."""
    size = min(len(a.nums), len(b.nums))
    den = a.den * b.den
    expected = PowerSeries([Fraction(v, den) for v in
                            schoolbook(a.nums, b.nums, size)],
                           lead=a.lead + b.lead)
    assert (s.lead, s.den, s.nums) == \
        (expected.lead, expected.den, expected.nums)


class TestIntegerCore:
    @settings(max_examples=200, deadline=None)
    @given(series_pairs(), series_pairs())
    def test_binary_ops(self, x, y):
        (a, ra), (b, rb) = x, y
        assert_matches(a, ra)
        agree(lambda: a + b, lambda: ref_add(ra, rb))
        agree(lambda: a - b, lambda: ref_add(ra, ref_scale(rb, -1)))
        agree(lambda: a * b, lambda: ref_mul(ra, rb))
        agree(lambda: a / b, lambda: ref_mul(ra, ref_inverse(rb)))

    @settings(max_examples=200, deadline=None)
    @given(series_pairs(), scalars)
    # a window that ends at x^0 holds no constant term: s + c and c - s
    # are PrecisionErrors, not s with c dropped
    @example((PowerSeries([1, 2], lead=-2), Ref([1, 2], -2)), 5)
    def test_scalar_ops(self, x, c):
        a, ra = x
        agree(lambda: a * c, lambda: ref_scale(ra, Fraction(c)))
        agree(lambda: c * a, lambda: ref_scale(ra, Fraction(c)))
        agree(lambda: a + c, lambda: ref_add_scalar(ra, Fraction(c)))
        agree(lambda: c - a, lambda: ref_add_scalar(ref_scale(ra, -1),
                                                    Fraction(c)))
        agree(lambda: a / c, lambda: ref_scale(ra, 1 / Fraction(c)))
        agree(lambda: -a, lambda: ref_scale(ra, -1))

    @settings(max_examples=200, deadline=None)
    @given(series_pairs(), st.integers(-3, 4), st.integers(-5, 12),
           st.integers(1, 3), st.integers(1, 3))
    def test_unary_ops(self, x, k, end, m, ell):
        a, ra = x
        agree(a.inverse, lambda: ref_inverse(ra))
        agree(lambda: a ** k, lambda: ref_pow(ra, k))
        agree(lambda: a.truncate(end), lambda: ref_truncate(ra, end))
        agree(lambda: a.substitute_q_power(m, end),
              lambda: ref_substitute(ra, m, end))
        agree(lambda: a.extract_progression(ell),
              lambda: ref_extract(ra, ell))


class TestBothProductPaths:
    """A product with narrow numerators is two half-size packed integer
    products (_kronecker, KS2), any other a list of dot products
    (_convolve); both must give the schoolbook product on every window
    and width."""

    @settings(max_examples=200, deadline=None)
    @given(series_pairs(120, 300), series_pairs(120, 300))
    def test_product(self, x, y):
        (a, _), (b, _) = x, y
        size = min(len(a.nums), len(b.nums))
        bits = sum(max(map(int.bit_length, s.nums[:size])) for s in (a, b))
        event("packed" if bits <= size else "dot products")
        expected = schoolbook(a.nums, b.nums, size)
        assert qseries._kronecker(a.nums, b.nums, size, bits) == expected
        assert qseries._convolve(a.nums, b.nums, size, range(size)) == \
            expected
        assert_product(a * b, a, b)

    @pytest.mark.parametrize("a, b", [
        # all -1: every slot of the square is positive, of the product
        # with all 1 negative
        ([-1] * 40, [-1] * 40),
        ([-1] * 40, [1] * 40),
        # alternating +-(2^b - 1): the product's slots alternate in sign
        ([(-1) ** i * (2 ** 20 - 1) for i in range(60)],
         [(-1) ** i * (2 ** 20 - 1) for i in range(60)]),
        ([(-1) ** i * (2 ** 9 - 1) for i in range(50)],
         [(-1) ** (i // 3) * (2 ** 30 - 1) for i in range(50)]),
        # only the top slot of the window is negative
        ([1] * 30, [0] * 29 + [-5]),
        ([3] * 29 + [-(2 ** 12)], [7] * 30),
        # at the signed slot bound: 56 + bit_length(127) + 1 sign bit
        # fill k = 8 bytes, and the top slot, 127 * (2^28 - 1)^2, is
        # about 2^62.989, just under the sign bit; -2^28 and -2^26 take
        # 29 and 27 bits
        ([-(2 ** 28 - 1)] * 127, [2 ** 28 - 1] * 127),
        ([2 ** 28 - 1] * 127, [-(2 ** 28 - 1)] * 127),
        ([-(2 ** 28)] * 127, [-(2 ** 26)] * 127),
        ([-(2 ** 28)] * 127, [2 ** 26] * 127),
        # the same at an even window, whose top slot is odd: KS2 reads it
        # from the difference of its two products
        ([-(2 ** 28 - 1)] * 126, [2 ** 28 - 1] * 126),
        ([2 ** 28 - 1] * 126, [2 ** 28 - 1] * 126),
        # unequal lengths: the window is the shorter one
        ([-1, 2 ** 15, -(2 ** 15)] * 20, [5, -7] * 11),
        # odd and even windows around a byte's worth of slots, where the
        # odd half is one slot shorter than the even one or as long
        ([-3, 1, -2, 3, -1], [2, -3, 1, 0, -2]),
        ([(-1) ** (i // 2) * (2 ** 7 - 1) for i in range(33)],
         [(-1) ** (i // 3) * (2 ** 9 - 1) for i in range(33)]),
        ([(-1) ** i * (2 ** 20 - 1) for i in range(64)],
         [(-1) ** (i // 5) * (2 ** 20 - 3) for i in range(64)]),
        ([-(2 ** 31 - 1)] * 65, [(-1) ** i * (2 ** 31 - 1)
                                 for i in range(65)]),
    ])
    def test_borrow_chains(self, a, b):
        size = min(len(a), len(b))
        bits = sum(max(map(int.bit_length, x[:size])) for x in (a, b))
        assert bits <= size        # the product takes the packed path
        expected = schoolbook(a, b, size)
        assert qseries._kronecker(a, b, size, bits) == expected
        sa, sb = PowerSeries(a, lead=-3), PowerSeries(b, lead=1)
        assert_product(sa * sb, sa, sb)
        # and the square of a, packed once
        bits = 2 * max(map(int.bit_length, a))
        assert qseries._kronecker(a, a, len(a), bits) == \
            schoolbook(a, a, len(a))
        assert_product(sa * sa, sa, sa)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_every_sign_at_short_windows(self, size):
        # windows of 1-3 slots, where the odd half holds no slot or one,
        # each list one longer than the window; the largest values fill
        # the slot to its sign bit
        values = (-(2 ** 9), -(2 ** 9 - 1), -1, 0, 2 ** 9 - 1)
        for a in map(list, product(values, repeat=size + 1)):
            assert qseries._kronecker(a, a, size, 20) == \
                schoolbook(a, a, size)
            for b in map(list, product(values, repeat=size)):
                assert qseries._kronecker(a, b, size, 20) == \
                    schoolbook(a, b, size)


@settings(max_examples=300, deadline=None)
@given(series_pairs(120, 300), st.integers(-6, 6), st.integers(1, 7))
def test_square_is_the_general_product(x, lead, ell):
    # a * a takes the square on either path; an equal copy the general
    # product
    coeffs = x[0].coeffs
    a, twin = (PowerSeries(coeffs, lead=lead) for _ in range(2))
    assert a.nums is not twin.nums
    square = a * a
    general = a * twin
    assert (square.lead, square.den, square.nums) == \
        (general.lead, general.den, general.nums)
    assert_product(square, a, twin)
    trace = a.product_trace(a, ell)
    expected = a.product_trace(twin, ell)
    assert (trace.lead, trace.den, trace.nums) == \
        (expected.lead, expected.den, expected.nums)


@st.composite
def trace_factors(draw):
    """(PowerSeries, Ref), possibly empty, with sparse numerators from
    substituting x^m."""
    coeffs = draw(st.lists(st.one_of(st.just(0), coefficients), max_size=24))
    lead, m = draw(st.integers(-9, 9)), draw(st.integers(1, 3))
    ref = Ref(coeffs, lead).rescale(m)
    return PowerSeries(ref.coeffs, lead=ref.lead), ref


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 7))
def test_product_trace_is_the_progression_of_the_product(data, ell):
    (a, ra), (b, rb) = (data.draw(trace_factors()) for _ in range(2))
    try:
        expected = (a * b).extract_progression(ell)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            a.product_trace(b, ell)
        return
    got = a.product_trace(b, ell)
    assert (got.lead, got.den, got.nums) == \
        (expected.lead, expected.den, expected.nums)
    assert_matches(got, ref_extract(ref_mul(ra, rb), ell))


@pytest.mark.parametrize("kind, ell, baby, giant", [
    ("U", 31, "packed", "packed"),
    ("V", 23, "packed", "packed"),
    # the chain runs on W's re-centred generator, whose numerators carry
    # neither the constant term nor the factor 1008, so even the giant
    # square packs
    ("W", 23, "packed", "packed"),
    ("Phi", 13, "dot", "dot"),
])
def test_power_traces_route_products_by_width(monkeypatch, kind, ell, baby,
                                              giant):
    # in the trace chain the m - 1 baby steps T^2..T^m come first, then
    # the one giant square T^(2m), then one product_trace for every k
    # that is no formed power; T is R re-centred for U, V and W, and R
    # itself for Phi
    taken, span, k_maxes = [], [], []
    packed, dot, traces = qseries._kronecker, qseries._convolve, \
        builder.power_traces

    def spy_packed(a, b, size, bits):
        taken.append("packed")
        return packed(a, b, size, bits)

    def spy_dot(a, b, size, slots):
        taken.append("dot" if slots.step == 1 else f"trace {slots.step}")
        return dot(a, b, size, slots)

    def spy_traces(big_r, level, k_max):
        k_maxes.append(k_max)
        span.append(len(taken))
        out = traces(big_r, level, k_max)
        span.append(len(taken))
        return out

    monkeypatch.setattr(qseries, "_kronecker", spy_packed)
    monkeypatch.setattr(qseries, "_convolve", spy_dot)
    monkeypatch.setattr(builder, "power_traces", spy_traces)
    builder.build(kind, ell)
    taken = taken[span[0]:span[1]]
    # the power sums of all ell + 1 roots for U, V, W and Ua; Phi traces
    # only its ell conjugates
    k_max, = k_maxes
    assert k_max == (ell if kind == "Phi" else ell + 1)
    m = max(builder.isqrt(k_max - 1) + 1, -(-k_max // 3))
    # k = t*m + j with 1 <= j <= m reaches k_max in one giant step
    assert (k_max - 1) // m == 2
    # every k past m but 2m, the one formed giant step, is traced
    n_traced = k_max - m - 1
    assert len(taken) == m - 1 + 1 + n_traced
    assert taken[:m] == [baby] * (m - 1) + [giant]
    # product_trace reads 1/ell of the slots: always dot products
    assert taken[m:] == [f"trace {ell}"] * n_traced


def reference_gauss_jordan(rows, rhs, m):
    """Fraction Gauss-Jordan over an overdetermined system."""
    aug = [[Fraction(v) for v in row] + [Fraction(r)]
           for row, r in zip(rows, rhs)]
    for col in range(m):
        pr = next((i for i in range(col, len(aug)) if aug[i][col]), None)
        if pr is None:
            raise BasisMatchError("rank-deficient")
        aug[col], aug[pr] = aug[pr], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(len(aug)):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    if any(row[m] for row in aug[m:]):
        raise BasisMatchError("inconsistent")
    return [aug[k][m] for k in range(m)]


@st.composite
def weighted_forms(draw):
    """(w, drawn c_ab, window end): a weight with a nonempty E4E6 basis,
    rational coefficients for it, and Sturm to Sturm + 4 known rows."""
    w = draw(st.integers(0, 30).filter(form_basis_exponents))
    exps = form_basis_exponents(w)
    cs = draw(st.lists(st.one_of(st.just(0), scalars),
                       min_size=len(exps), max_size=len(exps)))
    end = w // 6 + 1 + draw(st.integers(0, 4))
    return w, {ab: Fraction(c) for ab, c in zip(exps, cs)}, end


@settings(max_examples=300, deadline=None)
@given(weighted_forms(), st.data())
def test_match_to_form_basis_matches_fraction_gauss_jordan(form, data):
    w, drawn, end = form
    e4, e6 = eisenstein_series(4, end), eisenstein_series(6, end)
    exps = list(drawn)
    monomials = [e4 ** a * e6 ** b for a, b in exps]
    s = PowerSeries([0] * end)
    for c, f in zip(drawn.values(), monomials):
        s = s + f * c
    expected = {ab: c for ab, c in drawn.items() if c}
    rows = [[f.nums[n] for f in monomials] for n in range(end)]
    oracle = reference_gauss_jordan(rows, s.coeffs, len(exps))
    assert {ab: c for ab, c in zip(exps, oracle) if c} == expected
    assert dict(builder.match_to_form_basis(s, w).items()) == expected
    # the first len(exps) rows fix the fit; every later one is checked
    if end > len(exps):
        row = data.draw(st.integers(len(exps), end - 1))
        bump = [0] * end
        bump[row] = data.draw(scalars.filter(bool))
        with pytest.raises(BasisMatchError):
            builder.match_to_form_basis(s + PowerSeries(bump), w)
    if w >= 6:
        with pytest.raises(PrecisionError):
            builder.match_to_form_basis(s.truncate(w // 6), w)


def ref_expand(name, prec, ell):
    """The named expansions built from the reference operations."""
    def eisenstein(weight, n):
        mult, r = {2: (-24, 1), 4: (240, 3), 6: (-504, 5)}[weight]
        return Ref([1] + [mult * sum(d ** r for d in range(1, k + 1)
                                     if k % d == 0) for k in range(1, n)])

    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    delta = ref_scale(ref_add(ref_pow(e4, 3), ref_scale(ref_pow(e6, 2), -1)),
                      Fraction(1, 1728))
    e2 = eisenstein(2, prec)
    fn = ref_truncate(ref_add(e2, ref_scale(e2.rescale(ell), -ell)), prec)
    if name == "f":
        prod = Ref([1] + [0] * (prec - 1))
        for n in range(1, prec):
            for mm in (n, ell * n):
                if mm < prec:
                    factor = Ref([1] + [0] * (prec - 1))
                    factor.coeffs[mm] = Fraction(-1)
                    prod = ref_mul(ref_mul(prod, factor), factor)
        return Ref(prod.coeffs, (ell + 1) // 12)
    return {"E2": e2, "E4": e4, "E6": e6, "Delta": delta,
            "j": ref_mul(ref_pow(e4, 3), ref_inverse(delta)),
            "F": fn, "sigma1": ref_scale(fn, Fraction(-ell, 2))}[name]


@pytest.mark.parametrize("prec", [10, 40])
@pytest.mark.parametrize("name", qseries._FORM_NAMES)
def test_series_command_matches_fraction_reference(name, prec, capsys):
    ell = 11
    assert cli.main(["series", "--name", name, "--prec", str(prec),
                     "--ell", str(ell)]) == 0
    ref = ref_expand(name, prec, ell)
    assert capsys.readouterr().out.splitlines() == [
        f"{n} {c}" for n, c in zip(range(ref.lead, ref.end), ref.coeffs)]
