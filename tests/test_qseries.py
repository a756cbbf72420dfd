"""Series ring: windows, operators and the classical form identities."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly import builder, cli, qseries
from ccrpoly.errors import BasisMatchError, PrecisionError
from ccrpoly.qseries import (PowerSeries, delta_series, eisenstein_series,
                             eta_squared_product, expand, fn_series, j_series,
                             sigma1_series)
from oracles import ref_qdiff, zero_through


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


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    s = PowerSeries([rng.randrange(-9, 10) for _ in range(12)])
    assert (s ** 3).coeffs == (s * s * s).coeffs
    assert (s ** 1).coeffs == s.coeffs
    assert (s ** 0).coefficient(0) == 1


def test_qdiff_basics():
    # qdiff(q^n) = n q^n
    s = PowerSeries([0, 1, 0, 5])
    d = ref_qdiff(s)
    assert d.coefficient(1) == 1
    assert d.coefficient(3) == 15
    # with step 2 the operator still acts as q d/dq: x^3 = q^(3/2)
    t = PowerSeries([0, 0, 0, 1], step=2)
    assert ref_qdiff(t).coefficient(3) == Fraction(3, 2)


def test_substitute_q_power_and_extract_roundtrip():
    s = PowerSeries([2, 3, 5, 7])
    sub = s.substitute_q_power(3)
    assert sub.coefficient(0) == 2
    assert sub.coefficient(3) == 3
    assert sub.coefficient(4) == 0
    assert sub.end == 12
    back = sub.reinterpret(3).extract_progression(3)
    assert [back.coefficient(n) for n in range(4)] == [6, 9, 15, 21]


def test_extract_progression_drops_other_residues():
    # x^1 + x^2 + x^4 with step 2: only x^2 and x^4 survive, times 2
    s = PowerSeries([0, 1, 1, 0, 1], step=2)
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
    s = eisenstein_series(2, 4).substitute_q_power(2)
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
    rhs = delta_series(n) * delta_series(3).substitute_q_power(11)
    assert zero_through(lhs - rhs, 24)


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

    def __init__(self, coeffs, lead=0, step=1):
        self.coeffs = [Fraction(c) for c in coeffs]
        self.lead, self.step = lead, step

    @property
    def end(self):
        return self.lead + len(self.coeffs)

    def at(self, n):
        return self.coeffs[n - self.lead] if n >= self.lead else Fraction(0)

    def rescale(self, m, step):
        coeffs = [Fraction(0)] * (m * len(self.coeffs))
        coeffs[::m] = self.coeffs
        return Ref(coeffs, m * self.lead, step)


def ref_aligned(a, b):
    s = lcm(a.step, b.step)
    return a.rescale(s // a.step, s), b.rescale(s // b.step, s)


def ref_add(a, b):
    a, b = ref_aligned(a, b)
    lead, end = min(a.lead, b.lead), min(a.end, b.end)
    if end <= lead:
        raise PrecisionError("empty window")
    return Ref([a.at(n) + b.at(n) for n in range(lead, end)], lead, a.step)


def ref_add_scalar(a, c):
    if a.end <= 0:
        raise PrecisionError("constant term outside the window")
    lead = min(a.lead, 0)
    return Ref([a.at(n) + (c if n == 0 else 0) for n in range(lead, a.end)],
               lead, a.step)


def ref_scale(a, c):
    return Ref([c * v for v in a.coeffs], a.lead, a.step)


def ref_mul(a, b):
    a, b = ref_aligned(a, b)
    size = min(len(a.coeffs), len(b.coeffs))
    out = [sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)),
               Fraction(0)) for k in range(size)]
    return Ref(out, a.lead + b.lead, a.step)


def ref_inverse(a):
    first = next((a.lead + k for k, c in enumerate(a.coeffs) if c), None)
    if first is None:
        raise ZeroDivisionError("zero series")
    u = a.coeffs[first - a.lead:]
    d = [1 / u[0]]
    for k in range(1, len(u)):
        d.append(-sum(u[i] * d[k - i] for i in range(1, k + 1)) / u[0])
    return Ref(d, -first, a.step)


def ref_pow(a, k):
    if k < 0:
        return ref_pow(ref_inverse(a), -k)
    out = Ref([1] + [0] * (len(a.coeffs) - 1), 0, a.step)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_truncate(a, end):
    if end <= a.lead:
        raise PrecisionError("empty window")
    return Ref(a.coeffs[:end - a.lead], a.lead, a.step)


def ref_extract(a, ell):
    qlead, qend = -(-a.lead // ell), -(-a.end // ell)
    return Ref([ell * a.at(n * ell) for n in range(qlead, qend)], qlead, 1)


def assert_matches(s, ref):
    """s has ref's window and coefficients, and is in canonical form."""
    assert (s.step, s.lead) == (ref.step, ref.lead)
    assert s.coeffs == ref.coeffs
    assert all(type(v) is int for v in s.nums) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    twin = PowerSeries(ref.coeffs, lead=ref.lead, step=ref.step)
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
def series_pairs(draw, steps=st.integers(1, 3)):
    """(PowerSeries, Ref) with a negative, zero or positive lead."""
    coeffs = draw(st.lists(st.one_of(st.just(0), coefficients),
                           min_size=1, max_size=9))
    lead, step = draw(st.integers(-4, 4)), draw(steps)
    return PowerSeries(coeffs, lead=lead, step=step), Ref(coeffs, lead, step)


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
           st.integers(1, 3))
    def test_unary_ops(self, x, k, end, m):
        a, ra = x
        agree(a.inverse, lambda: ref_inverse(ra))
        agree(lambda: a ** k, lambda: ref_pow(ra, k))
        agree(lambda: a.truncate(end), lambda: ref_truncate(ra, end))
        agree(lambda: a.substitute_q_power(m),
              lambda: ra.rescale(m, ra.step))
        agree(lambda: a.extract_progression(a.step),
              lambda: ref_extract(ra, ra.step))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), coefficients), min_size=1,
                max_size=40),
       st.integers(-6, 6), st.integers(1, 7))
def test_square_is_the_general_product(coeffs, lead, ell):
    # a * a takes the halved convolution; an equal copy takes the general one
    a, twin = (PowerSeries(coeffs, lead=lead, step=ell) for _ in range(2))
    assert a.nums is not twin.nums
    square = a * a
    general = a * twin
    assert (square.lead, square.den, square.nums) == \
        (general.lead, general.den, general.nums)
    assert_matches(square, ref_mul(Ref(coeffs, lead, ell),
                                   Ref(coeffs, lead, ell)))
    trace = a.product_trace(a, ell)
    expected = a.product_trace(twin, ell)
    assert (trace.lead, trace.den, trace.nums) == \
        (expected.lead, expected.den, expected.nums)


@st.composite
def trace_factors(draw, ell):
    """(PowerSeries, Ref) on step 1, ell or 2, possibly empty, with sparse
    numerators from substituting q^m."""
    coeffs = draw(st.lists(st.one_of(st.just(0), coefficients), max_size=24))
    lead = draw(st.integers(-9, 9))
    step, m = draw(st.sampled_from([1, ell, 2])), draw(st.integers(1, 3))
    return (PowerSeries(coeffs, lead=lead, step=step).substitute_q_power(m),
            Ref(coeffs, lead, step).rescale(m, step))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 7))
def test_product_trace_is_the_progression_of_the_product(data, ell):
    (a, ra), (b, rb) = (data.draw(trace_factors(ell)) for _ in range(2))
    try:
        expected = (a * b).extract_progression(ell)
    except (PrecisionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            a.product_trace(b, ell)
        return
    got = a.product_trace(b, ell)
    assert (got.step, got.lead, got.den, got.nums) == \
        (expected.step, expected.lead, expected.den, expected.nums)
    assert_matches(got, ref_extract(ref_mul(ra, rb), ell))


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
    w = draw(st.integers(0, 30).filter(builder.form_basis_exponents))
    exps = builder.form_basis_exponents(w)
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
    assert builder.match_to_form_basis(s, w) == expected
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
    fn = ref_truncate(ref_add(e2, ref_scale(e2.rescale(ell, 1), -ell)), prec)
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
