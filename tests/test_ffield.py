"""Finite-field layer: scalars, polynomials, roots, specialization,
derivative bundles, division polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ccrpoly import isogeny
from ccrpoly.errors import GcdDegreeTwo, SingularCurve, VerificationError
from ccrpoly.ffield import (
    CurveParams,
    DerivativeBundle,
    PrimeField,
    UniPoly,
    derivative_bundle,
    division_poly,
    is_probable_prime,
    roots,
    specialize,
)
from ccrpoly.symbolic import MultiPoly
from ccrpoly.trivariate import TrivariatePoly
from oracles import evaluate, fraction_mod

P = 1009


@pytest.fixture(scope="module")
def fld():
    return PrimeField(P)


@pytest.fixture(scope="module")
def curve13(fld):
    return CurveParams(fld, 1, 3)


# p - 1 has 2-adic valuation 5, 2, 1, 1 and 4: Tonelli-Shanks at several
# depths and the (p+1)/4 power
_SQRT_PRIMES = (97, 101, 103, 2**256 - 189, 2**256 - 2063)


def _non_residue(p: int) -> int:
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


class TestPrimeField:
    def test_primality_gate(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(9)
        with pytest.raises(ValueError, match="exceed 3"):
            PrimeField(3)
        with pytest.raises(ValueError, match="exceed 3"):
            PrimeField(2)
        PrimeField(5)
        PrimeField(2**255 - 19)

    def test_probable_prime(self):
        assert is_probable_prime(2) and is_probable_prime(97)
        assert not is_probable_prime(1) and not is_probable_prime(91)
        # Carmichael number
        assert not is_probable_prime(561)

    def test_counters(self):
        fld = PrimeField(101)
        assert fld.mul_count == 0
        # x^5 is two squarings and one multiply
        assert fld.pow(7, 5) == pow(7, 5, 101)
        assert fld.mul_count == 3
        inv = fld.inv(7)
        assert inv * 7 % 101 == 1
        assert fld.inv_count == 1

    def test_zero_inverse(self, fld):
        with pytest.raises(ZeroDivisionError):
            fld.inv(0)

    @pytest.mark.parametrize("p", _SQRT_PRIMES)
    def test_sqrt(self, p):
        fld = PrimeField(p)
        rng = random.Random(p)
        for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]:
            r = fld.sqrt(x * x)
            assert r * r % p == x * x % p
        with pytest.raises(ValueError, match="not a square"):
            fld.sqrt(_non_residue(p))

    def test_sqrt_count(self):
        # p = 3 (mod 4): one exponentiation by e = (p+1)/4 and the check
        p = 2**256 - 189
        fld = PrimeField(p)
        e = (p + 1) // 4
        fld.sqrt(4)
        assert fld.mul_count == e.bit_length() + bin(e).count("1") - 1


class TestUniPoly:
    def test_normalization(self, fld):
        assert UniPoly(fld, [1, 2, 0, 0]).coeffs == [1, 2]
        assert UniPoly(fld, [0, 0]).is_zero()
        assert UniPoly(fld, [-1]).coeffs == [P - 1]
        assert UniPoly(fld, []).degree == -1

    def test_ring_ops(self, fld):
        x = UniPoly.x(fld)
        f = x * x - 1
        g = x - 1
        assert (f + g).coeffs == [P - 2, 1, 1]
        assert (f * g).coeffs == [1, P - 1, P - 1, 1]
        assert (2 * g).coeffs == [P - 2, 2]
        assert (x ** 3).coeffs == [0, 0, 0, 1]

    def test_divmod(self, fld):
        x = UniPoly.x(fld)
        q, r = divmod(x ** 3, x)
        assert q == x * x and r.is_zero()
        q, r = divmod(x ** 2 + 1, 2 * x - 1)
        # back-substitute
        assert q * (2 * x - 1) + r == x ** 2 + 1
        with pytest.raises(ZeroDivisionError):
            divmod(x, UniPoly(fld, []))

    def test_gcd_monic(self, fld):
        x = UniPoly.x(fld)
        g = (x * x - 1).gcd(x - 1)
        assert g == x - 1
        # gcd normalizes the leading coefficient even off monic inputs
        g = (3 * (x - 5) * (x - 7)).gcd(5 * (x - 5))
        assert g == x - 5

    def test_powmod_small_field(self):
        f5 = PrimeField(5)
        x = UniPoly.x(f5)
        mod = x * x + 1
        # X^5 = X*(X^2)^2 = X*(-1)^2 = X mod (X^2+1)
        assert x.powmod(5, mod) == x

    def test_evaluate(self, fld):
        x = UniPoly.x(fld)
        f = x ** 3 + 2 * x + 5
        assert f.evaluate(10) == 1025 % P


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _schoolbook_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _strip(out)


def _schoolbook_powmod(base, e, mod, p):
    """(coefficients, schoolbook units) of base^e mod mod: the reference
    for UniPoly.powmod, counting a product of lengths m and n as m*n and
    a reduction of length n by degree d as (n - d)*d.  Lengths are those
    of UniPoly, whose coefficient lists carry no trailing zeros."""
    units = 0

    def mul(a, b):
        nonlocal units
        units += len(a) * len(b)
        return _schoolbook_mul(a, b, p)

    def rem(a):
        nonlocal units
        d = len(mod) - 1
        a = list(a)
        if len(a) > d:
            units += (len(a) - d) * d
            for k in range(len(a) - 1, d - 1, -1):
                c = a[k]
                for i in range(d + 1):
                    a[k - d + i] = (a[k - d + i] - c * mod[i]) % p
        return _strip(a[:d])

    if mod[-1] != 1:
        mod = mul([pow(mod[-1], -1, p)], mod)
    if e == 0:
        return rem([1]), units
    base = rem(_strip(list(base)))
    result = [1]
    for bit in bin(e)[2:]:
        result = rem(mul(result, result))
        if bit == "1":
            result = rem(mul(result, base))
    return result, units


_PRIMES = (101, 10007, 2**256 - 189)


@st.composite
def _powmod_cases(draw):
    p = draw(st.sampled_from(_PRIMES))
    d = draw(st.integers(1, 40))
    residue = st.integers(0, p - 1)
    lead = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
    mod = draw(st.lists(residue, min_size=d, max_size=d)) + [lead]
    shape = draw(st.sampled_from(("zero", "x", "short", "long")))
    if shape == "zero":
        base = []
    elif shape == "x":
        base = [0, 1]
    else:
        n = draw(st.integers(1, d) if shape == "short"
                 else st.integers(d + 1, 2 * d + 3))
        base = draw(st.lists(residue, min_size=n, max_size=n))
    e = draw(st.sampled_from((0, 1, 2, p, (p - 1) // 2))
             | st.integers(0, 2**64))
    return p, mod, base, e


class TestPackedArithmetic:
    """The packed product and powmod against test-local schoolbook
    references, values and mul_count alike."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_powmod_cases())
    def test_powmod_matches_schoolbook(self, case):
        p, mod, base, e = case
        fld = PrimeField(p)
        want, units = _schoolbook_powmod(base, e, mod, p)
        got = UniPoly(fld, base).powmod(e, UniPoly(fld, mod))
        assert got.coeffs == want
        assert fld.mul_count == units
        # one inversion per call, and only to make the modulus monic
        assert fld.inv_count == (mod[-1] != 1)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_PRIMES).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), max_size=40),
        st.lists(st.integers(0, p - 1), max_size=40))))
    def test_product_matches_schoolbook(self, case):
        p, a, b = case
        fld = PrimeField(p)
        a, b = UniPoly(fld, a), UniPoly(fld, b)
        for u, v in ((a, b), (a, a)):
            before = fld.mul_count
            assert (u * v).coeffs == _schoolbook_mul(u.coeffs, v.coeffs, p)
            assert fld.mul_count - before == len(u.coeffs) * len(v.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((97, 101, 103)).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=12),
        st.lists(st.integers(0, p - 1), max_size=6),
        st.integers(1, p - 1))), st.integers(0, 2**32))
    def test_roots_match_brute_force(self, case, seed):
        p, factors, cofactor, lead = case
        fld = PrimeField(p)
        x = UniPoly.x(fld)
        f = UniPoly(fld, [lead])
        for r in factors:
            f = f * (x - r)
        f = f * UniPoly(fld, cofactor + [1])
        want = [r for r in range(p) if f.evaluate(r) == 0]
        assert roots(f, seed) == want

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((97, 101, 103, 2**256 - 2063)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(0, p - 1), unique=True, max_size=10),
            st.lists(st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)),
                     max_size=3))), st.integers(0, 2**32))
    def test_roots_of_linear_and_irreducible_quadratic_factors(self, case,
                                                              seed):
        """Distinct linear factors times quadratics (X + u)^2 - n v^2 with
        n a non-residue, which have no root in F_p."""
        p, linear, quadratics = case
        fld = PrimeField(p)
        n = _non_residue(p)
        x = UniPoly.x(fld)
        f = UniPoly(fld, [1])
        for r in linear:
            f = f * (x - r)
        for u, v in quadratics:
            f = f * ((x + u) * (x + u) - n * v * v)
        assert roots(f, seed) == sorted(linear)


class TestRoots:
    def test_u5_worked_curve(self, fld, curve13, u5):
        assert roots(specialize(u5, curve13), seed=7) == [584, 664]

    def test_ua11_worked_curve(self, fld, curve13, ua11):
        assert roots(specialize(ua11, curve13), seed=7) == [65, 333]

    def test_square_root_of_minus_one(self, fld):
        f = UniPoly(fld, [1, 0, 1])
        r = roots(f, seed=0)
        assert len(r) == 2 and r[0] + r[1] == P
        assert r[0] * r[0] % P == P - 1

    def test_seed_independence(self, fld, curve13, u5):
        f = specialize(u5, curve13)
        baseline = roots(f, seed=0)
        for seed in (1, 2, 999, "text-seed"):
            assert roots(f, seed=seed) == baseline

    def test_repeated_factors_and_zero_root(self, fld):
        x = UniPoly.x(fld)
        f = x * (x - 3) * (x - 3) * (x - 5)
        assert roots(f, seed=4) == [0, 3, 5]

    def test_count_matches_linear_part(self, fld):
        rng = random.Random(11)
        x = UniPoly.x(fld)
        for _ in range(10):
            f = UniPoly(fld, [rng.randrange(P) for _ in range(8)] + [1])
            rs = roots(f, seed=2)
            lin = (x.powmod(P, f) - x).gcd(f)
            assert len(rs) == lin.degree
            for r in rs:
                assert f.evaluate(r) == 0

    def test_degenerate_inputs(self, fld):
        with pytest.raises(ValueError):
            roots(UniPoly(fld, []), seed=0)
        assert roots(UniPoly(fld, [4]), seed=0) == []


class TestCurveParams:
    def test_nonsingular_gate(self, fld):
        with pytest.raises(SingularCurve):
            CurveParams(fld, 0, 0)
        # 4*(-3)^3 + 27*2^2 = -108 + 108
        with pytest.raises(SingularCurve):
            CurveParams(fld, -3, 2)

    def test_normalized_eisenstein_values(self, fld, curve13):
        assert curve13.e4 == -1 * pow(3, P - 2, P) % P == 336
        assert curve13.e6 == -3 * pow(2, P - 2, P) % P == 503

    def test_j_invariant(self, fld, curve13):
        # j = 1728*4A^3/(4A^3+27B^2) must agree with the E4/E6 form
        a, b = 1, 3
        want = 1728 * 4 * a**3 * pow(4 * a**3 + 27 * b * b, P - 2, P) % P
        assert curve13.j_invariant() == want == 269


class TestSpecialize:
    def test_u5_frozen_polynomial(self, fld, curve13, u5):
        want = UniPoly(fld, [-720, -384, -80, 480, 20, 0, 1])
        assert specialize(u5, curve13) == want

    def test_basis_independence(self, fld, curve13, u5, ua11):
        for poly in (u5, ua11):
            assert specialize(poly, curve13) == specialize(poly.to_basis("AB"), curve13)

    def test_leading_monomial_is_pure_x(self, u5):
        # every non-leading monomial carries E4 or E6, so A=B=0 would
        # collapse U5 to X^6
        for (i, a, b) in u5.terms:
            if i == 6:
                assert (a, b) == (0, 0)
            else:
                assert a + b > 0

    def test_p_equal_ell_rejected(self, u5):
        f5 = PrimeField(5)
        c = CurveParams(f5, 1, 3)
        with pytest.raises(ValueError, match="level"):
            specialize(u5, c)


class TestDerivativeBundle:
    def test_worked_example_firsts(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 584)
        assert bundle.u == 0
        assert (bundle.du_s, bundle.du_4, bundle.du_6) == (905, 779, 140)

    def test_worked_example_seconds(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 584)
        assert (bundle.du_s4, bundle.du_s6, bundle.du_46) == (44, 942, 493)

    def test_ab_storage_agrees(self, curve13, u5):
        assert derivative_bundle(u5.to_basis("AB"), curve13, 584) == \
            derivative_bundle(u5, curve13, 584)

    def test_atkin_root_bundle_value(self, curve13, ua11):
        assert derivative_bundle(ua11, curve13, 65).u == 0

    def test_non_root_rejected(self, curve13, u5):
        with pytest.raises(ValueError, match="not a root"):
            derivative_bundle(u5, curve13, 585)

    def test_second_root(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 664)
        assert bundle.u == 0 and bundle.du_s != 0


class TestDivisionPoly:
    def test_first_values_symbolic(self):
        v = ("X", "A", "B")
        one = MultiPoly.const(v, 1)
        assert division_poly(-1) == -one
        assert division_poly(0).is_zero
        assert division_poly(1) == one
        assert division_poly(2) == one

    def test_f3(self):
        v = ("X", "A", "B")
        x = MultiPoly.gen(v, "X")
        a = MultiPoly.gen(v, "A")
        b = MultiPoly.gen(v, "B")
        assert division_poly(3) == 3 * x**4 + 6 * a * x**2 + 12 * b * x - a * a

    def test_f4(self):
        # psi_4 = 4Y*(X^6+5AX^4+20BX^3-5A^2X^2-4ABX-8B^2-A^3), so
        # f_4 = psi_4/(2Y) carries leading coefficient 4/2 = 2; the
        # monic variant would break the (n odd -> lead n) pattern that
        # test_doubling_composition pins for f_5
        v = ("X", "A", "B")
        x = MultiPoly.gen(v, "X")
        a = MultiPoly.gen(v, "A")
        b = MultiPoly.gen(v, "B")
        monic = (x**6 + 5 * a * x**4 + 20 * b * x**3 - 5 * a * a * x**2
                 - 4 * a * b * x - 8 * b * b - a**3)
        assert division_poly(4) == 2 * monic

    def test_leading_coefficients(self, fld, curve13):
        for n in range(3, 21):
            lead = division_poly(n, curve13).leading()
            assert lead == (n if n % 2 else n // 2) % P

    def test_degree_formula(self, fld, curve13):
        for n in range(3, 21):
            want = (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2
            assert division_poly(n, curve13).degree == want
        assert division_poly(30, curve13).degree == (900 - 4) // 2

    def test_weighted_homogeneity(self):
        # X weight 1, A weight 2, B weight 3
        for n in range(3, 13):
            f = division_poly(n)
            deg = f.degree_in("X")
            for (i, a, b) in f.terms:
                assert i + 2 * a + 3 * b == deg

    def test_symbolic_field_agreement(self, fld, curve13):
        for n in (5, 8, 11):
            sym = division_poly(n)
            out = [0] * (sym.degree_in("X") + 1)
            for (i, a, b), c in sym.terms.items():
                out[i] = (out[i] + int(c) * pow(3, b, P)) % P
            assert UniPoly(fld, out) == division_poly(n, curve13)

    def test_doubling_composition(self, fld, curve13):
        # x([4]P) computed by composing the doubling map twice must
        # equal x - f3*f5/(4*(x^3+Ax+B)*f4^2); this pins the even-index
        # normalization and the recurrence output f5 at once
        a, b = curve13.A, curve13.B
        f3 = division_poly(3, curve13)
        f4 = division_poly(4, curve13)
        f5 = division_poly(5, curve13)
        assert f5.leading() == 5

        def dbl(x):
            num = (x**4 - 2 * a * x * x - 8 * b * x + a * a) % P
            den = 4 * (x**3 + a * x + b) % P
            return None if den == 0 else num * pow(den, P - 2, P) % P

        checked = 0
        rng = random.Random(99)
        while checked < 10:
            x = rng.randrange(P)
            d1 = dbl(x)
            d2 = dbl(d1) if d1 is not None else None
            if d2 is None:
                continue
            den = 4 * (x**3 + a * x + b) * pow(f4.evaluate(x), 2, P) % P
            if den == 0:
                continue
            rhs = (x - f3.evaluate(x) * f5.evaluate(x) * pow(den, P - 2, P)) % P
            assert d2 == rhs
            checked += 1

    def test_range_gate(self, curve13):
        with pytest.raises(ValueError):
            division_poly(-2)
        with pytest.raises(ValueError):
            division_poly(31)
        with pytest.raises(ValueError):
            division_poly(31, curve13)


class TestRootCountProperty:
    @pytest.mark.parametrize("ell", [5, 7])
    def test_specialized_u_root_counts(self, fld, ell, u5, u7):
        poly = {5: u5, 7: u7}[ell]
        rng = random.Random(17)
        seen = 0
        while seen < 50:
            a, b = rng.randrange(P), rng.randrange(P)
            if (4 * a**3 + 27 * b * b) % P == 0:
                continue
            seen += 1
            c = CurveParams(fld, a, b)
            n = len(roots(specialize(poly, c), seed=5))
            assert n in (0, 1, 2, ell + 1)

    def test_atkin_curve_has_no_roots(self, fld, u5):
        # frozen Atkin instance reused by the command-line tests
        c = CurveParams(fld, 1, 2)
        assert roots(specialize(u5, c), seed=3) == []


# ---------------------------------------------------------------------------
# The compiled F_p tables behind specialize, derivative_bundle and the
# B*-slot polynomial, against exact evaluation over Fractions that is
# reduced mod p only at the end.

_TABLE_PRIMES = (10007, 2**256 - 189)
_TABLE_POLYS = ("u5", "u11", "ua11", "v7")


def _curve_values(P, curve) -> tuple:
    """The pair P's basis is evaluated at: (E4, E6) or (A, B)."""
    return (curve.e4, curve.e6) if P.basis == "E4E6" else (curve.A, curve.B)


def _oracle_bundle(P, curve, root: int) -> DerivativeBundle:
    """The bundle from TrivariatePoly.partial and evaluate.  An AB-basis
    P is differentiated in A and B, and the chain rule A = -3 E4,
    B = -2 E6 turns those into E4 and E6 partials."""
    s4, s6 = (1, 1) if P.basis == "E4E6" else (-3, -2)
    px, p4 = P.partial(0), P.partial(1)
    entries = ((P, 1), (px, 1), (p4, s4), (P.partial(2), s6),
               (px.partial(1), s4), (px.partial(2), s6),
               (p4.partial(2), s4 * s6))
    vals = _curve_values(P, curve)
    return DerivativeBundle(*(
        fraction_mod(scale * evaluate(q, root, *vals), curve.field.p)
        for q, scale in entries))


def _check_specialize(P, curve):
    """specialize(P, curve) agrees with P at ell + 2 points, which fixes
    a polynomial of degree ell + 1."""
    spec = specialize(P, curve)
    assert spec.degree == P.ell + 1
    vals = _curve_values(P, curve)
    for x in range(P.ell + 2):
        assert spec.evaluate(x) == fraction_mod(evaluate(P, x, *vals),
                                                curve.field.p)
    return spec


@st.composite
def _table_curves(draw):
    p = draw(st.sampled_from(_TABLE_PRIMES))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a ** 3 + 27 * b * b) % p)
    return CurveParams(PrimeField(p), a, b)


def _ab_slot_poly(field, ua, x_val: int, a_val: int) -> UniPoly:
    """The B-slot polynomial read off the AB basis over Fractions."""
    ab = ua.to_basis("AB")
    out = [Fraction(0)] * (max(b for _, _, b in ab.terms) + 1)
    for (i, a, b), c in ab.terms.items():
        out[b] += c * x_val ** i * a_val ** a
    return UniPoly(field, [fraction_mod(c, field.p) for c in out])


class TestCompiledTables:
    @pytest.mark.parametrize("basis", ("E4E6", "AB"))
    @pytest.mark.parametrize("name", _TABLE_POLYS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(curve=_table_curves(), seed=st.integers(0, 2**32))
    def test_specialize_and_bundle_match_exact_partials(
            self, request, name, basis, curve, seed):
        P = request.getfixturevalue(name).to_basis(basis)
        spec = _check_specialize(P, curve)
        for root in roots(spec, seed):
            assert derivative_bundle(P, curve, root) == \
                _oracle_bundle(P, curve, root)

    def test_second_call_compiles_nothing(self, u5, monkeypatch):
        P = u5.to_basis("AB")
        curve = CurveParams(PrimeField(10007), 1, 1)
        calls = []

        def counted(name):
            real = getattr(TrivariatePoly, name)

            def wrapper(self, *args):
                calls.append(name)
                return real(self, *args)
            return wrapper

        for name in ("to_basis", "partial"):
            monkeypatch.setattr(TrivariatePoly, name, counted(name))
        spec = specialize(P, curve)
        assert calls == ["to_basis"]
        rs = roots(spec, 0)
        assert rs
        for _ in range(2):
            specialize(P, curve)
            for root in rs:
                derivative_bundle(P, curve, root)
        assert calls == ["to_basis"]

    def test_one_polynomial_two_primes(self, u11):
        P = TrivariatePoly("U", 11, "E4E6", u11.terms)
        curves = [CurveParams(PrimeField(p), 3, 5) for p in _TABLE_PRIMES]
        for curve in curves + curves:
            _check_specialize(P, curve)
        assert sorted(P._fp) == sorted(_TABLE_PRIMES)
        small, big = (P._fp[p] for p in _TABLE_PRIMES)
        assert small != big

    @pytest.mark.parametrize("basis", ("E4E6", "AB"))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(curve=_table_curves(), x=st.integers(0, 2**256),
           a_val=st.integers(0, 2**256))
    def test_b_star_matches_ab_slot_polynomial(self, ua11, basis, curve,
                                               x, a_val):
        ua = ua11.to_basis(basis)
        fld = curve.field
        x, a_val = x % fld.p, a_val % fld.p
        assert isogeny._ua_b_slot_poly(fld, ua, x, a_val) == \
            _ab_slot_poly(fld, ua, x, a_val)

        def b_stars():
            out = []
            for f in roots(specialize(ua, curve), 0):
                try:
                    out.append(isogeny.atkin_b_star(11, f, a_val, curve, ua))
                except (GcdDegreeTwo, VerificationError) as exc:
                    out.append(type(exc))
            for r in isogeny.atkin_step(curve, 11, ua):
                out.append(r.b_star)
            return out

        got = b_stars()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(isogeny, "_ua_b_slot_poly", _ab_slot_poly)
            assert b_stars() == got
