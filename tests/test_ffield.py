"""Finite-field layer: scalars, polynomials, roots, specialization,
derivative bundles."""

import random
import types
from fractions import Fraction
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ccrpoly import ffield, isogeny
from ccrpoly.errors import GcdDegreeTwo, SingularCurve, VerificationError
from ccrpoly.ffield import (
    CurveParams,
    DerivativeBundle,
    PrimeField,
    UniPoly,
    _strong_lucas,
    derivative_bundle,
    is_probable_prime,
    roots,
    specialize,
)
from ccrpoly.trivariate import TrivariatePoly
from oracles import evaluate, fraction_mod

P = 1009


@pytest.fixture(scope="module")
def fld():
    return PrimeField(P)


@pytest.fixture(scope="module")
def curve13(fld):
    return CurveParams(fld, 1, 3)


# 103 and 2^256 - 189 are 3 (mod 4), where roots solves a quadratic by the
# (p+1)/4 power; 97, 101 and 2^256 - 2063 are 1 (mod 4), where it splits one
_QUADRATIC_PRIMES = (97, 101, 103, 2**256 - 189, 2**256 - 2063)


def _non_residue(p: int) -> int:
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


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


def _product(fld, *factors) -> UniPoly:
    """The product of coefficient lists, [-r, 1] for X - r."""
    out = [1]
    for f in factors:
        out = _schoolbook_mul(out, f, fld.p)
    return UniPoly(fld, out)


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

    def test_strong_pseudoprimes_to_the_fixed_bases_rejected(self):
        # psi_12 fools the bases 2..37 and is caught by 41; psi_13 fools
        # 2..41 and is caught by the strong Lucas test
        psi_12 = 399165290221 * 798330580441
        psi_13 = 3317044064679887385961981
        assert psi_12 == 318665857834031151167461
        assert not is_probable_prime(psi_12)
        assert not is_probable_prime(psi_13)
        assert is_probable_prime(2 ** 256 - 189)
        assert is_probable_prime(10007)
        assert is_probable_prime(2 ** 127 - 1)
        assert not is_probable_prime((2 ** 89 - 1) ** 2)

    def test_strong_lucas_matches_a_sieve(self):
        # the odd composites below 10^5 that pass are exactly the strong
        # Lucas pseudoprimes for Selfridge's parameters (OEIS A217255)
        n_max = 10 ** 5
        sieve = bytearray([1]) * n_max
        sieve[:2] = b"\0\0"
        for i in range(2, 317):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, n_max, i)))
        passed = [n for n in range(43, n_max, 2)
                  if _strong_lucas(n) and not sieve[n]]
        assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569,
                          25199, 40309, 58519, 75077, 97439]
        assert all(_strong_lucas(n) for n in range(43, n_max, 2)
                   if sieve[n])

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

    @pytest.mark.parametrize("p", _QUADRATIC_PRIMES)
    def test_quadratic_roots(self, p):
        fld = PrimeField(p)
        rng = random.Random(p)
        for r in [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]:
            s = (r + rng.randrange(1, p)) % p
            assert roots(_product(fld, [-r, 1], [-s, 1])) == sorted([r, s])

    def test_quadratic_roots_count(self):
        # p = 3 (mod 4): the Frobenius powmod, the gcd, one exponentiation
        # by (p+1)/4, the check and the formula
        fld = PrimeField(2**256 - 189)
        f = _product(fld, [-12345, 1], [-67890, 1])
        before = fld.mul_count
        assert roots(f) == [12345, 67890]
        assert fld.mul_count - before == 3530


class TestUniPoly:
    def test_normalization(self, fld):
        assert UniPoly(fld, [1, 2, 0, 0]).coeffs == [1, 2]
        assert UniPoly(fld, [0, 0]).is_zero()
        assert UniPoly(fld, [-1]).coeffs == [P - 1]
        assert UniPoly(fld, []).degree == -1

    def test_difference(self, fld):
        f = UniPoly(fld, [-1, 0, 1])
        g = UniPoly(fld, [-1, 1])
        assert (f - g).coeffs == [0, P - 1, 1]
        assert (g - f).coeffs == [0, 1, P - 1]
        # the leading terms cancel, and the result is stripped
        assert (g - UniPoly(fld, [5, 1])).coeffs == [P - 6]
        assert (f - f).is_zero()
        assert f != g and f != f.coeffs and f - UniPoly(fld, []) == f

    def test_divmod(self, fld):
        x = UniPoly.x(fld)
        q, r = divmod(UniPoly(fld, [0, 0, 0, 1]), x)
        assert q == UniPoly(fld, [0, 0, 1]) and r.is_zero()
        f, g = UniPoly(fld, [1, 0, 1]), UniPoly(fld, [-1, 2])
        q, r = divmod(f, g)
        assert q == f // g and r == f % g and r.degree < g.degree
        # back-substitute
        assert f - _product(fld, q.coeffs, g.coeffs) == r
        with pytest.raises(ZeroDivisionError):
            divmod(x, UniPoly(fld, []))

    def test_gcd_monic(self, fld):
        g = UniPoly(fld, [-1, 0, 1]).gcd(UniPoly(fld, [-1, 1]))
        assert g == UniPoly(fld, [-1, 1])
        # gcd normalizes the leading coefficient even off monic inputs
        g = _product(fld, [3], [-5, 1], [-7, 1]).gcd(
            _product(fld, [5], [-5, 1]))
        assert g == UniPoly(fld, [-5, 1])

    def test_powmod_small_field(self):
        f5 = PrimeField(5)
        x = UniPoly.x(f5)
        # X^5 = X*(X^2)^2 = X*(-1)^2 = X mod (X^2+1)
        assert x.powmod(5, UniPoly(f5, [1, 0, 1])) == x

    def test_evaluate(self, fld):
        f = UniPoly(fld, [5, 2, 0, 1])
        assert f.evaluate(10) == 1025 % P


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


# at 2^31 - 1 a slot holds a sum of up to 4 products in one 8-byte word
# and needs 9 bytes from 5 on, so powmod (degree <= 2 against >= 3)
# crosses both packings
_PRIMES = (101, 10007, 2**31 - 1, 2**256 - 189)


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


def _long_division(a, b, p):
    """(quotient, remainder, mul units, inversions) of a by b, b nonzero,
    by schoolbook long division one digit at a time: the reference for
    UniPoly division.  A division of length n by degree d adds
    (n - d)*d, plus n - d and one inversion when the divisor is not
    monic."""
    d = len(b) - 1
    a = list(a)
    if len(a) <= d:
        return [], a, 0, 0
    n = len(a) - d
    inv = pow(b[-1], -1, p)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        q[k] = c = a[k + d] * inv % p
        for i in range(d + 1):
            a[k + i] = (a[k + i] - c * b[i]) % p
    monic = b[-1] == 1
    return (_strip(q), _strip(a[:d]), n * d + (0 if monic else n),
            0 if monic else 1)


def _euclid(a, b, p):
    """(coefficients, mul units, inversions) of the monic gcd of a and b
    by schoolbook Euclid: the reference for UniPoly.gcd.  Each division
    counts as _long_division does; making the result monic adds its
    length and one inversion."""
    muls = invs = 0
    while b:
        _, r, m, i = _long_division(a, b, p)
        muls, invs = muls + m, invs + i
        a, b = b, r
    if a and a[-1] != 1:
        invs += 1
        muls += len(a)
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a, muls, invs


@st.composite
def _division_cases(draw):
    """(p, a, b): a divisor b of degree 0 to 8, monic or not, and a
    dividend a whose quotient has 1 to 9 digits, so both the two-digit
    passes and a leftover one-digit pass are reached."""
    p = draw(st.sampled_from(_PRIMES))
    residue = st.integers(0, p - 1)
    db = draw(st.integers(0, 8))
    n = draw(st.integers(1, 9))
    lead = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
    b = draw(st.lists(residue, min_size=db, max_size=db)) + [lead]
    a = draw(st.lists(residue, min_size=db + n - 1, max_size=db + n - 1))
    return p, a + [draw(st.integers(1, p - 1))], b


@st.composite
def _gcd_cases(draw):
    """(p, g*x, g*y) for random g, x, y, each zero, monic or not."""
    p = draw(st.sampled_from(_PRIMES))

    def poly(max_len):
        n = draw(st.integers(0, max_len))
        if n == 0:
            return []
        lead = 1 if draw(st.booleans()) else draw(st.integers(2, p - 1))
        return draw(st.lists(st.integers(0, p - 1), min_size=n - 1,
                             max_size=n - 1)) + [lead]

    g = poly(8)
    return p, _schoolbook_mul(g, poly(10), p), _schoolbook_mul(g, poly(10), p)


class TestPackedArithmetic:
    """powmod and gcd against test-local schoolbook references, values
    and counts alike, and the packing powmod runs on."""

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

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((1, 2, 4, 5, 8, 9, 33)).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(
            st.integers(0, 2 ** (8 * w) - 1), max_size=40))))
    def test_pack_round_trip(self, case):
        """Unpacking inverts packing, and the word path at width 8 packs
        the same integer as the byte-by-byte layout does; the byte path
        a big-endian host takes at width 8 runs with the host's byte
        order read as big."""
        width, coeffs = case
        want = sum(c << (8 * width * i) for i, c in enumerate(coeffs))
        for order in ("little", "big"):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ffield.sys, "byteorder", order)
                packed = ffield._pack(coeffs, width)
                assert packed == want
                assert ffield._unpack(packed, width, len(coeffs)) == coeffs

    def test_slot_widths(self):
        # one word up to 4 products of residues mod 2^31 - 1, 9 bytes from 5
        assert [ffield._slot_bytes(2**31 - 1, t) for t in (1, 4, 5)] \
            == [8, 8, 9]
        assert ffield._slot_bytes(101, 1) == 8
        assert ffield._slot_bytes(2**256 - 189, 1) == 64

    @settings(max_examples=300, deadline=None)
    @given(_division_cases())
    def test_divmod_matches_long_division(self, case):
        p, a, b = case
        fld = PrimeField(p)
        want_q, want_r, muls, invs = _long_division(a, b, p)
        f, g = UniPoly(fld, a), UniPoly(fld, b)
        q, r = divmod(f, g)
        assert (q.coeffs, r.coeffs) == (want_q, want_r)
        assert (fld.mul_count, fld.inv_count) == (muls, invs)
        assert f // g == q and f % g == r

    @settings(max_examples=200, deadline=None)
    @given(_gcd_cases())
    def test_gcd_matches_euclid(self, case):
        p, a, b = case
        for u, v in ((a, b), (b, a)):
            fld = PrimeField(p)
            want, muls, invs = _euclid(u, v, p)
            assert UniPoly(fld, u).gcd(UniPoly(fld, v)).coeffs == want
            assert (fld.mul_count, fld.inv_count) == (muls, invs)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((97, 101, 103)).flatmap(lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(0, p - 1), min_size=1, max_size=12),
        st.lists(st.integers(0, p - 1), max_size=6),
        st.integers(1, p - 1))))
    def test_roots_match_brute_force(self, case):
        p, factors, cofactor, lead = case
        fld = PrimeField(p)
        f = _product(fld, [lead], *([-r, 1] for r in factors), cofactor + [1])
        want = [r for r in range(p) if f.evaluate(r) == 0]
        assert roots(f) == want

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((97, 101, 103, 2**256 - 2063)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(0, p - 1), unique=True, max_size=10),
            st.lists(st.tuples(st.integers(0, p - 1), st.integers(1, p - 1)),
                     max_size=3))))
    def test_roots_of_linear_and_irreducible_quadratic_factors(self, case):
        """Distinct linear factors times quadratics (X + u)^2 - n v^2 with
        n a non-residue, which have no root in F_p."""
        p, linear, quadratics = case
        fld = PrimeField(p)
        n = _non_residue(p)
        f = _product(fld, *([-r, 1] for r in linear),
                     *([u * u - n * v * v, 2 * u, 1] for u, v in quadratics))
        assert roots(f) == sorted(linear)


class TestRoots:
    def test_u5_worked_curve(self, fld, curve13, u5):
        assert roots(specialize(u5, curve13)) == [584, 664]

    def test_ua11_worked_curve(self, fld, curve13, ua11):
        assert roots(specialize(ua11, curve13)) == [65, 333]

    def test_square_root_of_minus_one(self, fld):
        f = UniPoly(fld, [1, 0, 1])
        r = roots(f)
        assert len(r) == 2 and r[0] + r[1] == P
        assert r[0] * r[0] % P == P - 1

    @pytest.mark.parametrize("seed", (1, 2, 999, "text-seed"))
    def test_splitting_path_does_not_change_roots(self, fld, monkeypatch,
                                                  seed):
        """The splitting generator is seeded with 0; any other seed takes
        another path to the same sorted roots."""
        f = _product(fld, [1, 1], *([-r, 1] for r in
                                    (3, 17, 29, 40, 57, 64, 71, 98)))
        baseline = roots(f)
        assert baseline == [3, 17, 29, 40, 57, 64, 71, 98, P - 1]
        monkeypatch.setattr(ffield, "random", types.SimpleNamespace(
            Random=lambda _: random.Random(seed)))
        assert roots(f) == baseline

    def test_splitting_generator_made_only_when_a_factor_splits(
            self, monkeypatch):
        """At p = 10007, 3 (mod 4), no root, one root and two roots need
        no splitting and make no generator; four or more roots make it
        once, with the same roots and counts as a generator made on
        every call."""
        made = []

        def counting_random(seed):
            made.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(ffield, "random", types.SimpleNamespace(
            Random=counting_random))
        fld = PrimeField(10007)
        # X^2 + 1 and X^2 + 4 have no root at p = 3 (mod 4); X^3 + 3 has
        # one, since cubing permutes F_p at p = 2 (mod 3)
        no_root, no_root4, one_root = [1, 0, 1], [4, 0, 1], [3, 0, 0, 1]
        for factors, n in (([no_root], 0), ([no_root, no_root4], 0),
                           ([one_root, no_root], 1), ([[-5, 1], no_root], 1),
                           ([[-5, 1], [-17, 1], no_root], 2)):
            assert len(roots(_product(fld, *factors))) == n
        assert made == []
        for rs, counts in (((5, 17, 29, 4001), (1307, 6)),
                           ((0, 1, 2, 3, 9999, 5000, 77), (3553, 12))):
            fld = PrimeField(10007)
            f = _product(fld, *([-r, 1] for r in rs), no_root)
            assert roots(f) == sorted(rs)
            assert (fld.mul_count, fld.inv_count) == counts
            assert made == [0]
            made.clear()

    def test_repeated_factors_and_zero_root(self, fld):
        f = _product(fld, [0, 1], [-3, 1], [-3, 1], [-5, 1])
        assert roots(f) == [0, 3, 5]

    def test_count_matches_linear_part(self, fld):
        rng = random.Random(11)
        x = UniPoly.x(fld)
        for _ in range(10):
            f = UniPoly(fld, [rng.randrange(P) for _ in range(8)] + [1])
            rs = roots(f)
            lin = (x.powmod(P, f) - x).gcd(f)
            assert len(rs) == lin.degree
            for r in rs:
                assert f.evaluate(r) == 0

    def test_degenerate_inputs(self, fld):
        with pytest.raises(ValueError):
            roots(UniPoly(fld, []))
        assert roots(UniPoly(fld, [4])) == []


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
        # the table in E4, E6 read at (-A/3, -B/2) is the AB display read
        # at (A, B), at ell + 2 points
        for poly in (u5, ua11):
            spec = specialize(poly, curve13)
            ab = types.SimpleNamespace(terms=poly.to_basis("AB"))
            assert [spec.evaluate(x) for x in range(poly.ell + 2)] == [
                fraction_mod(evaluate(ab, x, curve13.A, curve13.B), P)
                for x in range(poly.ell + 2)]

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

    @pytest.mark.parametrize("name", ("phi5", "phi7", "phi11", "phi13"))
    @pytest.mark.parametrize("a, b", ((1, 3), (0, 5), (3, 0), (2, 7)))
    def test_phi_is_read_at_j(self, request, fld, name, a, b):
        # coefficient i of Phi(X, j) is the row of X^i read at j, with
        # j = 1728 * 4a^3 / (4a^3 + 27b^2) worked out here
        phi = request.getfixturevalue(name)
        j = 1728 * 4 * a ** 3 * pow(4 * a ** 3 + 27 * b * b, -1, P) % P
        rows = [types.SimpleNamespace(terms={}) for _ in range(phi.ell + 2)]
        for (i, k), c in phi.terms.items():
            rows[i].terms[k,] = c
        want = [fraction_mod(evaluate(row, j), P) for row in rows]
        assert specialize(phi, CurveParams(fld, a, b)).coeffs == want


class TestDerivativeBundle:
    def test_worked_example_firsts(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 584)
        assert bundle.u == 0
        assert (bundle.du_s, bundle.du_4, bundle.du_6) == (905, 779, 140)

    def test_worked_example_seconds(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 584)
        assert (bundle.du_s4, bundle.du_s6, bundle.du_46) == (44, 942, 493)

    def test_ab_display_agrees(self, curve13, u5):
        # the AB display's X, A and B partials at (584, A, B), times
        # dA/dE4 = -3 and dB/dE6 = -2, are the bundle's first partials
        point = (584, curve13.A, curve13.B)
        firsts = [0, 0, 0]
        for key, c in u5.to_basis("AB").items():
            for slot, e in enumerate(key):
                if e:
                    lowered = [v - (k == slot) for k, v in enumerate(key)]
                    firsts[slot] += c * e * prod(map(pow, point, lowered))
        bundle = derivative_bundle(u5, curve13, 584)
        assert [fraction_mod(f * s, P) for f, s in
                zip(firsts, (1, -3, -2))] == \
            [bundle.du_s, bundle.du_4, bundle.du_6]

    def test_atkin_root_bundle_value(self, curve13, ua11):
        assert derivative_bundle(ua11, curve13, 65).u == 0

    def test_non_root_rejected(self, curve13, u5):
        with pytest.raises(ValueError, match="not a root"):
            derivative_bundle(u5, curve13, 585)

    def test_second_root(self, curve13, u5):
        bundle = derivative_bundle(u5, curve13, 664)
        assert bundle.u == 0 and bundle.du_s != 0

    @pytest.mark.parametrize("name, root", [("u5", 584), ("ua11", 65)])
    def test_every_entry_at_the_worked_roots(self, request, curve13, name,
                                             root):
        # all ten entries, the diagonal second partials included, against
        # TrivariatePoly.partial read exactly and reduced mod p
        poly = request.getfixturevalue(name)
        assert derivative_bundle(poly, curve13, root) == \
            _oracle_bundle(poly, curve13, root)

    @pytest.mark.parametrize("name", ["u7", "ua23"])
    def test_every_entry_at_seeded_roots(self, request, fld, name):
        poly = request.getfixturevalue(name)
        rng = random.Random(38)
        checked = 0
        while checked < 3:
            a, b = rng.randrange(P), rng.randrange(P)
            if (4 * a ** 3 + 27 * b * b) % P == 0:
                continue
            curve = CurveParams(fld, a, b)
            for root in roots(specialize(poly, curve))[:3 - checked]:
                assert derivative_bundle(poly, curve, root) == \
                    _oracle_bundle(poly, curve, root), (a, b, root)
                checked += 1

    def test_phi_rejected(self, curve13, phi5):
        # 845 is a root of Phi5(X, j), but Phi has no E4, E6 partials
        assert 845 in roots(specialize(phi5, curve13))
        with pytest.raises(ValueError, match="Phi has no E4, E6 partials"):
            derivative_bundle(phi5, curve13, 845)


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
            n = len(roots(specialize(poly, c)))
            assert n in (0, 1, 2, ell + 1)

    def test_atkin_curve_has_no_roots(self, fld, u5):
        # frozen Atkin instance reused by the command-line tests
        c = CurveParams(fld, 1, 2)
        assert roots(specialize(u5, c)) == []


# ---------------------------------------------------------------------------
# The compiled F_p tables behind specialize, derivative_bundle and the
# B*-slot polynomial, against exact evaluation over Fractions that is
# reduced mod p only at the end.

_TABLE_PRIMES = (10007, 2**256 - 189)
_TABLE_POLYS = ("u5", "u11", "ua11", "v7")


def _oracle_bundle(P, curve, root: int) -> DerivativeBundle:
    """The bundle from TrivariatePoly.partial and evaluate."""
    px, p4, p6 = P.partial(0), P.partial(1), P.partial(2)
    entries = (P, px, p4, p6, px.partial(1), px.partial(2), p4.partial(2),
               px.partial(0), p4.partial(1), p6.partial(2))
    return DerivativeBundle(*(
        fraction_mod(evaluate(q, root, curve.e4, curve.e6), curve.field.p)
        for q in entries))


def _check_specialize(P, curve):
    """specialize(P, curve) agrees with P at ell + 2 points, which fixes
    a polynomial of degree ell + 1."""
    spec = specialize(P, curve)
    assert spec.degree == P.ell + 1
    for x in range(P.ell + 2):
        assert spec.evaluate(x) == fraction_mod(
            evaluate(P, x, curve.e4, curve.e6), curve.field.p)
    return spec


@st.composite
def _table_curves(draw):
    p = draw(st.sampled_from(_TABLE_PRIMES))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a ** 3 + 27 * b * b) % p)
    return CurveParams(PrimeField(p), a, b)


def _ab_slot_poly(field, ua, x_val: int, a_val: int) -> UniPoly:
    """The B-slot polynomial read off the AB display over Fractions."""
    ab = ua.to_basis("AB")
    out = [Fraction(0)] * (max(b for _, _, b in ab) + 1)
    for (i, a, b), c in ab.items():
        out[b] += c * x_val ** i * a_val ** a
    return UniPoly(field, [fraction_mod(c, field.p) for c in out])


class TestCompiledTables:
    @pytest.mark.parametrize("name", _TABLE_POLYS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(curve=_table_curves())
    def test_specialize_and_bundle_match_exact_partials(
            self, request, name, curve):
        P = request.getfixturevalue(name)
        spec = _check_specialize(P, curve)
        for root in roots(spec):
            assert derivative_bundle(P, curve, root) == \
                _oracle_bundle(P, curve, root)

    def test_second_call_compiles_nothing(self, u5, monkeypatch):
        # a fresh copy, so the table is compiled here
        P = TrivariatePoly("U", 5, u5.terms)
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
        table = P._fp[10007]
        rs = roots(spec)
        assert rs
        for _ in range(2):
            specialize(P, curve)
            for root in rs:
                derivative_bundle(P, curve, root)
        # no conversion, and the one table compiled at the first call
        assert calls == []
        assert list(P._fp) == [10007] and P._fp[10007] is table

    def test_one_polynomial_two_primes(self, u11):
        P = TrivariatePoly("U", 11, u11.terms)
        curves = [CurveParams(PrimeField(p), 3, 5) for p in _TABLE_PRIMES]
        for curve in curves + curves:
            _check_specialize(P, curve)
        assert sorted(P._fp) == sorted(_TABLE_PRIMES)
        small, big = (P._fp[p] for p in _TABLE_PRIMES)
        assert small != big

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(curve=_table_curves(), x=st.integers(0, 2**256),
           a_val=st.integers(0, 2**256))
    def test_b_star_matches_ab_slot_polynomial(self, ua11, curve, x, a_val):
        fld = curve.field
        x, a_val = x % fld.p, a_val % fld.p
        assert isogeny._ua_b_slot_poly(fld, ua11, x, a_val) == \
            _ab_slot_poly(fld, ua11, x, a_val)

        def b_stars():
            out = []
            for f in roots(specialize(ua11, curve)):
                try:
                    out.append(isogeny.atkin_b_star(11, f, a_val, curve, ua11))
                except (GcdDegreeTwo, VerificationError) as exc:
                    out.append(type(exc))
            for r in isogeny.atkin_step(curve, 11, ua11):
                out.append(r.b_star)
            return out

        got = b_stars()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(isogeny, "_ua_b_slot_poly", _ab_slot_poly)
            assert b_stars() == got
