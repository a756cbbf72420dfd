"""Trivariate polynomial container: displays, homogeneity, store."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly import cli
from ccrpoly.errors import BuildError, StoreError
from ccrpoly.trivariate import (KINDS, ClassicalModularPoly, TrivariatePoly,
                                check_kind, delta_display_terms,
                                poly_from_text, poly_to_text)
from oracles import evaluate, expand_delta_display

# degree-6 polynomial for ell=5 and its AB display, checked elsewhere
# against the series builder; used here as a fixed fixture
U5_E4E6 = {(6, 0, 0): 1, (4, 1, 0): -60, (3, 0, 1): -320, (2, 2, 0): -720,
           (1, 1, 1): -768, (0, 0, 2): -320}
U5_AB = {(6, 0, 0): 1, (4, 1, 0): 20, (3, 0, 1): 160, (2, 2, 0): -80,
         (1, 1, 1): -128, (0, 0, 2): -80}
UA11_DELTA = {(12, 0, 0, 0): 1, (6, 0, 0, 1): -990, (4, 1, 0, 1): 440,
              (3, 0, 1, 1): -165, (2, 2, 0, 1): 22, (1, 1, 1, 1): -1,
              (0, 0, 0, 2): -11}


def u5():
    return TrivariatePoly("U", 5, U5_E4E6)


class TestBasisConversion:
    def test_e4e6_to_ab_matches_fixture(self):
        got = u5().to_basis("AB")
        assert got == {k: Fraction(v) for k, v in U5_AB.items()}

    def test_single_term_scaling(self):
        # E4 E6 -> (A/-3)(B/-2) = AB/6
        p = TrivariatePoly("U", 5, {(1, 1, 1): 6, (6, 0, 0): 1})
        assert p.to_basis("AB")[(1, 1, 1)] == 1

    def test_unknown_basis_rejected(self):
        # a polynomial holds its kind's one basis: AB is its one display
        for basis in ("j", "E4E6", "Delta"):
            with pytest.raises(ValueError):
                u5().to_basis(basis)

    def test_refusals_hold(self, phi5):
        # a basis outside the kind's row of KINDS, and Phi, whose one
        # basis is j, as a trivariate polynomial
        with pytest.raises(ValueError, match="unknown basis 'AB'"):
            poly_to_text(phi5, "AB")
        with pytest.raises(ValueError, match="unknown basis 'j'"):
            poly_to_text(u5(), "j")
        with pytest.raises(ValueError, match="unknown kind 'Phi'"):
            TrivariatePoly("Phi", 5, {(6, 0, 0): 1})

    def test_basis_is_the_kinds_first(self, phi5):
        assert (u5().basis, phi5.basis) == ("E4E6", "j")
        assert TrivariatePoly("Ua", 11, {(12, 0, 0): 1}).basis == "E4E6"


class TestKindRegistry:
    @pytest.mark.parametrize("kind, x_weight, bases, ell, bad_ell, line", [
        ("U", 1, ("E4E6", "AB"), 5, 4,
         "ell must be an odd prime > 3, got 4"),
        ("V", 2, ("E4E6", "AB"), 7, 9,
         "ell must be an odd prime > 3, got 9"),
        ("W", 3, ("E4E6", "AB"), 13, 3,
         "ell must be an odd prime > 3, got 3"),
        ("Ua", 1, ("E4E6", "AB", "Delta"), 23, 13,
         "ell must be 11 mod 12 for kind Ua, got 13"),
        ("Phi", 0, ("j",), 2, 17,
         "ell must be one of (2, 3, 5, 7, 11, 13), got 17"),
    ])
    def test_row(self, capsys, tmp_path, monkeypatch, kind, x_weight, bases,
                 ell, bad_ell, line):
        """The X weight and the store bases, the cached one first, and one
        level the kind takes and one it refuses, in the library and as
        the one usage line of ``build``."""
        row = check_kind(kind, ell)
        assert row is KINDS[kind]
        assert (row.x_weight, row.bases) == (x_weight, bases)
        if x_weight:
            n = ell + 1
            poly = TrivariatePoly(kind, ell, {(n, 0, 0): 1})
            assert poly.validate().weighted_degree == x_weight * n
        with pytest.raises(ValueError) as exc:
            check_kind(kind, bad_ell)
        assert str(exc.value) == line
        monkeypatch.chdir(tmp_path)
        assert cli.main(["build", "--kind", kind, "--ell", str(bad_ell)]) == 2
        assert capsys.readouterr().out == f"usage error: {line}\n"
        assert not list(tmp_path.iterdir())


class TestValidate:
    def test_fixture_is_valid(self):
        p = u5().validate()
        assert p.degree_x() == 6
        assert p.weighted_degree == 6
        assert p.is_integral()

    def test_wrong_degree_rejected(self):
        p = TrivariatePoly("U", 7, U5_E4E6)
        with pytest.raises(BuildError):
            p.validate()

    def test_non_monic_rejected(self):
        bad = dict(U5_E4E6)
        bad[(6, 0, 0)] = 2
        with pytest.raises(BuildError):
            TrivariatePoly("U", 5, bad).validate()

    def test_broken_homogeneity_rejected(self):
        bad = dict(U5_E4E6)
        bad[(3, 1, 0)] = 17          # 3 + 2 != 6
        with pytest.raises(BuildError):
            TrivariatePoly("U", 5, bad).validate()

    @pytest.mark.parametrize("key, coeff", [
        ((4, 1, 0), Fraction(-60, 7)),
        ((4, 1, 0), -61),       # -61/3 on A*X^4
        ((0, 0, 2), -322),      # -322/4 on B^2
    ])
    def test_non_integer_ab_coefficient_rejected(self, key, coeff):
        terms = dict(U5_E4E6)
        terms[key] = coeff
        with pytest.raises(BuildError, match="non-integer coefficients"):
            TrivariatePoly("U", 5, terms).validate()
        TrivariatePoly("U", 5, U5_E4E6).validate()

    @pytest.mark.parametrize("den", [5, 1009, 2 * 7])
    def test_ua_denominator_must_be_smooth(self, den):
        ua = expand_delta_display("Ua", 11, UA11_DELTA)
        terms = dict(ua.terms)
        terms[(1, 4, 1)] = Fraction(1, den)
        with pytest.raises(BuildError, match="2\\^x 3\\^y"):
            TrivariatePoly("Ua", 11, terms).validate()
        ua.validate()

    def test_is_integral_sees_denominators(self):
        p = TrivariatePoly("U", 5, {(6, 0, 0): 1, (0, 0, 2): Fraction(1, 2)})
        assert not p.is_integral()


class TestPartialAndEvaluate:
    def test_partial_in_each_slot(self):
        p = u5()
        px = p.partial(0)
        assert px.terms[(5, 0, 0)] == 6
        assert px.terms[(3, 1, 0)] == -240
        pa = p.partial(1)
        assert pa.terms[(4, 0, 0)] == -60
        assert pa.terms[(2, 1, 0)] == -1440
        pb = p.partial(2)
        assert pb.terms[(0, 0, 1)] == -640

    def test_evaluate_integers(self):
        p = u5()
        x, y, z = 2, 3, 5
        direct = sum(c * x ** i * y ** a * z ** b
                     for (i, a, b), c in U5_E4E6.items())
        assert evaluate(p, x, y, z) == direct


class TestDeltaDisplay:
    def test_expand_then_factor_round_trips(self):
        ua = expand_delta_display("Ua", 11, UA11_DELTA)
        ua.validate()
        assert delta_display_terms(ua) == {k: Fraction(v)
                                           for k, v in UA11_DELTA.items()}

    def test_display_of_delta_free_poly_is_flat(self):
        dd = delta_display_terms(u5())
        assert dd == {(i, a, b, 0): Fraction(c)
                      for (i, a, b), c in U5_E4E6.items()}


class TestStoreFormat:
    def test_header_and_order(self):
        txt = poly_to_text(u5())
        lines = txt.splitlines()
        assert lines[0] == "CCR kind=U ell=5 basis=E4E6"
        assert lines[1] == "6 0 0 1"
        assert txt.endswith("\n")

    def test_round_trip_both_bases(self):
        """The cached basis reads back; the AB display is written only."""
        p = u5()
        assert poly_from_text(poly_to_text(p)) == p
        with pytest.raises(StoreError, match="unknown kind or basis"):
            poly_from_text(poly_to_text(p, basis="AB"))

    def test_delta_store_round_trips_through_expansion(self):
        """The Delta display is written only: its lines expand back to
        the polynomial through the reference inverse, not the reader."""
        ua = expand_delta_display("Ua", 11, UA11_DELTA)
        txt = poly_to_text(ua, basis="Delta")
        header, *lines = txt.splitlines()
        assert header == "CCR kind=Ua ell=11 basis=Delta"
        display = {tuple(map(int, ln.split()[:4])): Fraction(ln.split()[4])
                   for ln in lines}
        assert expand_delta_display("Ua", 11, display) == ua
        with pytest.raises(StoreError, match="unknown kind or basis"):
            poly_from_text(txt)

    def test_rational_coefficients_survive(self):
        p = TrivariatePoly("Ua", 11,
                           {(12, 0, 0): 1, (0, 0, 4): Fraction(-11, 4096)})
        assert poly_from_text(poly_to_text(p)) == p

    def test_missing_header_rejected(self):
        for text in ("6 0 0 1\n", "", "\n \n"):
            with pytest.raises(StoreError, match="malformed store header"):
                poly_from_text(text)

    @pytest.mark.parametrize("text", [
        "CCR ell=5 basis=E4E6\n6 0 0 1\n",
        "CCR kind=U ell=five basis=E4E6\n6 0 0 1\n",
        "CCR kind=U ell=5\n6 0 0 1\n",
        "CCR kind=U ell=5 basis\n6 0 0 1\n",
        "CCR kind=Z ell=5 basis=E4E6\n6 0 0 1\n",
        "CCR kind=U ell=5 basis=j\n6 0 0 1\n",
        "CCR kind=Phi ell=5 basis=E4E6\n6 0 0 1\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1 1\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1/0\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 x 1\n",
        "CCR kind=Phi ell=5 basis=j\n6 0 0 3/2\n",
        # the Delta display is written, never read
        "CCR kind=Ua ell=11 basis=Delta\n12 0 0 1\n",
        "CCR kind=U ell=5 basis=Delta\n6 0 0 0 1\n",
        "CCR kind=V ell=5 basis=Delta\n6 0 0 0 1\n",
        "CCR kind=W ell=5 basis=Delta\n6 0 0 0 1\n",
        # a negative exponent keeps homogeneity, so only the parser sees it
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n2 5 -2 7\n",
        "CCR kind=U ell=5 basis=AB\n6 0 0 1\n-1 2 1 7\n",
        "CCR kind=Ua ell=11 basis=Delta\n12 0 0 0 1\n0 0 0 -1 1\n",
        "CCR kind=Phi ell=5 basis=j\n6 0 0 1\n0 -1 0 1\n",
        # Phi's third field is always 0
        "CCR kind=Phi ell=5 basis=j\n6 0 0 1\n3 0 7 1\n",
        # a repeated term would silently replace the first
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 -60\n4 1 0 -59\n",
        "CCR kind=Phi ell=5 basis=j\n6 0 0 1\n6 0 0 1\n",
        # numbers only as the writer prints them: no other syntax that int
        # or Fraction accepts ("1e999999999" would expand 10**999999999)
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 -6e1\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 0.5\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 1_0\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 +60\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n4 1 0 1e9\n",
        "CCR kind=U ell=5 basis=E4E6\n6 0 0 1\n0_4 1 0 -60\n",
        "CCR kind=U ell=+5 basis=E4E6\n6 0 0 1\n",
        # a field named twice: the last kind would win
        "CCR kind=U ell=5 basis=E4E6 kind=V\n6 0 0 1\n",
        # the header only in the one form the writer prints
        "CCR kind=U ell=5 basis=E4E6 extra=1\n6 0 0 1\n",
        "CCR ell=5 kind=U basis=E4E6\n6 0 0 1\n",
        "CCR  kind=U ell=5 basis=E4E6\n6 0 0 1\n",
    ])
    def test_malformed_store_text_is_a_store_error(self, text):
        with pytest.raises(StoreError):
            poly_from_text(text)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_store_text_parses_or_raises_typed(
            self, u5, v5, w5, ua11, phi5, data):
        # a torn write: any prefix either parses or raises a typed error
        poly = data.draw(st.sampled_from([u5, v5, w5, ua11, phi5]))
        text = poly_to_text(poly)
        cut = data.draw(st.integers(0, len(text)))
        try:
            poly_from_text(text[:cut])
        except StoreError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reader_accepts_only_the_writers_image(
            self, u5, v5, w5, ua11, phi5, data):
        """One edit of a cached store either is refused or reads as a
        polynomial the writer prints as exactly the edited text."""
        text = poly_to_text(data.draw(st.sampled_from(
            [u5, v5, w5, ua11, phi5])))
        header, *lines = text.splitlines(keepends=True)
        edit = data.draw(st.sampled_from(
            ["insert", "duplicate", "swap", "drop", "cut"]))
        if edit == "insert":
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(
                st.sampled_from([" ", "\t", "0", "\n"])) + text[at:]
        elif edit == "cut":
            text = text[:-1]
        else:
            at = data.draw(st.integers(0, len(lines) - 1))
            if edit == "duplicate":
                lines.insert(at, lines[at])
            elif edit == "swap":
                to = data.draw(st.integers(0, len(lines) - 1))
                lines[at], lines[to] = lines[to], lines[at]
            else:
                del lines[at]
            text = "".join([header, *lines])
        try:
            poly = poly_from_text(text)
        except StoreError:
            return
        assert poly_to_text(poly) == text


class TestClassicalPoly:
    def test_symmetry_and_degree(self):
        phi = ClassicalModularPoly(2, {(3, 0): 1, (0, 3): 1, (2, 2): -1,
                                       (1, 1): 8})
        assert phi.is_symmetric()
        assert phi.degree_x() == 3
        asym = ClassicalModularPoly(2, {(3, 0): 1, (0, 3): 2})
        assert not asym.is_symmetric()

    def test_validate(self):
        phi = ClassicalModularPoly(2, {(3, 0): 1, (0, 3): 1, (1, 1): 8})
        assert phi.validate() is phi
        with pytest.raises(BuildError, match="not symmetric"):
            ClassicalModularPoly(2, {(3, 0): 1, (0, 3): 2}).validate()
        with pytest.raises(BuildError, match="X-degree 2 != 3"):
            ClassicalModularPoly(2, {(2, 0): 1, (0, 2): 1}).validate()

    def test_evaluate_and_store(self):
        phi = ClassicalModularPoly(2, {(1, 0): 1, (0, 1): -1})
        assert evaluate(phi, 7, 7) == 0
        txt = poly_to_text(phi)
        assert txt.splitlines()[0] == "CCR kind=Phi ell=2 basis=j"
        back = poly_from_text(txt)
        assert back == phi

    def test_zero_terms_dropped(self):
        phi = ClassicalModularPoly(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in phi.terms
