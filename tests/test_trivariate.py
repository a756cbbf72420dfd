"""Trivariate polynomial container: bases, homogeneity, display, store."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly.errors import BuildError, StoreError
from ccrpoly.trivariate import (ClassicalModularPoly, TrivariatePoly, X_WEIGHT,
                                delta_display_terms, expand_delta_display,
                                poly_from_text, poly_to_text)
from oracles import evaluate

# degree-6 polynomial for ell=5 in both bases, checked elsewhere against the
# series builder; used here as a fixed fixture
U5_E4E6 = {(6, 0, 0): 1, (4, 1, 0): -60, (3, 0, 1): -320, (2, 2, 0): -720,
           (1, 1, 1): -768, (0, 0, 2): -320}
U5_AB = {(6, 0, 0): 1, (4, 1, 0): 20, (3, 0, 1): 160, (2, 2, 0): -80,
         (1, 1, 1): -128, (0, 0, 2): -80}
UA11_DELTA = {(12, 0, 0, 0): 1, (6, 0, 0, 1): -990, (4, 1, 0, 1): 440,
              (3, 0, 1, 1): -165, (2, 2, 0, 1): 22, (1, 1, 1, 1): -1,
              (0, 0, 0, 2): -11}


def u5():
    return TrivariatePoly("U", 5, "E4E6", U5_E4E6)


class TestBasisConversion:
    def test_e4e6_to_ab_matches_fixture(self):
        got = u5().to_basis("AB")
        assert got.terms == {k: Fraction(v) for k, v in U5_AB.items()}

    def test_conversion_round_trips(self):
        p = u5()
        assert p.to_basis("AB").to_basis("E4E6") == p
        assert p.to_basis("E4E6") is p

    def test_single_term_scaling(self):
        # E4 E6 -> (A/-3)(B/-2) = AB/6
        p = TrivariatePoly("U", 5, "E4E6", {(1, 1, 1): 6, (6, 0, 0): 1})
        q = p.to_basis("AB")
        assert q.terms[(1, 1, 1)] == 1

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            u5().to_basis("j")
        with pytest.raises(ValueError):
            TrivariatePoly("U", 5, "j", {(6, 0, 0): 1})


class TestValidate:
    def test_fixture_is_valid(self):
        p = u5().validate()
        assert p.degree_x() == 6
        assert p.weighted_degree == 6
        assert p.is_integral()

    def test_x_weights(self):
        assert X_WEIGHT == {"U": 1, "Ua": 1, "V": 2, "W": 3}
        # weight-2 root: X carries weight 2, e1 = -3*ell*(ell^3+1)*E4
        v = TrivariatePoly("V", 5, "E4E6",
                           {(6, 0, 0): 1, (5, 1, 0): 3 * 5 * 126})
        assert v.weighted_degree == 12
        v.validate()

    def test_wrong_degree_rejected(self):
        p = TrivariatePoly("U", 7, "E4E6", U5_E4E6)
        with pytest.raises(BuildError):
            p.validate()

    def test_non_monic_rejected(self):
        bad = dict(U5_E4E6)
        bad[(6, 0, 0)] = 2
        with pytest.raises(BuildError):
            TrivariatePoly("U", 5, "E4E6", bad).validate()

    def test_broken_homogeneity_rejected(self):
        bad = dict(U5_E4E6)
        bad[(3, 1, 0)] = 17          # 3 + 2 != 6
        with pytest.raises(BuildError):
            TrivariatePoly("U", 5, "E4E6", bad).validate()

    def test_is_integral_sees_denominators(self):
        p = TrivariatePoly("U", 5, "E4E6",
                           {(6, 0, 0): 1, (0, 0, 2): Fraction(1, 2)})
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
        p = u5()
        assert poly_from_text(poly_to_text(p)) == p
        ab = p.to_basis("AB")
        assert poly_from_text(poly_to_text(p, basis="AB")) == ab

    def test_delta_store_round_trips_through_expansion(self):
        ua = expand_delta_display("Ua", 11, UA11_DELTA)
        txt = poly_to_text(ua, basis="Delta")
        assert txt.splitlines()[0] == "CCR kind=Ua ell=11 basis=Delta"
        assert poly_from_text(txt) == ua

    def test_rational_coefficients_survive(self):
        p = TrivariatePoly("Ua", 11, "E4E6",
                           {(12, 0, 0): 1, (0, 0, 4): Fraction(-11, 4096)})
        assert poly_from_text(poly_to_text(p)) == p

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            poly_from_text("6 0 0 1\n")

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
        "CCR kind=Ua ell=11 basis=Delta\n12 0 0 1\n",
    ])
    def test_malformed_store_text_is_a_store_error(self, text):
        with pytest.raises(StoreError):
            poly_from_text(text)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["E4E6", "AB", "Delta"]), st.data())
    def test_truncated_store_text_parses_or_raises_typed(self, basis, data):
        # a torn write: any prefix either parses or raises a typed error
        ua = expand_delta_display("Ua", 11, UA11_DELTA)
        text = poly_to_text(ua, basis=basis)
        cut = data.draw(st.integers(0, len(text)))
        try:
            poly_from_text(text[:cut])
        except StoreError:
            pass
        except ValueError as exc:
            assert str(exc) == "missing CCR header line"


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
