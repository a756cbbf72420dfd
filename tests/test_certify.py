"""The check of every polynomial at the supersingular CM vectors."""

import math

import pytest

from ccrpoly import builder, certify
from ccrpoly.builder import build, build_classical_phi
from ccrpoly.certify import check_at_cm_vectors, cm_vector
from ccrpoly.errors import BuildError
from ccrpoly.ffield import CurveParams, UniPoly, is_probable_prime, roots
from ccrpoly.trivariate import TrivariatePoly
from oracles import cm_vector as oracle_vector
from oracles import evaluate, vanishes_at_cm_vector

ELLS = [2, 3] + [ell for ell in range(5, 132) if is_probable_prime(ell)]
DISCS = list(certify.CM_J)


def as_oracle_tuple(vec) -> tuple:
    """(P, A, B, sigma, A*, B*), as the oracle gives a vector."""
    curve = vec.curve
    return (curve.field.p, curve.A, curve.B, *vec[1:4])


@pytest.mark.parametrize("disc", DISCS)
def test_vector_matches_the_oracle(disc):
    # the oracle has its own point arithmetic and prime search
    assert [ell for ell in ELLS
            if as_oracle_tuple(cm_vector(disc, ell))
            != oracle_vector(disc, ell)] == []


@pytest.mark.parametrize("disc", DISCS)
def test_cubic_has_one_root(disc):
    # so E(F_P) holds one point of order 2 and is cyclic, and
    # ((P+1)/ell) Q has order ell for some Q at every ell, 2 included
    curves = [cm_vector(disc, ell).curve for ell in ELLS]
    assert [len(roots(UniPoly(c.field, [c.B, c.A, 0, 1]))) for c in curves] \
        == [1] * len(ELLS)


def test_oracle_refuses_a_group_that_dies_whole():
    # at D = -8, E(F_P) holds all of E[2], and (P+1)/2 kills every point
    with pytest.raises(ValueError, match="kills the first"):
        oracle_vector(-8, 2)


@pytest.mark.parametrize("disc", DISCS)
@pytest.mark.parametrize("ell", [2, 3, 5, 13, 71])
def test_j_star_is_the_isogenous_curves(disc, ell):
    vec = cm_vector(disc, ell)
    field = vec.curve.field
    assert field.p > 2 ** 30 and (field.p + 1) % (4 * ell) == 0
    assert CurveParams(field, vec.a_star, vec.b_star).j_invariant() \
        == vec.j_star
    assert vec.curve.j_invariant() == certify.CM_J[disc] % field.p


# the levels where a corrupted top trace ended in a matching failure
# while the build window had rows past Sturm's bound
CORRUPTED_TOP_TRACE = [("U", 13), ("V", 13), ("W", 13), ("U", 17),
                       ("W", 17), ("U", 31)]


@pytest.mark.parametrize("kind, ell", CORRUPTED_TOP_TRACE)
def test_builds_pass_the_build_end_check(kind, ell):
    # built here, not by a fixture, so that a build the check refuses
    # fails this test; the oracle reads the terms without specialize
    poly = build(kind, ell)
    assert all(vanishes_at_cm_vector(poly, disc) for disc in DISCS)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_phi_builds_pass_the_build_end_check(ell):
    # Phi(j*, j) = 0 read exactly from the terms at the oracle's vectors
    phi = build_classical_phi(ell)
    for disc in DISCS:
        p, a, b, _, a_star, b_star = oracle_vector(disc, ell)
        j, j_star = (1728 * 4 * u ** 3 * pow(4 * u ** 3 + 27 * v * v, -1, p)
                     for u, v in ((a, b), (a_star, b_star)))
        assert evaluate(phi, j_star, j) % p == 0


@pytest.mark.parametrize("kind, ell", CORRUPTED_TOP_TRACE)
def test_corrupt_top_trace_is_refused_by_the_check_alone(monkeypatch, kind,
                                                         ell):
    # the top trace's last slot shifted by den (ell+1)! 6^60 1728^20, so
    # that every coefficient stays integral: with no surplus row past
    # Sturm's window, the match takes it in, and only the check refuses
    # the polynomial that results
    good = build(kind, ell)
    real = builder.power_sums

    def corrupt(*args):
        r_inf, traces = real(*args)
        top = traces[-1]
        top.nums[-1] += top.den * math.factorial(ell + 1) * 6 ** 60 \
            * 1728 ** 20
        return r_inf, traces

    monkeypatch.setattr(builder, "power_sums", corrupt)
    with pytest.raises(BuildError, match="no root at the D = -7 CM vector"):
        build(kind, ell)
    monkeypatch.setattr(builder, "check_at_cm_vectors", lambda poly: poly)
    assert build(kind, ell) != good            # and validate() passed it


@pytest.mark.parametrize("disc", DISCS)
def test_one_term_changed_is_refused(u13, disc):
    terms = dict(u13.terms)
    # +3 keeps the coefficient integral in the AB basis, so validate()
    # passes it
    terms[(12, 1, 0)] += 3
    wrong = TrivariatePoly("U", 13, terms).validate()
    with pytest.raises(BuildError,
                       match=rf"^U_13: no root at the D = {disc} CM vector$"):
        check_at_cm_vectors(wrong, (disc,))

