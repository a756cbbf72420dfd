"""Modular polynomials for elliptic-curve isogenies via exact q-expansions.

The package builds the trivariate modular polynomials whose roots are
the kernel power sum sigma1 and the scaled Eisenstein values A*, B* of
an ell-isogenous curve, plus the eta-product variant for ell = 11 mod
12 and the classical Phi_ell in j.  Specializing them over a prime
field and feeding root derivatives through the hard-coded tilde-E4 /
tilde-E6 formulas recovers the isogenous curve; the same formulas are
re-derived symbolically as a verification suite.
"""

from .builder import PHI_ELLS, build, build_classical_phi, conjugate_series
from .errors import (BasisMatchError, BuildError, CCRError,
                     DegenerateDerivative, DegeneratePoint, GcdDegreeTwo,
                     NotDivisibleError, PrecisionError, SingularCurve,
                     VerificationError)
from .ffield import (CurveParams, DerivativeBundle, PrimeField, UniPoly,
                     derivative_bundle, division_poly, is_probable_prime,
                     roots, specialize)
from .isogeny import (AtkinStepResult, IsogenyStepResult, ValidationFlags,
                      atkin_b_star, atkin_e4_tilde, atkin_sigma, atkin_step,
                      e4_tilde, e6_tilde, elkies_power_sums, elkies_step)
from .qseries import (PowerSeries, delta_series, eisenstein_series,
                      eta_squared_product, expand, fn_series, j_series,
                      sigma1_series)
from .symbolic import (DerivationReport, MultiPoly, RationalExpression,
                       derive_atkin_e4t, derive_atkin_sigma, derive_e4t,
                       derive_e6t)
from .trivariate import (ClassicalModularPoly, TrivariatePoly,
                         delta_display_terms, poly_from_text, poly_to_text)

__version__ = "0.1.0"

__all__ = [
    "PHI_ELLS", "build", "build_classical_phi", "conjugate_series",
    "BasisMatchError", "BuildError", "CCRError", "DegenerateDerivative",
    "DegeneratePoint", "GcdDegreeTwo", "NotDivisibleError", "PrecisionError",
    "SingularCurve", "VerificationError",
    "CurveParams", "DerivativeBundle", "PrimeField", "UniPoly",
    "derivative_bundle", "division_poly", "is_probable_prime", "roots",
    "specialize",
    "AtkinStepResult", "IsogenyStepResult", "ValidationFlags", "atkin_b_star",
    "atkin_e4_tilde", "atkin_sigma", "atkin_step", "e4_tilde", "e6_tilde",
    "elkies_power_sums", "elkies_step",
    "PowerSeries", "delta_series", "eisenstein_series", "eta_squared_product",
    "expand", "fn_series", "j_series", "sigma1_series",
    "DerivationReport", "MultiPoly", "RationalExpression", "derive_atkin_e4t",
    "derive_atkin_sigma", "derive_e4t", "derive_e6t",
    "ClassicalModularPoly", "TrivariatePoly", "delta_display_terms",
    "poly_from_text", "poly_to_text",
]
