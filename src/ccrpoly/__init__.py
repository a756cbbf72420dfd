"""Modular polynomials for elliptic-curve isogenies via exact q-expansions.

The package builds the trivariate modular polynomials whose roots are
the kernel power sum sigma1 and the scaled Eisenstein values A*, B* of
an ell-isogenous curve, plus the eta-product variant for ell = 11 mod
12 and the classical Phi_ell in j.  Specializing them over a prime
field and feeding root derivatives through the hard-coded tilde-E4 /
tilde-E6 formulas recovers the isogenous curve; the same formulas are
re-derived symbolically as a verification suite.
"""

import importlib

__version__ = "0.1.0"

# Each export is imported from its module on first access (PEP 562), so a
# step on stored polynomials never loads builder, qseries or symbolic.
_EXPORTS = {
    "builder": "build build_classical_phi conjugate_series",
    "errors": "BasisMatchError BuildError CCRError DegenerateDerivative "
              "DegeneratePoint GcdDegreeTwo NotDivisibleError PrecisionError "
              "SingularCurve VerificationError",
    "ffield": "CurveParams DerivativeBundle PrimeField UniPoly "
              "derivative_bundle is_probable_prime roots specialize",
    "isogeny": "AtkinStepResult IsogenyStepResult ValidationFlags "
               "atkin_b_star atkin_e4_tilde atkin_sigma atkin_step e4_tilde "
               "e6_tilde elkies_power_sums elkies_step",
    "qseries": "PowerSeries delta_series eisenstein_series "
               "eta_squared_product expand fn_series j_series sigma1_series",
    "symbolic": "DerivationReport MultiPoly derive_atkin_e4t "
                "derive_atkin_sigma derive_e4t derive_e6t",
    "trivariate": "PHI_ELLS ClassicalModularPoly TrivariatePoly "
                  "delta_display_terms poly_from_text poly_to_text",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
