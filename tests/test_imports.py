"""The package surface: every export resolves, and a step on stored
polynomials imports no build-side module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccrpoly
from ccrpoly import cli

SRC = Path(ccrpoly.__file__).resolve().parents[1]
CURVE = ["--p", "1009", "--a", "331", "--b", "970"]

# a step reads the store, ffield, isogeny and formulas; none of these
BUILD_SIDE = {"ccrpoly.builder", "ccrpoly.qseries", "ccrpoly.symbolic",
              "dataclasses", "inspect", "typing"}

# each prints an exit code, then the modules loaded
_LOADED = "; print(' '.join(sys.modules))"
_CALL = "import sys; from ccrpoly.cli import main; " \
    "print(main(sys.argv[1:]))" + _LOADED
_IMPORT = "import sys, ccrpoly.cli; print(0)" + _LOADED


def _modules(tmp_path, code, *args) -> tuple:
    """(exit code, modules loaded beyond a bare interpreter's) of a fresh
    interpreter running code with args, on the cache under tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{cli.CACHE_ENV: str(tmp_path / "cache")})

    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.stderr == ""
        return proc.stdout.splitlines()

    bare = set(run("-c", "import sys" + _LOADED)[0].split())
    lines = run("-c", code, *args)
    return int(lines[-2]), set(lines[-1].split()) - bare


def test_warm_calls_import_no_build_side(tmp_path):
    code, loaded = _modules(tmp_path, _IMPORT)
    assert "ccrpoly.cli" in loaded and not loaded & BUILD_SIDE
    for argv in (["elkies", *CURVE, "--ell", "13"],
                 ["atkin", *CURVE, "--ell", "11"]):
        # the cold call builds and fills the store, the warm one reads it;
        # building needs no symbolic ring
        code, loaded = _modules(tmp_path, _CALL, *argv)
        assert code == 0 and "ccrpoly.builder" in loaded
        assert "ccrpoly.symbolic" not in loaded
        code, loaded = _modules(tmp_path, _CALL, *argv)
        assert code == 0 and "ccrpoly.isogeny" in loaded
        assert not loaded & BUILD_SIDE, (argv, loaded & BUILD_SIDE)


def test_delta_display_loads_no_symbolic(tmp_path):
    code, loaded = _modules(tmp_path, _CALL, "build", "--kind", "Ua",
                            "--ell", "11", "--basis", "Delta", "--out",
                            "ua.txt")
    assert code == 0 and "ccrpoly.symbolic" not in loaded


def test_bare_package_import_loads_no_submodule(tmp_path):
    code, loaded = _modules(tmp_path,
                            "import sys, ccrpoly; print(0)" + _LOADED)
    assert {m for m in loaded if m.startswith("ccrpoly")} == {"ccrpoly"}


# the public names; removing one is an API change CHANGES.md must list
EXPORTS = {
    "PHI_ELLS", "build", "build_classical_phi", "conjugate_series",
    "BasisMatchError", "BuildError", "CCRError", "DegenerateDerivative",
    "DegeneratePoint", "GcdDegreeTwo", "NotDivisibleError", "PrecisionError",
    "SingularCurve", "VerificationError",
    "CurveParams", "DerivativeBundle", "PrimeField", "UniPoly",
    "derivative_bundle", "is_probable_prime", "roots", "specialize",
    "AtkinStepResult", "IsogenyStepResult", "ValidationFlags", "atkin_b_star",
    "atkin_e4_tilde", "atkin_sigma", "atkin_step", "e4_tilde", "e6_tilde",
    "elkies_power_sums", "elkies_step",
    "PowerSeries", "delta_series", "eisenstein_series", "eta_squared_product",
    "expand", "fn_series", "j_series", "sigma1_series",
    "DerivationReport", "MultiPoly", "derive_atkin_e4t", "derive_atkin_sigma",
    "derive_e4t", "derive_e6t",
    "ClassicalModularPoly", "TrivariatePoly", "delta_display_terms",
    "poly_from_text", "poly_to_text",
}


def test_every_export_resolves():
    assert set(ccrpoly.__all__) == EXPORTS
    for name in ccrpoly.__all__:
        value = getattr(ccrpoly, name)
        assert getattr(value, "__name__", name) == name
    namespace = {}
    exec("from ccrpoly import *", namespace)
    assert set(ccrpoly.__all__) <= set(namespace)
    assert len(set(ccrpoly.__all__)) == len(ccrpoly.__all__)
    with pytest.raises(AttributeError):
        ccrpoly.no_such_export
    from ccrpoly import build, builder
    assert build is builder.build


def test_cli_keeps_builder_entry_points():
    from ccrpoly import builder, trivariate
    assert cli.build is builder.build
    assert cli.build_classical_phi is builder.build_classical_phi
    assert cli.PHI_ELLS is trivariate.PHI_ELLS
    with pytest.raises(AttributeError):
        cli.no_such_name
