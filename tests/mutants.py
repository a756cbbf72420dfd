"""The standing mutation gate: each mutant breaks the package in one
place, and the tests it names must then fail.

Run from anywhere, with pytest and Hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the script copies src/ to a temporary directory, replaces
the mutant's snippet, which must occur exactly once in its file, and runs
pytest on the mutant's targets with that copy in place of src/ (pytest's
``pythonpath`` setting and PYTHONPATH both point at it).  A mutant is
killed when every target reports a failure; a target that passes, or a
run that ends in a collection or usage error, lets it survive.  First, all
targets run once on an unmutated copy and must pass, so that a test that
already fails kills nothing.  The script prints one line per mutant and
exits 1 when a mutant survives or a snippet does not occur once.

KNOWN_SURVIVORS names what no test kills yet, each with the ROADMAP item
that is to kill it; the script lists them and runs none.  pytest does not
collect this file, which is no test_*.py.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parents[1]

BUILDER = "src/ccrpoly/builder.py"
CLI = "src/ccrpoly/cli.py"
FFIELD = "src/ccrpoly/ffield.py"
FORMULAS = "src/ccrpoly/formulas.py"
ISOGENY = "src/ccrpoly/isogeny.py"
QSERIES = "src/ccrpoly/qseries.py"
SYMBOLIC = "src/ccrpoly/symbolic.py"
TRIVARIATE = "src/ccrpoly/trivariate.py"

# name: (file, snippet, replacement, target node IDs that must fail)
MUTANTS = {
    # a product of two odd-weight forms left on row j + l: E6 * E6 is the
    # next row's E6^2
    "odd_times_odd_one_row_low": (
        BUILDER, "shift = self.w & other.w & 1", "shift = 0",
        ["tests/test_builder.py::test_form_product_matches_dict_product",
         "tests/test_builder.py::test_store_text_matches_reference"]),
    # every term read as if its weight were even
    "items_reads_b0_as_0": (
        BUILDER, "((a0 - 3 * j, b0 + 2 * j), Fraction(v, self.den))",
        "((a0 - 3 * j, 2 * j), Fraction(v, self.den))",
        ["tests/test_builder.py::test_rows_list_each_exponent_once",
         "tests/test_builder.py::test_store_text_matches_reference"]),
    # Horner's rule scales the rows by 1728^(rows-1); dropping it from the
    # denominator multiplies every form with two rows or more
    "match_den_without_1728_power": (
        BUILDER, "return _Form(w, nums, 1728 ** (rows - 1) * s.den)",
        "return _Form(w, nums, s.den)",
        ["tests/test_builder.py::TestBasisMatch::"
         "test_delta_matches_cusp_form",
         "tests/test_qseries.py::"
         "test_match_to_form_basis_matches_fraction_gauss_jordan"]),
    # the binomial sum's i = 0 term: Tr(T^0) = ell at q^0
    "trace_of_t0_is_zero": (
        BUILDER, "rows[0][-base] = ell", "rows[0][-base] = 0",
        ["tests/test_builder.py::TestPowerTraces::"
         "test_recentring_edge_cases[coeffs5-0]"]),
    # den^k Tr(R^k) is the binomial sum, so Tr(R^k) is over den^k
    "trace_den_power_is_one": (
        BUILDER, "big_r.den ** k,", "1,",
        ["tests/test_builder.py::TestPowerTraces::"
         "test_recentring_edge_cases[coeffs5-0]"]),
    # the x-window one slot short of x^(ell*(n_q - 1))
    "x_window_one_slot_short": (
        BUILDER, "n_x = ell * (n_q - 1) + 1", "n_x = ell * (n_q - 1)",
        ["tests/test_builder.py::TestPowerSums::"
         "test_first_sum_vanishes_for_sigma_kind",
         "tests/test_builder.py::TestPowerSums::test_second_sum_is_120_e4"]),
    # the top trace's last slot shifted, keeping every coefficient
    # integral: with no row past Sturm's window the match takes it in, and
    # only the build-end check at the CM vectors refuses U13..U31
    "top_trace_slot_shifted": (
        BUILDER, "r_inf, traces = power_sums(kind, ell, n_q, n)",
        "r_inf, traces = power_sums(kind, ell, n_q, n); "
        "traces[-1].nums[-1] += traces[-1].den "
        "* __import__('math').factorial(n) * 6 ** 60 * 1728 ** 20",
        ["tests/test_certify.py::test_builds_pass_the_build_end_check"]),
    # the same shift in Phi's top trace moves only Phi's constant term,
    # which keeps it symmetric: the rows past q^0 that the Phi build once
    # checked refused it, and now only the build-end check does
    "phi_top_trace_slot_shifted": (
        BUILDER, 'r_inf, traces = power_sums("Phi", ell, n_q, ell)',
        'r_inf, traces = power_sums("Phi", ell, n_q, ell); '
        "traces[-1].nums[-1] += traces[-1].den "
        "* __import__('math').factorial(ell) * 6 ** 60 * 1728 ** 20",
        ["tests/test_certify.py::test_phi_builds_pass_the_build_end_check"]),
    # a Phi e_k that ends below q^0 read as a degenerate computation
    # (exit 4), not as the build fault it is (exit 3)
    "phi_peel_short_window_not_a_build_fault": (
        BUILDER, 'raise BuildError(f"Phi_{ell}: e_{k} ends below q^0")',
        'raise PrecisionError(f"Phi_{ell}: e_{k} ends below q^0")',
        ["tests/test_builder.py::TestClassicalPhi::"
         "test_peel_refuses_an_e_k_that_ends_below_q0"]),
    # the store read without its check at the CM vector: a U13 store with
    # one term line deleted passes validate(), and the step then reports
    # a false Atkin prime on some curves
    "read_check_dropped": (
        CLI, "return check_at_cm_vectors(found.validate(), (-7,))",
        "return found.validate()",
        ["tests/test_cli.py::TestDeletedTermLine::test_each_line_of_u13"]),
    # the cross-check polynomials loaded before the step finds U's roots:
    # a cold call at an Atkin prime builds and writes V, W and Phi, which
    # check nothing there
    "eager_cross_checks": (
        CLI, "*(functools.partial(load, k) for k in others),",
        "*(load(k) for k in others),",
        ["tests/test_cli.py::TestElkies::test_cold_atkin_prime_writes_only_u"]),
    # KS2's odd slots over 2**h instead of 2**(h+1): the difference of
    # the products at +2**h and -2**h is 2**(h+1) times them
    "ks2_odd_half_over_2h": (
        QSERIES, "(plus - minus) >> (h + 1)", "(plus - minus) >> h",
        ["tests/test_qseries.py::TestBothProductPaths::"
         "test_every_sign_at_short_windows",
         "tests/test_qseries.py::TestBothProductPaths::test_borrow_chains"]),
    # KS2's packed ints without the borrow: a negative slot reads 2**(8k)
    # too high, so the slot above it comes back one too large
    "ks2_pack_without_borrow": (
        QSERIES, "return t - ((t & signs) << 1)", "return t",
        ["tests/test_qseries.py::TestBothProductPaths::test_borrow_chains"]),
    # the chain's odd power x^k formed as x^(k-1) squared, not as
    # x^(k-1) times x: x^3 comes out as x^4
    "power_chain_odd_from_top_twice": (
        QSERIES, "pw[-1] * pw[1])", "pw[-1] * pw[-1])",
        ["tests/test_qseries.py::test_pow_matches_repeated_multiplication",
         "tests/test_symbolic.py::TestMultiPoly::"
         "test_pow_matches_repeated_mul"]),
    # the quotient's t-loop without its u0 power: y_k is held as
    # u0^(k+1) y_k only if each a_k is scaled by u0^k
    "division_t_loop_without_u0_power": (
        QSERIES, "reversed(t))))\n            p *= u0\n",
        "reversed(t))))\n",
        ["tests/test_qseries.py::"
         "test_division_matches_fraction_long_division"]),
    # a store term line read without re-rendering it: text the writer
    # never prints, such as a leading zero or a tab, reads as a
    # polynomial
    "reader_skips_rerender": (
        TRIVARIATE, " or _term_line(key, c) != ln", "",
        ["tests/test_trivariate.py::TestStoreFormat::"
         "test_reader_accepts_only_the_writers_image"]),
    # store terms in any key order: the reader no longer holds each key
    # below the one before it, so a repeated key overwrites
    "store_keys_not_descending": (
        TRIVARIATE, "if not c or last and key >= last or ",
        "if not c or ",
        ["tests/test_trivariate.py::TestStoreFormat::"
         "test_malformed_store_text_is_a_store_error"]),
    # du_44 from the first slope table, which is du_4 again
    "bundle_du44_from_first_slopes": (
        FFIELD, "(ddys, zs)", "(dys, zs)",
        ["tests/test_ffield.py::TestDerivativeBundle::"
         "test_every_entry_at_the_worked_roots",
         "tests/test_ffield.py::TestDerivativeBundle::"
         "test_every_entry_at_seeded_roots"]),
    # E4-tilde's d4 parameter renamed: the numeric step, which passes
    # it by position, is unchanged, but verify-symbolic binds the
    # formula by name and finds no ring symbol dx
    "e4_tilde_d4_renamed_dx": (
        FORMULAS, "def e4_tilde_parts(ell, sigma, e4, e6, ds, d4, d6):",
        "def e4_tilde_parts(ell, sigma, e4, e6, ds, dx, d6):\n    d4 = dx",
        ["tests/test_symbolic.py::test_derive_e4t_matches_numeric_point"]),
    # the ell^0 coefficient of E6-tilde's numerator, -8 ds^3 sigma^3, read
    # as -7
    "e6_tilde_7_for_8": (
        FORMULAS, "- 8 * ds ** 3 * sigma ** 3", "- 7 * ds ** 3 * sigma ** 3",
        ["tests/test_acceptance.py::test_criterion_2_elkies_worked_example",
         "tests/test_isogeny.py::"
         "test_elkies_step_matches_velu_at_cm_vectors"]),
    # the constructor keeps zero coefficients: no operator drops them
    # either, so a cancelled term stays, and verify-symbolic prints it
    "multipoly_keeps_zero_terms": (
        SYMBOLIC, "{e: c for e, c in terms.items() if c}", "dict(terms)",
        ["tests/test_symbolic.py::TestMultiPoly::test_add_cancels_to_zero",
         "tests/test_cli.py::TestVerifySymbolic::"
         "test_output_matches_recorded"]),
    # s2 of the kernel's power sums without the -10 a s0 term
    "kernel_s2_without_10_a_s0": (
        ISOGENY, "a - a_star - 10 * a * s0", "a - a_star",
        ["tests/test_isogeny.py::TestElkiesPowerSums"]),
}

# name: (what the mutant does, the ROADMAP item that is to kill it)
KNOWN_SURVIVORS = {}


def _pytest(src: Path, work: Path, targets: list) -> tuple:
    """(exit code, output) of pytest on targets, with src as the
    package's source and work as the working directory."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--rootdir", str(REPO), "-c", str(REPO / "pyproject.toml"),
         "-o", f"pythonpath={src}", *(str(REPO / t) for t in targets)],
        cwd=work, env=env, capture_output=True, encoding="utf-8")
    return proc.returncode, proc.stdout + proc.stderr


def _failed(output: str, target: str) -> bool:
    """Whether pytest's summary names a failure at or under target; it
    writes the node IDs relative to the working directory."""
    return any(re.match(rf"FAILED (\S*/)?{re.escape(target)}(\W|$)", line)
               for line in output.splitlines())


def run(names: list) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src = work / "src"
        targets = sorted({t for n in names for t in MUTANTS[n][3]})
        shutil.copytree(REPO / "src", src)
        start = perf_counter()
        code, out = _pytest(src, work, targets)
        if code:
            print(out)
            print(f"targets fail on the unmutated source (exit {code})")
            return 1
        print(f"baseline: {len(targets)} targets pass "
              f"({perf_counter() - start:.1f} s)")
        survivors = 0
        for name in names:
            path, old, new, wants = MUTANTS[name]
            text = (REPO / path).read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: snippet occurs {text.count(old)} times "
                      f"in {path}")
                survivors += 1
                continue
            shutil.rmtree(src)
            shutil.copytree(REPO / "src", src)
            (work / path).write_text(text.replace(old, new), encoding="utf-8")
            start = perf_counter()
            code, out = _pytest(src, work, wants)
            alive = [t for t in wants if not _failed(out, t)]
            killed = code == 1 and not alive
            survivors += not killed
            print(f"{name}: {'killed' if killed else 'SURVIVED'} "
                  f"({perf_counter() - start:.1f} s)")
            if not killed:
                print(f"  exit {code}; not failed: {', '.join(alive)}")
    for name, (what, item) in KNOWN_SURVIVORS.items():
        print(f"{name}: known survivor, not run ({item}): {what}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:] or list(MUTANTS)))
