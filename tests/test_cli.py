"""Exit codes and report text of the command-line front end."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly import cli, symbolic
from ccrpoly.errors import (BuildError, DegeneratePoint, StoreError,
                            VerificationError)
from ccrpoly.qseries import _FORM_NAMES

ELKIES_ARGS = ["elkies", "--p", "1009", "--a", "1", "--b", "3", "--ell", "5"]
ATKIN_ARGS = ["atkin", "--p", "1009", "--a", "1", "--b", "3", "--ell", "11"]


def run_cli(argv, cache, cwd):
    """The command in a fresh interpreter with the store at ``cache``."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), **{cli.CACHE_ENV: str(cache)})
    return subprocess.run([sys.executable, "-m", "ccrpoly.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(d))
    monkeypatch.chdir(tmp_path)
    return d


class TestBuild:
    def test_u5_ab_matches_printed_form(self, cache, capsys):
        assert cli.main(["build", "--ell", "5", "--kind", "U",
                         "--basis", "AB"]) == 0
        text = (cache.parent / "U_5_AB.txt").read_text()
        assert text == ("CCR kind=U ell=5 basis=AB\n"
                        "6 0 0 1\n"
                        "4 1 0 20\n"
                        "3 0 1 160\n"
                        "2 2 0 -80\n"
                        "1 1 1 -128\n"
                        "0 0 2 -80\n")

    def test_ua11_delta_display(self, cache, capsys):
        assert cli.main(["build", "--ell", "11", "--kind", "Ua",
                         "--basis", "Delta", "--out", "ua.txt"]) == 0
        text = (cache.parent / "ua.txt").read_text()
        assert text == ("CCR kind=Ua ell=11 basis=Delta\n"
                        "12 0 0 0 1\n"
                        "6 0 0 1 -990\n"
                        "4 1 0 1 440\n"
                        "3 0 1 1 -165\n"
                        "2 2 0 1 22\n"
                        "1 1 1 1 -1\n"
                        "0 0 0 2 -11\n")

    def test_composite_ell_rejected(self, cache, capsys):
        assert cli.main(["build", "--ell", "4", "--kind", "U"]) == 2

    def test_delta_basis_needs_ua(self, cache, capsys):
        assert cli.main(["build", "--ell", "5", "--kind", "U",
                         "--basis", "Delta"]) == 2

    def test_ua_needs_11_mod_12(self, cache, capsys):
        assert cli.main(["build", "--ell", "13", "--kind", "Ua"]) == 2

    def test_unknown_kind(self, cache, capsys):
        assert cli.main(["build", "--ell", "5", "--kind", "Q"]) == 2


class TestElkies:
    def test_worked_example(self, cache, capsys):
        assert cli.main(ELKIES_ARGS) == 0
        out = capsys.readouterr().out
        assert "sigma=584 Astar=441 Bstar=997" in out
        assert "E4t=497" in out and "E6t=939" in out
        assert "sigma0=2 sigma2=321 sigma3=642" in out
        assert "v_root=True w_root=True phi_match=True" in out
        assert "sigma=664" in out

    def test_phi_check_runs_at_ell_13(self, cache, capsys):
        assert cli.main(["elkies", "--p", "1009", "--a", "331", "--b", "970",
                         "--ell", "13"]) == 0
        assert "phi_match=True" in capsys.readouterr().out
        assert (cache / "Phi_13_j.txt").exists()

    def test_atkin_prime_exit_one(self, cache, capsys):
        rc = cli.main(["elkies", "--p", "1009", "--a", "1", "--b", "2",
                       "--ell", "5"])
        assert rc == 1
        assert "Atkin prime" in capsys.readouterr().out

    def test_composite_p_rejected(self, cache, capsys):
        rc = cli.main(["elkies", "--p", "9", "--a", "1", "--b", "3",
                       "--ell", "5"])
        assert rc == 2
        assert "p not prime" in capsys.readouterr().out

    def test_singular_curve_rejected(self, cache, capsys):
        assert cli.main(["elkies", "--p", "1009", "--a", "0", "--b", "0",
                        "--ell", "5"]) == 2

    def test_p_equal_ell_rejected(self, cache, capsys):
        assert cli.main(["elkies", "--p", "11", "--a", "1", "--b", "1",
                        "--ell", "11"]) == 2
        assert "distinct from p" in capsys.readouterr().out

    def test_all_roots_degenerate_exit_four(self, cache, capsys):
        # j = 0 curve: every sigma root hits a vanishing derivative
        rc = cli.main(["elkies", "--p", "1009", "--a", "0", "--b", "1",
                       "--ell", "7"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "diagnostic:" in out

    def test_cache_reuse_and_rebuild(self, cache, capsys):
        assert cli.main(ELKIES_ARGS) == 0
        stamp = {}
        for name in ("U_5_E4E6.txt", "V_5_E4E6.txt", "W_5_E4E6.txt",
                     "Phi_5_j.txt"):
            path = cache / name
            assert path.exists()
            stamp[name] = path.read_text()
        # second run loads from the cache and reproduces the report
        assert cli.main(ELKIES_ARGS) == 0
        assert "sigma=584 Astar=441 Bstar=997" in capsys.readouterr().out
        # rebuild regenerates every file and byte-compares
        assert cli.main(ELKIES_ARGS + ["--rebuild"]) == 0
        for name, text in stamp.items():
            assert (cache / name).read_text() == text

    def test_rebuild_detects_corrupt_cache(self, cache, capsys):
        assert cli.main(ELKIES_ARGS) == 0
        path = cache / "V_5_E4E6.txt"
        path.write_text(path.read_text().replace(" 1\n", " 2\n", 1))
        assert cli.main(ELKIES_ARGS + ["--rebuild"]) == 3
        assert "builder failure" in capsys.readouterr().out

    def test_poly_dir_flag(self, cache, tmp_path, capsys):
        alt = tmp_path / "alt"
        rc = cli.main(ELKIES_ARGS + ["--poly-dir", str(alt)])
        assert rc == 0
        assert (alt / "U_5_E4E6.txt").exists()
        assert not cache.exists()

    @pytest.mark.parametrize("p", ["5", "7"])
    def test_p_five_or_seven_rejected_before_output(self, cache, capsys, p):
        rc = cli.main(["elkies", "--p", p, "--a", "1", "--b", "1",
                       "--ell", "5" if p == "7" else "7"])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith("usage error: p must exceed 7")
        assert f"p={p} " not in out
        assert not cache.exists()


class TestStoreWrite:
    def test_failed_write_keeps_old_file_and_no_temp(self, cache, capsys,
                                                     monkeypatch):
        cli.load_or_build("U", 5, str(cache))
        path = cache / "U_5_E4E6.txt"
        before = path.read_text()
        real_open = open

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:10])
                raise OSError(28, "No space left on device")

        def failing_open(name, mode="r", *args, **kwargs):
            fh = real_open(name, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        for kind in ("U", "V"):
            with pytest.raises(OSError):
                cli.load_or_build(kind, 5, str(cache), rebuild=True)
        assert path.read_text() == before
        assert sorted(os.listdir(cache)) == ["U_5_E4E6.txt"]


class TestStoreErrors:
    """An I/O failure of the store, or a store file that is malformed or
    holds another polynomial, is a typed StoreError: one line and exit 3,
    never a traceback, the "Atkin prime" exit 1 or the usage exit 2."""

    def test_cache_path_is_a_regular_file(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory\n")
        proc = run_cli(ELKIES_ARGS, blocker, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout.startswith("store error: cannot create ")
        assert proc.stdout.count("\n") == 1

    CORRUPTED = {
        "header_without_kind": "malformed store header 'CCR ell=5 ",
        "truncated_last_line": "malformed store line '0 0 2'",
        "v_file_at_u_path": "holds kind=V ell=5 basis=E4E6, not the "
                            "requested kind=U ell=5 basis=E4E6",
    }

    @pytest.mark.parametrize("defect", sorted(CORRUPTED))
    def test_corrupted_cache_file(self, cache, tmp_path, capsys, defect):
        assert cli.main(ELKIES_ARGS) == 0
        capsys.readouterr()
        path = cache / "U_5_E4E6.txt"
        text = path.read_text()
        if defect == "header_without_kind":
            text = text.replace("kind=U ", "", 1)
        elif defect == "truncated_last_line":
            text = text.rstrip("\n").rsplit(" ", 1)[0]
        else:
            text = (cache / "V_5_E4E6.txt").read_text()
        path.write_text(text)
        proc = run_cli(ELKIES_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout.startswith(
            f"store error: {path}: {self.CORRUPTED[defect]}")
        assert proc.stdout.count("\n") == 1

    # store file, the command that reads it, the lines cut from it (line 0
    # is the header, line 1 the monic term) and the validate() reason
    INVALID = {
        "U5_header_only": ("U_5_E4E6.txt", ELKIES_ARGS, slice(1, None),
                           "X-degree -1 != 6"),
        "Ua11_header_only": ("Ua_11_E4E6.txt", ATKIN_ARGS, slice(1, None),
                             "X-degree -1 != 12"),
        "Ua11_without_monic_term": ("Ua_11_E4E6.txt", ATKIN_ARGS,
                                    slice(1, 2), "X-degree 6 != 12"),
        "Phi5_one_term_dropped": ("Phi_5_j.txt", ELKIES_ARGS, slice(3, 4),
                                  "not symmetric in (X, j)"),
    }

    @pytest.mark.parametrize("defect", sorted(INVALID))
    def test_store_that_fails_validate(self, cache, tmp_path, capsys,
                                       defect):
        """A store file that parses but is not a valid polynomial of its
        kind is refused on read, before the step uses it."""
        name, argv, cut, reason = self.INVALID[defect]
        assert cli.main(argv) == 0
        capsys.readouterr()
        path = cache / name
        lines = path.read_text().splitlines(keepends=True)
        del lines[cut]
        path.write_text("".join(lines))
        proc = run_cli(argv, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        kind_ell = name.rsplit("_", 1)[0]
        assert proc.stdout == f"store error: {path}: {kind_ell}: {reason}\n"

    def test_unwritable_out(self, cache, tmp_path, capsys):
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        out = blocker / "U_5_E4E6.txt"
        assert cli.main(["build", "--ell", "5", "--kind", "U",
                         "--out", str(out)]) == 3
        text = capsys.readouterr().out
        assert text.startswith(f"store error: cannot write {out}: ")
        assert text.count("\n") == 1
        assert os.listdir(tmp_path) == ["plain-file"]


class TestAtkin:
    def test_worked_example(self, cache, capsys):
        assert cli.main(ATKIN_ARGS) == 0
        out = capsys.readouterr().out
        assert "f=65 sigma=75 E4t=532 Bstar=460" in out
        assert "Astar=395" in out and "gcd_degree=1" in out
        assert "f=333 sigma=681 E4t=430 Bstar=584" in out

    @pytest.mark.parametrize("line", [5, 6, 8])
    def test_store_missing_a_term_is_a_verification_failure(
            self, cache, tmp_path, capsys, line):
        """A Ua store with one term line dropped still parses, but its f
        roots give an A* that no B* fits: exit 3, not a usage error."""
        assert cli.main(ATKIN_ARGS) == 0
        capsys.readouterr()
        path = cache / "Ua_11_E4E6.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:line - 1] + lines[line:]))
        proc = run_cli(ATKIN_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert "usage error" not in proc.stdout
        assert [ln for ln in proc.stdout.splitlines()
                if ln.startswith("verification failure: ")] == [
            "verification failure: constraint polynomials share no root; "
            "A* is inconsistent with the f root"]

    def test_wrong_residue_class_rejected(self, cache, capsys):
        assert cli.main(["atkin", "--p", "1009", "--a", "1", "--b", "3",
                        "--ell", "13"]) == 2

    def test_composite_p_rejected(self, cache, capsys):
        rc = cli.main(["atkin", "--p", "15", "--a", "1", "--b", "3",
                       "--ell", "11"])
        assert rc == 2
        assert "p not prime" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["5", "7"])
    def test_p_five_or_seven_rejected_before_output(self, cache, capsys, p):
        rc = cli.main(["atkin", "--p", p, "--a", "1", "--b", "1",
                       "--ell", "11"])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith("usage error: p must exceed 7")
        assert f"p={p} " not in out
        assert not cache.exists()


class TestVerifySymbolic:
    def test_all_cases_pass(self, capsys):
        assert cli.main(["verify-symbolic", "--case", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("derivation e4t", "derivation e6t",
                     "derivation a-sigma", "derivation a-e4t"):
            assert name in out
        assert "FAIL" not in out

    def test_single_case(self, capsys):
        assert cli.main(["verify-symbolic", "--case", "a-sigma"]) == 0
        out = capsys.readouterr().out
        assert "derivation a-sigma" in out
        assert "derivation e6t" not in out

    def test_unknown_case_rejected(self, capsys):
        assert cli.main(["verify-symbolic", "--case", "bogus"]) == 2


class TestSeries:
    def test_e4_prefix(self, capsys):
        assert cli.main(["series", "--name", "E4", "--prec", "3"]) == 0
        assert capsys.readouterr().out == "0 1\n1 240\n2 2160\n"

    def test_sigma1_constant(self, capsys):
        assert cli.main(["series", "--name", "sigma1", "--ell", "5",
                        "--prec", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 10"

    def test_fractional_coefficients_rendered(self, capsys):
        assert cli.main(["series", "--name", "F", "--ell", "5",
                        "--prec", "2"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "0 -4"

    def test_j_series_pole(self, capsys):
        assert cli.main(["series", "--name", "j", "--prec", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-1 1"
        assert lines[1] == "0 744"

    def test_eta_product_needs_matching_ell(self, capsys):
        assert cli.main(["series", "--name", "f", "--ell", "13",
                        "--prec", "5"]) == 2

    def test_missing_ell_rejected(self, capsys):
        assert cli.main(["series", "--name", "F", "--prec", "5"]) == 2

    def test_unknown_name_rejected(self, capsys):
        assert cli.main(["series", "--name", "E8", "--prec", "5"]) == 2


class TestSeriesWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_FORM_NAMES), st.integers(-3, 40),
           st.one_of(st.none(), st.integers(-3, 50)))
    def test_prints_the_window_or_one_usage_line(self, name, prec, ell):
        argv = ["series", "--name", name, "--prec", str(prec)]
        if ell is not None:
            argv += ["--ell", str(ell)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = out.getvalue().splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("usage error: ")
            return
        assert code == 0
        # prec coefficients, one fewer for j, whose window opens at q^-1
        assert len(lines) == prec - (name == "j")


class TestExitTable:
    @pytest.mark.parametrize("exc, line, code", [
        (StoreError("disk"), "store error: disk", 3),
        (VerificationError("check"), "verification failure: check", 3),
        (BuildError("gate"), "builder failure: gate", 3),
        (DegeneratePoint("E4 = 0"), "error: E4 = 0", 4),
        (ValueError("flag"), "usage error: flag", 2),
    ])
    def test_row(self, monkeypatch, capsys, exc, line, code):
        def raising(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_selftest", raising)
        assert cli.main(["selftest"]) == code
        assert capsys.readouterr().out == line + "\n"

    def test_failed_derivation_is_a_verification_failure(self, monkeypatch,
                                                          capsys):
        def failing():
            raise VerificationError("assertion failed at step: e4t: forced")

        monkeypatch.setitem(symbolic.DERIVATIONS, "e4t", failing)
        assert cli.main(["verify-symbolic", "--case", "e4t"]) == 3
        assert capsys.readouterr().out == (
            "verification failure: assertion failed at step: e4t: forced\n")


class TestSelftest:
    def test_green(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
