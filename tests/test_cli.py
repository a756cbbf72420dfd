"""Exit codes and report text of the command-line front end."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrpoly import cli, isogeny, symbolic
from ccrpoly.errors import (BuildError, DegeneratePoint, StoreError,
                            VerificationError)
from ccrpoly.ffield import roots
from ccrpoly.qseries import _FORM_NAMES, eisenstein_series
from ccrpoly.trivariate import poly_to_text

ELKIES_ARGS = ["elkies", "--p", "1009", "--a", "1", "--b", "3", "--ell", "5"]
ATKIN_ARGS = ["atkin", "--p", "1009", "--a", "1", "--b", "3", "--ell", "11"]
# y^2 = x^3 + x + 2 over F_1009 has no 5-isogeny: U5 has no root there
ATKIN_PRIME_ARGS = ["elkies", "--p", "1009", "--a", "1", "--b", "2",
                    "--ell", "5"]
ATKIN_PRIME_OUT = "p=1009 A=1 B=2 ell=5 j=350\nAtkin prime: no roots\n"


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

    @pytest.mark.parametrize("kind, basis, bases", [
        ("Phi", "AB", "j"), ("Phi", "E4E6", "j"), ("U", "Delta", "E4E6, AB"),
        ("W", "j", "E4E6, AB"), ("Ua", "sigma", "E4E6, AB, Delta")])
    def test_basis_the_kind_lacks_rejected(self, cache, capsys, kind, basis,
                                           bases):
        assert cli.main(["build", "--ell", "11", "--kind", kind, "--basis",
                         basis, "--out", "a.txt"]) == 2
        assert capsys.readouterr().out == (
            f"usage error: kind {kind} has no basis {basis}; its bases are "
            f"{bases}\n")
        assert not (cache.parent / "a.txt").exists()

    @pytest.mark.parametrize("kind, out", [("Phi", "Phi_5_j.txt"),
                                           ("V", "V_5_E4E6.txt")])
    def test_basis_defaults_to_the_cached_one(self, cache, capsys, kind,
                                              out):
        assert cli.main(["build", "--ell", "5", "--kind", kind]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        text = (cache.parent / out).read_text()
        assert text.startswith(f"CCR kind={kind} ell=5 basis=")

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

    def test_cold_atkin_prime_writes_only_u(self, cache, tmp_path, capsys):
        """V, W and Phi only check a root of U, so a cold call at an
        Atkin prime builds and writes U alone.  An Elkies-prime call at
        the same level then builds the other three, and prints and
        writes what a call on an empty store does."""
        assert cli.main(ATKIN_PRIME_ARGS) == 1
        assert capsys.readouterr().out == ATKIN_PRIME_OUT
        assert os.listdir(cache) == ["U_5_E4E6.txt"]
        assert cli.main(ELKIES_ARGS) == 0
        out = capsys.readouterr().out
        cold = tmp_path / "cold"
        assert cli.main(ELKIES_ARGS + ["--poly-dir", str(cold)]) == 0
        assert capsys.readouterr().out == out
        names = ["Phi_5_j.txt", "U_5_E4E6.txt", "V_5_E4E6.txt",
                 "W_5_E4E6.txt"]
        assert sorted(os.listdir(cache)) == sorted(os.listdir(cold)) == names
        for name in names:
            assert (cache / name).read_bytes() == (cold / name).read_bytes()

    @pytest.mark.parametrize("rebuild", [[], ["--rebuild"]],
                             ids=["read", "rebuild"])
    def test_atkin_prime_reads_no_cross_check_store(self, cache, capsys,
                                                    rebuild):
        """At an Atkin prime a corrupt V store is neither read nor
        rebuilt, so nothing reports it: only U is read, or with
        --rebuild rebuilt and compared."""
        assert cli.main(ELKIES_ARGS) == 0
        capsys.readouterr()
        path = cache / "V_5_E4E6.txt"
        text = path.read_text().replace(" 1\n", " 2\n", 1)
        path.write_text(text)
        assert cli.main(ATKIN_PRIME_ARGS + rebuild) == 1
        assert capsys.readouterr().out == ATKIN_PRIME_OUT
        assert path.read_text() == text

    @pytest.mark.parametrize("argv", [ELKIES_ARGS, ATKIN_PRIME_ARGS,
                                      ATKIN_ARGS],
                             ids=["elkies", "atkin_prime", "atkin"])
    def test_roots_runs_once_per_step(self, cache, capsys, monkeypatch,
                                      argv):
        """The Frobenius power in roots is a step's whole cost at large p:
        a cold call and a warm one each find the roots once."""
        calls = []

        def spy(f):
            calls.append(f.degree)
            return roots(f)

        monkeypatch.setattr(isogeny, "roots", spy)
        for _ in ("cold", "warm"):
            calls.clear()
            cli.main(argv)
            assert len(calls) == 1

    def test_composite_p_rejected(self, cache, capsys):
        rc = cli.main(["elkies", "--p", "9", "--a", "1", "--b", "3",
                       "--ell", "5"])
        assert rc == 2
        assert "p not prime" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["318665857834031151167461",
                                   "3317044064679887385961981"])
    def test_strong_pseudoprime_p_rejected(self, cache, capsys, p):
        # psi_12 and psi_13 pass Miller-Rabin to every base below 41 and
        # to every base up to 41
        rc = cli.main(["elkies", "--p", p, "--a", "1", "--b", "3",
                       "--ell", "5"])
        assert rc == 2
        assert capsys.readouterr().out == \
            "usage error: p not prime or too small\n"
        assert not cache.exists()

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
        assert "diagnostic:" in out and "skipped:" in out

    def test_note_on_an_answered_root_is_not_skipped(self, cache, capsys,
                                                     monkeypatch):
        """E4(q^ell) = E6(q^ell) = 1 gives an isogenous curve of zero
        discriminant: each root still prints its result line, with
        phi_match=False, so its diagnostic does not read skipped."""
        for name in ("e4_tilde", "e6_tilde"):
            monkeypatch.setattr(isogeny, name, lambda *args: 1)
        assert cli.main(ELKIES_ARGS) == 3
        lines = capsys.readouterr().out.splitlines()
        message = "isogenous curve has zero discriminant"
        assert [ln for ln in lines if ln.startswith("diagnostic:")] == [
            f"diagnostic: root=584 {message}",
            f"diagnostic: root=664 {message}"]
        assert [ln.split()[0] for ln in lines if ln.startswith("sigma=")] \
            == ["sigma=584", "sigma=664"]
        assert all("phi_match=False" in ln for ln in lines
                   if ln.startswith("sigma="))
        assert lines[-1] == "verification failure: no validated result"

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

    @pytest.mark.parametrize("argv, store", [
        (ELKIES_ARGS, "U_5_E4E6.txt"), (ATKIN_ARGS, "Ua_11_E4E6.txt")])
    def test_empty_cache_dir_is_unset(self, cache, tmp_path, monkeypatch,
                                      capsys, argv, store):
        # an empty CCR_CACHE_DIR falls back to .ccr-cache, as an empty
        # --poly-dir does: the cold call writes there, and the warm call
        # reads there and not the working directory
        monkeypatch.setenv(cli.CACHE_ENV, "")
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / ".ccr-cache" / store).exists()
        assert not list(tmp_path.glob("*.txt"))
        (tmp_path / store).write_text("not a store\n")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cold
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


def _sub(old, new):
    """An edit of a store file: its first ``old`` becomes ``new``."""
    def edit(text, path):
        assert old in text
        return text.replace(old, new, 1)
    return edit


def _written_by_build(kind, ell, basis):
    """An edit of a store file: what ``build --basis`` writes over it."""
    def edit(text, path):
        assert cli.main(["build", "--kind", kind, "--ell", str(ell),
                         "--basis", basis, "--out", str(path)]) == 0
        return path.read_text()
    return edit


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

    # defect -> (store file, the command that reads it, an edit of the
    # file, the message after "store error: <path>: "); the ten from
    # header_level_leading_zero to cr_ending are forms the reader once
    # accepted
    CORRUPTED = {
        "header_without_kind": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("kind=U ", ""),
            "malformed store header 'CCR ell=5 "),
        "truncated_last_line": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("\n0 0 2 -320\n", "\n0 0 2"),
            "malformed store line '0 0 2'"),
        "v_file_at_u_path": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            lambda text, path: (path.parent / "V_5_E4E6.txt").read_text(),
            "holds kind=V ell=5 basis=E4E6, not the "
            "requested kind=U ell=5 basis=E4E6"),
        "header_level_leading_zero": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("ell=5", "ell=05"),
            "malformed store header 'CCR kind=U ell=05 basis=E4E6'\n"),
        # 5000 digits pass Python 3.11's int() limit of 4300; the level's
        # digit bound makes that a store error on every version
        "header_level_too_long": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("ell=5", "ell=" + "9" * 5000),
            "malformed store header 'CCR kind=U ell=999"),
        "leading_blank_line": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("CCR", "\nCCR"),
            "malformed store header ''\n"),
        "blank_line_between_terms": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("\n4 1 0", "\n\n4 1 0"),
            "malformed store line ''\n"),
        "unreduced_fraction": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub(" -60\n", " -120/2\n"),
            "malformed store line '4 1 0 -120/2'\n"),
        "leading_zero": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub(" -60\n", " -060\n"),
            "malformed store line '4 1 0 -060'\n"),
        "no_final_newline": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            _sub("\n0 0 2 -320\n", "\n0 0 2 -320"),
            "malformed store line '0 0 2 -320'\n"),
        "zero_term": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("\n4 1 0", "\n5 0 0 0\n4 1 0"),
            "malformed store line '5 0 0 0'\n"),
        "spaces_and_tab": (
            "U_5_E4E6.txt", ELKIES_ARGS, _sub("\n6 0 0 1\n", "\n6  0 0\t1 \n"),
            "malformed store line '6  0 0\\t1 '\n"),
        # the writer ends lines in LF alone on every OS, and the reader
        # translates no other line end
        "crlf_endings": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            lambda text, path: text.replace("\n", "\r\n"),
            "malformed store header 'CCR kind=U ell=5 basis=E4E6\\r'\n"),
        "cr_ending": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            lambda text, path: text.replace("\n", "\r"),
            "malformed store header 'CCR kind=U ell=5 basis=E4E6\\r6 0 0 1"
            "\\r4 1 0 -60\\r"),
        # past int's 4300-digit string limit, whose ValueError is a store
        # error; with no limit (Python 3.10) 1...1 is no multiple of 3,
        # so the AB gate refuses it, hence no fixed reason
        "oversize_number": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            _sub(" -60\n", " -" + "1" * 5000 + "\n"), ""),
        # under int's 4300-digit limit, and a multiple of 3, so it parses
        # and passes validate() on every version: the read check at the
        # CM vector refuses it
        "oversize_number_that_parses": (
            "U_5_E4E6.txt", ELKIES_ARGS,
            _sub(" -60\n", " -" + "3" * 4000 + "\n"),
            "U_5: no root at the D = -7 CM vector\n"),
        # the displays build --basis writes are never read
        "ab_file_at_cache_path": (
            "U_5_E4E6.txt", ELKIES_ARGS, _written_by_build("U", 5, "AB"),
            "unknown kind or basis in store header "
            "'CCR kind=U ell=5 basis=AB'\n"),
        "delta_file_at_cache_path": (
            "Ua_11_E4E6.txt", ATKIN_ARGS, _written_by_build("Ua", 11, "Delta"),
            "unknown kind or basis in store header "
            "'CCR kind=Ua ell=11 basis=Delta'\n"),
    }

    @pytest.mark.parametrize("defect", sorted(CORRUPTED))
    def test_corrupted_cache_file(self, cache, tmp_path, capsys, defect):
        name, argv, edit, message = self.CORRUPTED[defect]
        assert cli.main(argv) == 0
        capsys.readouterr()
        path = cache / name
        path.write_text(edit(path.read_text(), path))
        proc = run_cli(argv, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout.startswith(f"store error: {path}: {message}")
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

    # store file, the command that reads it, a term line, its replacement
    # with a denominator p = 1009 divides, and the builder's gate it fails
    BAD_DENOMINATORS = {
        "U5": ("U_5_E4E6.txt", ELKIES_ARGS, "4 1 0 -60\n", "4 1 0 1/1009\n",
               "non-integer coefficients in AB basis"),
        "Ua11": ("Ua_11_E4E6.txt", ATKIN_ARGS, "1 4 1 -1/1728\n",
                 "1 4 1 1/1009\n", "denominator not of the form 2^x 3^y"),
    }

    @pytest.mark.parametrize("defect", sorted(BAD_DENOMINATORS))
    def test_denominator_the_builder_refuses(self, cache, tmp_path, capsys,
                                             defect):
        """A coefficient the builder's denominator gate would refuse is
        refused on read too, before fp_table inverts its denominator."""
        name, argv, line, bad, reason = self.BAD_DENOMINATORS[defect]
        assert cli.main(argv) == 0
        capsys.readouterr()
        path = cache / name
        text = path.read_text()
        assert line in text
        path.write_text(text.replace(line, bad))
        proc = run_cli(argv, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        kind_ell = name.rsplit("_", 1)[0]
        assert proc.stdout == f"store error: {path}: {kind_ell}: {reason}\n"

    # a term line only the parser can refuse: validate() passes it
    BAD_TERMS = {
        # keeps homogeneity; fp_table would index its power tables at -2
        "negative_exponent": ("U_5_E4E6.txt", "2 5 -2 7"),
        # Phi's third field is always 0; this line once read as "3 0 0 1"
        "phi_third_field": ("Phi_5_j.txt", "3 0 7 1"),
        # repeats the term "4 1 0 -60", which it once replaced
        "repeated_term": ("U_5_E4E6.txt", "4 1 0 -59"),
    }

    @pytest.mark.parametrize("defect", sorted(BAD_TERMS))
    def test_bad_term_line(self, cache, tmp_path, capsys, defect):
        name, line = self.BAD_TERMS[defect]
        assert cli.main(ELKIES_ARGS) == 0
        capsys.readouterr()
        path = cache / name
        path.write_text(path.read_text() + line + "\n")
        proc = run_cli(ELKIES_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        # one line, and no report line printed before it
        assert proc.stdout == (f"store error: {path}: malformed store line "
                               f"{line!r}\n")

    def test_number_in_exponent_notation(self, cache, tmp_path, capsys):
        """-6e1 is -60 to Fraction, yet the writer never prints it: the
        store holds something other than what was built."""
        assert cli.main(ELKIES_ARGS) == 0
        capsys.readouterr()
        path = cache / "U_5_E4E6.txt"
        text = path.read_text()
        assert "\n4 1 0 -60\n" in text
        path.write_text(text.replace("\n4 1 0 -60\n", "\n4 1 0 -6e1\n"))
        proc = run_cli(ELKIES_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout == (f"store error: {path}: malformed store line "
                               f"'4 1 0 -6e1'\n")

    def test_non_ascii_byte(self, cache, tmp_path, capsys):
        """Store files are ASCII whatever the locale's encoding, so a
        byte outside it is a store error, not a decoding ValueError."""
        assert cli.main(ELKIES_ARGS) == 0
        capsys.readouterr()
        path = cache / "U_5_E4E6.txt"
        text = path.read_bytes()
        path.write_bytes(text + b"\xff\n")
        proc = run_cli(ELKIES_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout == (
            f"store error: cannot read {path}: 'ascii' codec can't decode "
            f"byte 0xff in position {len(text)}: ordinal not in range(128)\n")

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


def seeded_curves(p: int, count: int, seed: int) -> list:
    """count nonsingular curves (a, b) over F_p drawn from one seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b * b) % p:
            out.append((a, b))
    return out


class TestDeletedTermLine:
    """A store with one term line deleted parses and passes validate(),
    and a step on it once answered wrongly: at p = 10007, U13 without one
    line printed "Atkin prime: no roots" (exit 1) on curves where the
    intact store finds roots.  The read check at the D = -7 CM vector
    refuses every such store that the call reads."""

    CURVES = seeded_curves(10007, 40, seed=13)

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, u13, v13, w13, phi13, ua11):
        directory = tmp_path_factory.mktemp("intact")
        for poly in (u13, v13, w13, phi13, ua11):
            path = cli._store_path(str(directory), poly.kind, poly.ell,
                                   poly.basis)
            Path(path).write_text(poly_to_text(poly))
        return directory

    def calls(self, directory, command, ell):
        """(exit code, stdout) of the command on every curve, with the
        store at directory."""
        out = []
        for a, b in self.CURVES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([command, "--p", "10007", "--a", str(a),
                                 "--b", str(b), "--ell", str(ell),
                                 "--poly-dir", str(directory)])
            out.append((code, buf.getvalue()))
        return out

    def deleted(self, store, tmp_path, name, index):
        """A copy of the store with line ``index`` of the file ``name``
        deleted, and that file's path."""
        directory = tmp_path / f"{name}-{index}"
        shutil.copytree(store, directory)
        path = directory / name
        lines = path.read_text().splitlines(keepends=True)
        del lines[index]
        path.write_text("".join(lines))
        return directory, path

    def test_each_line_of_u13(self, store, tmp_path):
        count = len((store / "U_13_E4E6.txt").read_text().splitlines())
        for index in range(2, count):
            directory, path = self.deleted(store, tmp_path, "U_13_E4E6.txt",
                                           index)
            assert self.calls(directory, "elkies", 13) == [
                (3, f"store error: {path}: U_13: no root at the D = -7 "
                    f"CM vector\n")] * len(self.CURVES), index

    # store file, the command that reads it and its level, and which term
    # line to delete: for Phi13 one of X^i j^i, whose loss keeps Phi
    # symmetric, so that validate() passes the store
    ONE_LINE = {
        "V13": ("V_13_E4E6.txt", "elkies", 13, lambda lines: 5),
        "W13": ("W_13_E4E6.txt", "elkies", 13, lambda lines: 5),
        "Ua11": ("Ua_11_E4E6.txt", "atkin", 11, lambda lines: 5),
        "Phi13": ("Phi_13_j.txt", "elkies", 13, lambda lines: next(
            i for i, ln in enumerate(lines[2:], 2)
            if ln.split()[0] == ln.split()[1])),
    }

    @pytest.mark.parametrize("which", sorted(ONE_LINE))
    def test_one_line(self, store, tmp_path, which):
        """Ua11 is the atkin step's own polynomial, so every call reads
        it and is a store error.  V13, W13 and Phi13 only check a root
        of U13: a call where U13 has a root reads them and is a store
        error, and one where it has none (exit 1) reads none of them and
        prints what it prints on the intact store.  Neither is ever a
        wrong answer."""
        name, command, ell, pick = self.ONE_LINE[which]
        index = pick((store / name).read_text().splitlines())
        directory, path = self.deleted(store, tmp_path, name, index)
        kind_ell = name.rsplit("_", 1)[0]
        error = (3, f"store error: {path}: {kind_ell}: no root at the "
                    f"D = -7 CM vector\n")
        intact = self.calls(store, command, ell)
        if command == "atkin":
            want = [error] * len(self.CURVES)
        else:
            want = [call if call[0] == 1 else error for call in intact]
            # the curves hold both cases
            assert {code for code, _ in want} == {1, 3}
        assert self.calls(directory, command, ell) == want


class TestAtkin:
    def test_worked_example(self, cache, capsys):
        assert cli.main(ATKIN_ARGS) == 0
        out = capsys.readouterr().out
        assert "f=65 sigma=75 E4t=532 Bstar=460" in out
        assert "Astar=395" in out and "gcd_degree=1" in out
        assert "f=333 sigma=681 E4t=430 Bstar=584" in out

    def test_step_error_follows_the_header(self, cache, capsys,
                                           monkeypatch):
        """An error the step raises, other than a store or build error
        of a load, comes after the header line."""
        def inconsistent(*args):
            raise VerificationError("constraint polynomials share no root")

        monkeypatch.setattr(isogeny, "atkin_b_star", inconsistent)
        assert cli.main(ATKIN_ARGS) == 3
        assert capsys.readouterr().out == (
            "p=1009 A=1 B=3 ell=11 j=269\n"
            "verification failure: constraint polynomials share no root\n")

    @pytest.mark.parametrize("line", [5, 6, 8])
    def test_store_missing_a_term_is_a_store_error(
            self, cache, tmp_path, capsys, line):
        """A Ua store with one term line dropped still parses and passes
        validate(), but has no root at the CM vector: one store error
        line and exit 3, before the step runs."""
        assert cli.main(ATKIN_ARGS) == 0
        capsys.readouterr()
        path = cache / "Ua_11_E4E6.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:line - 1] + lines[line:]))
        proc = run_cli(ATKIN_ARGS, cache, tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout == (f"store error: {path}: Ua_11: no root at the "
                               f"D = -7 CM vector\n")

    def test_wrong_residue_class_rejected(self, cache, capsys):
        assert cli.main(["atkin", "--p", "1009", "--a", "1", "--b", "3",
                        "--ell", "13"]) == 2

    def test_composite_p_rejected(self, cache, capsys):
        rc = cli.main(["atkin", "--p", "15", "--a", "1", "--b", "3",
                       "--ell", "11"])
        assert rc == 2
        assert "p not prime" in capsys.readouterr().out

    def test_p_seven_runs(self, cache, capsys):
        # the Atkin step computes no power sums, so p in {5, 7} is a
        # prime like any other here
        rc = cli.main(["atkin", "--p", "7", "--a", "1", "--b", "1",
                       "--ell", "11"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "f=4 sigma=1 E4t=2 Bstar=1 Astar=4 gcd_degree=1",
            "f=6 sigma=5 E4t=4 Bstar=1 Astar=1 gcd_degree=1"]

    def test_gcd_degree_two(self, cache, capsys):
        rc = cli.main(["atkin", "--p", "19", "--a", "2", "--b", "3",
                       "--ell", "11"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "f=1 sigma=0 E4t=9 Bstar=unavailable Astar=7 gcd_degree=2 "
            "error=B* is not rational from this root",
            "f=15 sigma=6 E4t=18 Bstar=16 Astar=14 gcd_degree=1"]


@pytest.mark.parametrize("command", ["elkies", "atkin"])
def test_j_zero_curve_answers_every_root(cache, capsys, command):
    # y^2 = x^3 + 5 has j = 0, and no formula divides by E4 or E6: all 12
    # roots give a result, and neither step skips one
    rc = cli.main([command, "--p", "1000003", "--a", "0", "--b", "5",
                   "--ell", "11"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0] == "p=1000003 A=0 B=5 ell=11 j=0"
    assert len(lines) == 13
    assert not [ln for ln in lines if ln.startswith("diagnostic")]


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

    # sha256 of the stdout of each case, recorded before the derivations
    # shared one routine per order
    RECORDED = json.loads((Path(__file__).resolve().parent / "data"
                           / "verify_symbolic_sha256.json").read_text())

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_output_matches_recorded(self, capsys, case):
        assert cli.main(["verify-symbolic", "--case", case]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            self.RECORDED[case]


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

    @pytest.mark.parametrize("name, ell", [("sigma1", 1), ("F", 1),
                                           ("F", 9), ("f", 35), ("f", 3)])
    def test_level_not_an_odd_prime_above_3_rejected(self, capsys, name,
                                                     ell):
        assert cli.main(["series", "--name", name, "--ell", str(ell),
                        "--prec", "3"]) == 2
        assert capsys.readouterr().out == \
            f"usage error: ell must be an odd prime > 3, got {ell}\n"

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
        (MemoryError(), "out of memory: MemoryError", 5),
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


def limit_child():
    # 2 GiB of address space and 1 s of CPU time, set in the child only
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (1, 1))


def run_limited(argv, tmp_path, launch=("-m", "ccrpoly.cli")):
    """The command in a fresh interpreter under limit_child, with an empty
    store at tmp_path/cache; launch is what the interpreter runs."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src),
               **{cli.CACHE_ENV: str(tmp_path / "cache")})
    return subprocess.run([sys.executable, *launch, *argv],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit_child)


class TestOutOfMemory:
    def test_one_line_and_its_code(self, tmp_path):
        # the expansion is made to spread E2 over ell times the window at
        # once, far more than the limit, so the child fails fast instead
        # of exhausting the host
        spread = ("import sys, ccrpoly.cli as c, ccrpoly.qseries as q; "
                  "q.PowerSeries.substitute_q_power = "
                  "lambda s, m, end: [0] * (m * len(s.nums)); "
                  "sys.exit(c.main())")
        proc = run_limited(["series", "--name", "F", "--ell", "100000000003",
                            "--prec", "10"], tmp_path, launch=("-c", spread))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (5, "out of memory: MemoryError\n", "")


MERSENNE_89 = str(2 ** 89 - 1)    # a prime, so every level check passes


class TestSeriesAtAnyLevel:
    @pytest.mark.parametrize("name, ell", [
        ("F", "100000000003"), ("sigma1", "100000000003"), ("F", MERSENNE_89)])
    def test_costs_the_window_not_the_level(self, tmp_path, name, ell):
        # under the child's limits; past the window, F = E2(q) - ell
        # E2(q^ell) is E2 but for its constant term 1 - ell
        proc = run_limited(["series", "--name", name, "--ell", ell,
                            "--prec", "10"], tmp_path)
        f = eisenstein_series(2, 10).coeffs
        f[0] -= int(ell)
        scale = Fraction(-int(ell), 2) if name == "sigma1" else 1
        want = "".join(f"{n} {c * scale}\n" for n, c in enumerate(f))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


class TestBounds:
    @pytest.mark.parametrize("argv, flag, bound", [
        (["series", "--name", "E4", "--prec", "10000000000"],
         "prec", "MAX_PREC"),
        (["series", "--name", "E4", "--prec", "1" + "0" * 20],
         "prec", "MAX_PREC"),
        (["series", "--name", "j", "--prec", "1" + "0" * 20],
         "prec", "MAX_PREC"),
        (["build", "--kind", "U", "--ell", "100000000003"], "ell", "MAX_ELL"),
        (["build", "--kind", "U", "--ell", MERSENNE_89], "ell", "MAX_ELL"),
        (["elkies", "--p", "1009", "--a", "1", "--b", "3", "--ell",
          MERSENNE_89], "ell", "MAX_ELL"),
    ])
    def test_past_a_bound_is_one_usage_line(self, tmp_path, argv, flag,
                                            bound):
        # under the child's 1 s CPU limit, so a request that starts the
        # work instead of refusing it is killed and fails here
        proc = run_limited(argv, tmp_path)
        value = argv[argv.index(f"--{flag}") + 1]
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, f"usage error: --{flag} {value} exceeds {bound}="
               f"{getattr(cli, bound)}\n", "")
        assert not (tmp_path / "cache").exists()

    def test_prec_at_the_bound_runs(self, capsys):
        assert cli.main(["series", "--name", "E4", "--prec",
                         str(cli.MAX_PREC)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == cli.MAX_PREC

    def test_ell_at_the_bound_builds(self, monkeypatch):
        from ccrpoly import builder
        monkeypatch.setattr(builder, "build", lambda kind, ell: (kind, ell))
        assert cli._build_poly("W", cli.MAX_ELL) == ("W", cli.MAX_ELL)
        with pytest.raises(ValueError, match="exceeds MAX_ELL"):
            cli._build_poly("W", cli.MAX_ELL + 2)


class TestSelftest:
    def test_green(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "selftest: PASS" in capsys.readouterr().out


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [ELKIES_ARGS, ATKIN_ARGS])
    def test_seed_is_not_a_flag(self, cache, capsys, argv):
        # root finding takes one fixed path, so there is nothing to seed
        assert cli.main(argv + ["--seed", "0"]) == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not cache.exists()

    def test_reach_tool_calls_every_command(self):
        # tools/reach.py measures what its calls reach, so a command that
        # none of them runs would go unmeasured
        spec = importlib.util.spec_from_file_location(
            "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
        reach = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reach)
        commands, = (a.choices for a in cli._parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
        assert set(commands) <= {argv[0] for argv in reach.CALLS}
