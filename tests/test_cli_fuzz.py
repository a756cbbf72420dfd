"""Hypothesis fuzzing of the command line, end to end.

Every call goes through ``cli.main`` in process, with argv drawn for
elkies, atkin, build and series, against one polynomial store written
once per session, and against copies of that store with one line
replaced, deleted, inserted or truncated.  Whatever the input, the call
returns a documented exit code from 0 to 4, no exception escapes, and an
error is reported by exactly one line, the last one printed.
"""

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ccrpoly import cli
from ccrpoly.qseries import _FORM_NAMES
from ccrpoly.trivariate import poly_to_text

# levels in the store: U, V, W and Phi at each, Ua at 11 only
LEVELS = (5, 7, 11, 13)
UA_LEVELS = (11,)
PREFIXES = tuple(f"{prefix}: " for prefix, _ in cli.EXITS.values())


def fuzz(examples: int):
    slow = [HealthCheck.too_slow, HealthCheck.function_scoped_fixture]
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=slow)


@pytest.fixture(scope="session")
def store(request, tmp_path_factory):
    """A --poly-dir holding every polynomial the drawn commands read."""
    directory = tmp_path_factory.mktemp("store")
    polys = [(kind, ell, request.getfixturevalue(f"{kind.lower()}{ell}"))
             for ell in LEVELS for kind in ("U", "V", "W", "Phi")]
    polys += [("Ua", ell, request.getfixturevalue(f"ua{ell}"))
              for ell in UA_LEVELS]
    for kind, ell, poly in polys:
        basis = "j" if kind == "Phi" else "E4E6"
        path = Path(cli._store_path(str(directory), kind, ell, basis))
        path.write_text(poly_to_text(poly))
    return directory


def _digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def run_main(argv: list) -> tuple:
    """(exit code, stdout lines, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().splitlines(), err.getvalue()


def check_contract(code, lines, stderr):
    """A documented code, and at most one error line, printed last; the
    prefix of that line is the one whose code was returned."""
    assert code in (0, 1, 2, 3, 4), (code, lines, stderr)
    event(f"exit {code}")
    errors = [ln for ln in lines if ln.startswith(PREFIXES)]
    if not errors:
        # argparse refuses a malformed argv on stderr; a command that
        # finds no result or only degenerate roots says so itself
        assert code != 3, lines
        if code == 2:
            assert not lines and "error: " in stderr, (lines, stderr)
        return
    assert errors == [lines[-1]], lines
    prefix = errors[0].split(": ", 1)[0]
    assert dict(cli.EXITS.values())[prefix] == code, (code, lines)


# p: primes small and large, p in {5, 7}, composites, strong pseudoprimes
# and values that are not primes at all
PRIMES = st.sampled_from([1009, 10007, 2**61 - 1, 11, 13, 2**256 - 189])
BAD_P = st.sampled_from([-7, 0, 1, 2, 3, 4, 5, 7, 15, 1001, 3215031751])
COEFF = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
# a third of the draws are levels in the store, a third anything up to
# 13, and a third past the command line's bound on the levels it builds,
# primes, which pass every level check, among them; a level past the
# bound is a usage error, after whatever usage error comes first
LEVEL = st.one_of(st.sampled_from(LEVELS), st.integers(-3, 13), st.one_of(
    st.sampled_from([cli.MAX_ELL + 2, 83, 2**89 - 1]),
    st.integers(cli.MAX_ELL + 1, 2**90)))
# --prec on both sides of the bound on series length
PREC = st.one_of(st.integers(-3, 30), st.integers(cli.MAX_PREC + 1, 2**70))


@st.composite
def curve_argv(draw, command: str):
    p = draw(st.one_of(PRIMES, PRIMES, PRIMES, BAD_P))
    level = LEVEL if command == "elkies" else st.one_of(
        st.sampled_from(UA_LEVELS), LEVEL)
    return [command, "--p", str(p), "--a", str(draw(COEFF)),
            "--b", str(draw(COEFF)), "--ell", str(draw(level))]


def _mangle(draw, argv: list) -> list:
    """Sometimes drop a token, add an unknown flag, or make a value
    unparseable.  Callers append the directory flags afterwards, so no
    mangled call falls back to the working directory."""
    choice = draw(st.integers(0, 9))
    if choice == 0 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif choice == 1:
        argv += draw(st.sampled_from([["--seed", "3"], ["--verbose"], ["x"]]))
    elif choice == 2 and len(argv) > 2:
        argv[draw(st.integers(2, len(argv) - 1))] = draw(
            st.sampled_from(["", "x", "1.5", "--", "0x10"]))
    return argv


class TestStepCommands:
    @fuzz(150)
    @given(data=st.data())
    def test_elkies_and_atkin(self, store, data):
        before = _digest(store)
        command = data.draw(st.sampled_from(["elkies", "atkin"]))
        drawn = data.draw(curve_argv(command))
        ell = int(drawn[-1])
        argv = _mangle(data.draw, drawn) + ["--poly-dir", str(store)]
        code, lines, stderr = run_main(argv)
        check_contract(code, lines, stderr)
        assert code == 2 or ell <= cli.MAX_ELL
        assert _digest(store) == before


LINES = st.one_of(
    st.builds(lambda i, a, b, c: f"{i} {a} {b} {c}",
              st.integers(-1, 14), st.integers(-1, 10), st.integers(-1, 10),
              st.one_of(st.integers(-10**30, 10**30),
                        st.sampled_from(["1/1009", "1/2018", "1/10007",
                                         "-1/1728", "1/0", "0", "x"]))),
    st.sampled_from(["", "CCR kind=U ell=5 basis=E4E6",
                     "CCR kind=Phi ell=5 basis=j", "1 2", "1 2 3 4 5 6"]),
    st.text(max_size=12))


class TestCorruptedStore:
    @fuzz(150)
    @given(data=st.data())
    def test_one_line_changed(self, store, data):
        name = data.draw(st.sampled_from(sorted(
            p.name for p in store.iterdir())))
        kind, ell = name.split("_")[:2]
        command = "atkin" if kind == "Ua" else "elkies"
        p = data.draw(st.sampled_from([1009, 10007, 2**61 - 1]))
        a, b = (data.draw(st.integers(1, p - 1)) for _ in "ab")
        argv = [command, "--p", str(p), "--a", str(a), "--b", str(b),
                "--ell", ell]
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "store"
            shutil.copytree(store, copy)
            path = copy / name
            lines = path.read_text().splitlines(keepends=True)
            at = data.draw(st.integers(0, len(lines)))
            edit = data.draw(st.sampled_from(
                ["replace", "delete", "insert", "truncate", "coefficient"]))
            if edit == "coefficient" and 0 < at < len(lines):
                # same term, a coefficient that may have p in its
                # denominator, as no built polynomial does
                num = data.draw(st.integers(-10**6, 10**6))
                den = data.draw(st.sampled_from(
                    [1, 2, 3, 5, 1728, p, 2 * p, 1728 * p]))
                keys = lines[at].split()[:-1]
                lines[at] = " ".join(keys + [f"{num}/{den}"]) + "\n"
            elif edit in ("insert", "coefficient") or at == len(lines):
                lines.insert(at, data.draw(LINES) + "\n")
            elif edit == "replace":
                lines[at] = data.draw(LINES) + "\n"
            elif edit == "delete":
                del lines[at]
            else:
                lines[at] = lines[at][:data.draw(
                    st.integers(0, len(lines[at]) - 1))]
            path.write_text("".join(lines))
            check_contract(*run_main(argv + ["--poly-dir", str(copy)]))


class TestOtherCommands:
    @fuzz(25)
    @given(kind=st.sampled_from(["U", "V", "W", "Ua", "Phi", "Q"]),
           ell=LEVEL, basis=st.sampled_from(["E4E6", "AB", "Delta", "j"]),
           data=st.data())
    def test_build(self, kind, ell, basis, data):
        # Ua stops at 11: its next level is 23
        if kind == "Ua" and ell > 11:
            ell = 11
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.txt"
            argv = _mangle(data.draw, ["build", "--kind", kind, "--ell",
                                       str(ell), "--basis", basis])
            code, lines, stderr = run_main(argv + ["--out", str(out)])
            check_contract(code, lines, stderr)
            assert code == 2 or ell <= cli.MAX_ELL
            if code == 0:
                assert len(lines) == 1 and lines[0].startswith("wrote ")
                assert out.read_text().startswith(f"CCR kind={kind} ")

    @fuzz(60)
    @given(name=st.sampled_from(_FORM_NAMES + ("E8",)), prec=PREC,
           ell=st.one_of(st.none(), LEVEL), data=st.data())
    def test_series(self, name, prec, ell, data):
        # series --ell has no bound: F and sigma1 cost their window at a
        # level far past the builder's
        argv = ["series", "--name", name, "--prec", str(prec)]
        if ell is not None:
            argv += ["--ell", str(ell)]
        code, lines, stderr = run_main(_mangle(data.draw, argv))
        check_contract(code, lines, stderr)
        assert code == 2 or prec <= cli.MAX_PREC
