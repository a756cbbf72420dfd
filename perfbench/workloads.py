"""The benchmark's workloads: build, step256, batch and cli.

A workload sets up, then yields rounds of operations.  An operation is a
call into the library, or one CLI subprocess, followed by a check of its
output.  The check runs outside the operation's timed interval and
compares against an independent oracle or against a reference recorded
from an earlier version of the code (``reference.json``).

Inputs come only from the workload seed: the library receives the
generated (A, B) pairs and nothing else.
"""

import functools
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from ccrpoly import builder, cli, isogeny, trivariate
from ccrpoly.ffield import CurveParams, PrimeField

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Taken before any tracing starts, so that checks never add spans.
_to_text = trivariate.poly_to_text

CLI_STUB = "import sys; from ccrpoly.cli import main; sys.exit(main())"
IMPORT_STUB = ("import time; t = time.perf_counter(); import ccrpoly.cli; "
               "print(time.perf_counter() - t)")


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def store_digest(poly) -> str:
    return hashlib.sha256(_to_text(poly).encode()).hexdigest()


def build_poly(kind: str, ell: int):
    if kind == "Phi":
        return builder.build_classical_phi(ell)
    return builder.build(kind, ell)


def run_python(args: list, env: dict = None, cwd=None):
    """One interpreter subprocess on the checkout's sources; waits for it."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    # keep compiled bytecode between calls, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _powers(x: int, top: int, p: int) -> list:
    out = [1]
    for _ in range(top):
        out.append(out[-1] * x % p)
    return out


class Oracle:
    """A built polynomial evaluated mod p straight from its exact terms,
    without the ffield module: P(X, E4, E6) for the trivariate kinds,
    Phi(X, j) for the classical one."""

    def __init__(self, poly, p: int):
        self.p = p
        if isinstance(poly, trivariate.ClassicalModularPoly):
            items = (((i, k, 0), c) for (i, k), c in poly.terms.items())
        elif poly.basis == "E4E6":
            items = poly.terms.items()
        else:
            raise ValueError("oracle needs the E4E6 basis")
        self.terms = [(i, a, b, c.numerator * pow(c.denominator, -1, p) % p)
                      for (i, a, b), c in items]
        self.top = [max(t[k] for t in self.terms) for k in range(3)]

    def __call__(self, x: int, y: int, z: int = 0) -> int:
        p = self.p
        xs, ys, zs = (_powers(v, top, p) for v, top in zip((x, y, z),
                                                            self.top))
        return sum(c * xs[i] * ys[a] * zs[b]
                   for i, a, b, c in self.terms) % p


def _j(e4: int, e6: int, p: int):
    """j from normalized Eisenstein values, None when Delta = 0."""
    c4 = pow(e4, 3, p)
    den = (c4 - e6 * e6) % p
    return 1728 * c4 * pow(den, -1, p) % p if den else None


class Workload:
    """Set-up, rounds of checked operations, and the counts of both."""

    name = ""
    setup_reps = 3        # set-ups per timed run; set-up time is their median
    warmup_rounds = 1     # untimed rounds before the timed region
    sample_rounds = False  # time whole rounds rather than single operations
    setup_kernel = "big_int"   # the calibration kernel like set-up's work
    op_kernel = "small_int"    # ... and like the operations' work
    traced_rounds = 1     # rounds in each half of a traced run

    def __init__(self, seed: int, smoke: bool, reference: dict,
                 in_process: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.ref = reference
        self.in_process = in_process
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        if smoke:
            self.setup_reps = 1
            self.traced_rounds = 1

    def expect(self, problems: list):
        """Count one checked output; problems is empty when it is right."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])

    def run_op(self, fn, check):
        """Seconds taken by fn(), or None when it raised.  Its output is
        then checked by check(output), which returns a list of problems."""
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # any exception is a failed operation
            self.expect([f"{self.name}: {exc!r}"])
            return None
        seconds = perf_counter() - t0
        try:
            problems = check(out)
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"{self.name} check: {exc!r}"]
        self.expect(problems)
        return seconds

    def setup_steps(self) -> list:
        """Callables that together do the work every timed operation
        needs; their summed time is setup_s."""
        return []

    def check_setup(self):
        """Untimed checks of what the set-up steps produced."""

    def rounds(self):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def close(self):
        pass

    def check_digests(self, polys: dict):
        for key, poly in polys.items():
            want = self.ref["store_sha256"].get(key)
            self.expect([] if store_digest(poly) == want
                        else [f"{key}: store text digest differs"])


class BuildWorkload(Workload):
    """Builds U31, W23, Ua23 and Phi13 from scratch, each round-tripped
    through the store text.  A round is one such pass, an operation one
    polynomial, and the timed sample the whole pass."""

    name = "build"
    setup_reps = 25       # a set-up is one short subprocess
    warmup_rounds = 0
    sample_rounds = True
    setup_kernel = "small_int"
    op_kernel = "big_int"
    POLYS = (("U", 31), ("W", 23), ("Ua", 23), ("Phi", 13))
    SMOKE_POLYS = (("U", 5), ("W", 5), ("Ua", 11), ("Phi", 5))

    def setup_steps(self) -> list:
        return [self._import]

    def _import(self):
        # nothing to prepare but the package itself: a fresh interpreter
        # importing it
        proc = run_python(["-c", "import ccrpoly"])
        if proc.returncode:
            raise RuntimeError(f"import ccrpoly failed: {proc.stderr}")

    def op(self, kind: str, ell: int):
        key = f"{kind}{ell}"

        def fn():
            poly = build_poly(kind, ell)
            text = trivariate.poly_to_text(poly)
            return poly, text, trivariate.poly_from_text(text)

        def check(out) -> list:
            poly, text, back = out
            problems = []
            if hashlib.sha256(text.encode()).hexdigest() != \
                    self.ref["store_sha256"].get(key):
                problems.append(f"{key}: store text digest differs")
            if back != poly:
                problems.append(f"{key}: store round trip differs")
            return problems

        return fn, check

    def rounds(self):
        polys = self.SMOKE_POLYS if self.smoke else self.POLYS
        while True:
            yield [self.op(kind, ell) for kind, ell in polys]


class _CurveWorkload(Workload):
    """Seeded random curves over F_p with polynomials built in set-up."""

    P = 0
    KINDS = ()
    LEVELS = ()
    SMOKE_LEVELS = ()
    ATKIN = None          # level of the atkin_step, or None
    SMOKE_ATKIN = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.field = PrimeField(self.P)
        self.levels = self.SMOKE_LEVELS if self.smoke else self.LEVELS
        self.atkin = self.SMOKE_ATKIN if self.smoke else self.ATKIN
        self.wanted = [(k, ell) for ell in self.levels for k in self.KINDS]
        if self.atkin:
            self.wanted.append(("Ua", self.atkin))

    def setup_steps(self) -> list:
        self.polys = {}
        return [functools.partial(self._build, k, ell)
                for k, ell in self.wanted]

    def _build(self, kind: str, ell: int):
        self.polys[f"{kind}{ell}"] = build_poly(kind, ell)

    def check_setup(self):
        self.check_digests(self.polys)
        self.oracles = {key: Oracle(poly, self.P)
                        for key, poly in self.polys.items()}

    def curve(self) -> CurveParams:
        p = self.P
        while True:
            # A, B nonzero keeps j off 0 and 1728, where every root
            # degenerates by construction
            a, b = self.rng.randrange(1, p), self.rng.randrange(1, p)
            if (4 * a ** 3 + 27 * b * b) % p:
                return CurveParams(self.field, a, b)

    def elkies_op(self, curve: CurveParams, ell: int, phi: bool):
        polys = self.polys
        kwargs = dict(v=polys[f"V{ell}"], w=polys[f"W{ell}"],
                      phi=polys[f"Phi{ell}"] if phi else None)

        def fn():
            return isogeny.elkies_step(curve, ell, polys[f"U{ell}"], **kwargs)

        def check(results) -> list:
            o, p = self.oracles, self.P
            e4, e6 = curve.e4, curve.e6
            j = _j(e4, e6, p)
            bad = []
            for r in results:
                f = r.validated
                if not (f.v_root and f.w_root
                        and (f.phi_match if phi else f.phi_match is None)):
                    bad.append(f"elkies {ell}: flags {f}")
                if o[f"U{ell}"](r.sigma, e4, e6) or \
                        o[f"V{ell}"](r.a_star, e4, e6) or \
                        o[f"W{ell}"](r.b_star, e4, e6):
                    bad.append(f"elkies {ell}: U, V or W oracle rejects")
                if phi:
                    j_star = _j(r.e4t, r.e6t, p)
                    if j_star is None or o[f"Phi{ell}"](j, j_star):
                        bad.append(f"elkies {ell}: Phi oracle rejects")
            return bad

        return fn, check


class Step256Workload(_CurveWorkload):
    """Point-counting steps at p = 2^256 - 189: elkies_step over ell in
    11..23 with V and W of the same level, then atkin_step at 23."""

    name = "step256"
    setup_reps = 2
    traced_rounds = 8
    P = 2 ** 256 - 189
    KINDS = ("U", "V", "W")
    LEVELS = (11, 13, 17, 19, 23)
    SMOKE_LEVELS = (11,)
    ATKIN = 23
    SMOKE_ATKIN = 11

    def atkin_op(self, curve: CurveParams, ell: int):
        ua = self.polys[f"Ua{ell}"]

        def fn():
            return isogeny.atkin_step(curve, ell, ua)

        def check(results) -> list:
            o = self.oracles
            e4, e6 = curve.e4, curve.e6
            bad = []
            for r in results:
                if o[f"U{ell}"](r.sigma, e4, e6) or \
                        o[f"V{ell}"](r.a_star, e4, e6):
                    bad.append(f"atkin {ell}: U or V oracle rejects")
                if r.b_star is not None and o[f"W{ell}"](r.b_star, e4, e6):
                    bad.append(f"atkin {ell}: W oracle rejects B*")
            return bad

        return fn, check

    def rounds(self):
        while True:
            curve = self.curve()
            yield ([self.elkies_op(curve, ell, False) for ell in self.levels]
                   + [self.atkin_op(curve, self.atkin)])


class BatchWorkload(_CurveWorkload):
    """Many small curves at p = 10007: one elkies_step per curve, ell
    cycling over 5, 7, 11, 13, with V, W and Phi cross-checks."""

    name = "batch"
    traced_rounds = 250   # 1000 curves
    P = 10007
    KINDS = ("U", "V", "W", "Phi")
    LEVELS = (5, 7, 11, 13)
    SMOKE_LEVELS = (5, 7)

    def rounds(self):
        while True:
            yield [self.elkies_op(self.curve(), ell, True)
                   for ell in self.levels]


class CliWorkload(Workload):
    """Sequential `ccrpoly elkies` and `ccrpoly atkin` calls on a pool of
    recorded curves.  Set-up makes the cold calls, one per command and
    level, which build and write the store; the timed calls are warm and
    read it.  Each call is a subprocess, or with in_process (the traced
    run) a call of cli.main."""

    name = "cli"
    traced_rounds = 16
    CALLS = (("elkies", 5), ("elkies", 7), ("elkies", 11), ("elkies", 13),
             ("atkin", 11))
    SMOKE_CALLS = (("elkies", 5), ("atkin", 11))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.p = self.ref["cli"]["p"]
        self.pool = self.ref["cli"]["curves"]
        self.calls = self.SMOKE_CALLS if self.smoke else self.CALLS
        self.workdir = OUT / f"cli-{os.getpid()}-{id(self)}"
        self.cache = self.workdir / "cache"

    def call(self, command: str, ell: int, a: int, b: int):
        """(exit code, stdout) of one CLI call."""
        argv = [command, "--p", str(self.p), "--a", str(a), "--b", str(b),
                "--ell", str(ell)]
        if self.in_process:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv + ["--poly-dir", str(self.cache)])
            return code, buf.getvalue()
        env = dict(os.environ, **{cli.CACHE_ENV: str(self.cache)})
        proc = run_python(["-c", CLI_STUB, *argv], env=env, cwd=self.workdir)
        return proc.returncode, proc.stdout

    def op(self, command: str, ell: int, a: int, b: int):
        want = self.ref["cli"]["calls"][f"{command} {ell} {a} {b}"]

        def check(out) -> list:
            code, stdout = out
            if code != want["exit"] or stdout != want["stdout"]:
                return [f"cli {command} {ell} {a} {b}: exit {code} "
                        f"or stdout differs from the reference"]
            return []

        return (lambda: self.call(command, ell, a, b)), check

    def setup_steps(self) -> list:
        a, b = self.rng.choice(self.pool)
        return [self._fresh_cache] + [
            functools.partial(self.run_op, *self.op(command, ell, a, b))
            for command, ell in self.calls]

    def _fresh_cache(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.cache.mkdir(parents=True)

    def rounds(self):
        while True:
            a, b = self.rng.choice(self.pool)
            yield [self.op(command, ell, a, b) for command, ell in self.calls]

    def import_seconds(self) -> float:
        """Median time to import ccrpoly.cli in a fresh interpreter."""
        times = []
        for _ in range(3):
            proc = run_python(["-c", IMPORT_STUB])
            if proc.returncode:
                raise RuntimeError(f"import ccrpoly.cli failed: "
                                   f"{proc.stderr}")
            times.append(float(proc.stdout))
        return statistics.median(times)

    def peak_rss_mb(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_maxrss * 1024 / 1e6

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BuildWorkload, Step256Workload,
                                 BatchWorkload, CliWorkload)}
