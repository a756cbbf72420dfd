"""Batch command-line front end.

Commands: build (write one polynomial store file), elkies (sigma-chart
isogeny step), atkin (f-chart step for ell = 11 mod 12),
verify-symbolic (replay the formula derivations), series (dump a named
q-expansion), selftest (fast end-to-end sanity run).  elkies and atkin
share one runner, _run_step, and print only their own result lines.

Exit codes are a stable contract: 0 success, 1 no result (Atkin
prime), 2 usage error, 3 verification, builder or store failure, 4
degenerate computation, 5 out of memory.  A command returns 0, 1 or 4
itself and raises for the rest; ``EXITS`` maps the error to its line
and code.  Reports are line-oriented key=value text.
"""

import argparse
import functools
import os
import sys

from .certify import check_at_cm_vectors
from .errors import (BuildError, CCRError, SingularCurve, StoreError,
                     VerificationError)
from .ffield import CurveParams, PrimeField, is_probable_prime
from .isogeny import _check_sums_prime, atkin_step, elkies_step
from .trivariate import PHI_ELLS, check_kind, poly_from_text, poly_to_text

CACHE_ENV = "CCR_CACHE_DIR"
# The largest level the command line builds or steps at and the longest
# series it expands; library callers are not bounded.  Raw single runs on
# a 2-vCPU host: W71, the slowest kind at 71, built in 4.9-5.2 s and W101
# in 37-40 s; j, the slowest series, took 2.1-2.2 s at 5000 terms and
# 51 s at 20000.  A step is bounded even when its polynomial is in the
# store: the read's check at a CM vector takes about 2 us times ell
# (1.9 s at ell = 999983), so a planted file at a 9-digit level would
# run for most of an hour.
MAX_ELL = 71
MAX_PREC = 5000

# error class -> (report prefix, exit code); a command raises, main prints
# one line and returns the code
EXITS = {
    StoreError: ("store error", 3),
    VerificationError: ("verification failure", 3),
    BuildError: ("builder failure", 3),
    CCRError: ("error", 4),
    ValueError: ("usage error", 2),
    MemoryError: ("out of memory", 5),
}


def _cache_dir() -> str:
    # an empty value is unset, as an empty --poly-dir is
    return os.environ.get(CACHE_ENV) or ".ccr-cache"


def _store_path(directory: str, kind: str, ell: int, basis: str) -> str:
    return os.path.join(directory, f"{kind}_{ell}_{basis}.txt")


def __getattr__(name):
    # the builder is imported by the commands and store misses that run it
    if name in ("build", "build_classical_phi"):
        from . import builder
        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_ell(ell: int):
    if ell > MAX_ELL:
        raise ValueError(f"--ell {ell} exceeds MAX_ELL={MAX_ELL}")


def _build_poly(kind: str, ell: int):
    _check_ell(ell)
    from .builder import build
    return build(kind, ell)


def load_or_build(kind: str, ell: int, directory: str,
                  rebuild: bool = False):
    """Fetch a polynomial in its kind's cached basis from the store,
    building and caching it on a miss.  With rebuild, regenerate and
    require byte equality with any existing file.  A step loads its
    cross-check kinds only once U has a root.  Store files are ASCII
    with LF line ends, as poly_to_text writes them, whatever the locale's
    encoding or the OS: no CR is read or written as a line end."""
    basis = check_kind(kind, ell).bases[0]
    path = _store_path(directory, kind, ell, basis)
    cached = None
    try:
        if os.path.exists(path):
            with open(path, encoding="ascii", newline="") as fh:
                cached = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc
    if cached is not None and not rebuild:
        try:
            found = poly_from_text(cached)
            if (found.kind, found.ell) != (kind, ell):
                raise StoreError(f"holds kind={found.kind} ell={found.ell} "
                                 f"basis={found.basis}, not the requested "
                                 f"kind={kind} ell={ell} basis={basis}")
            # a build checks both CM vectors; a read checks D = -7 alone,
            # which refuses every single-term deletion the tests make
            return check_at_cm_vectors(found.validate(), (-7,))
        except (StoreError, BuildError) as exc:
            raise StoreError(f"{path}: {exc}") from None
    poly = _build_poly(kind, ell)
    text = poly_to_text(poly, basis)
    if cached is not None and cached != text:
        raise BuildError(f"rebuild of {kind}_{ell} does not match "
                         f"the cached file {path}")
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"cannot create {directory}: {exc}") from exc
    _write_atomic(path, text)
    return poly_from_text(text)


def _write_atomic(path: str, text: str):
    """Write through a temp file in the same directory and rename it into
    place, so a reader finds the old file or the whole new one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _parse_curve(args, kind: str) -> CurveParams:
    """CurveParams over PrimeField(p) from --p/--a/--b; ValueError when
    they make no usable curve, --ell is p, past MAX_ELL or no level of kind."""
    if args.p <= 3 or not is_probable_prime(args.p):
        raise ValueError("p not prime or too small")
    if kind == "U":
        _check_sums_prime(args.p)
    try:
        curve = CurveParams(PrimeField(args.p), args.a, args.b)
    except SingularCurve as exc:
        raise ValueError(f"singular curve: {exc}") from None
    check_kind(kind, args.ell)
    if curve.field.p == args.ell:
        raise ValueError(f"ell={args.ell} is not an odd prime level distinct "
                         f"from p")
    _check_ell(args.ell)
    return curve


def cmd_build(args) -> int:
    bases = check_kind(args.kind, args.ell).bases
    basis = bases[0] if args.basis is None else args.basis
    if basis not in bases:
        raise ValueError(f"kind {args.kind} has no basis {basis}; its bases "
                         f"are {', '.join(bases)}")
    text = poly_to_text(_build_poly(args.kind, args.ell), basis)
    out = args.out or _store_path("", args.kind, args.ell, basis)
    _write_atomic(out, text)
    print(f"wrote {out}")
    return 0


def _run_step(args, kind: str, step, others: tuple, root: str) -> tuple:
    """Parse the curve, load the kind's polynomial, run the step, then
    print the header and the step's diagnostics; return the results and
    whether any root was skipped.  The others reach the step as loaders,
    which it calls only when the kind's polynomial has a root.  A load's
    store or build error is the call's one line; any other error of the
    step follows the header.  root names the results' root field: a
    diagnostic on a root with no result reads skipped, a note on an
    answered root does not."""
    curve = _parse_curve(args, kind)
    directory = args.poly_dir or _cache_dir()

    def load(k):
        return load_or_build(k, args.ell, directory, rebuild=args.rebuild)

    poly = load(kind)
    header = (f"p={curve.field.p} A={curve.A} B={curve.B} ell={args.ell} "
              f"j={curve.j_invariant()}")
    diagnostics = []
    try:
        results = step(curve, args.ell, poly,
                       *(functools.partial(load, k) for k in others),
                       diagnostics=diagnostics)
    except (StoreError, BuildError):
        raise
    except BaseException:
        print(header)
        raise
    print(header)
    answered = {getattr(r, root) for r in results}
    for r, message in diagnostics:
        status = "" if r in answered else "skipped: "
        print(f"diagnostic: root={r} {status}{message}")
    return results, any(r not in answered for r, _ in diagnostics)


def cmd_elkies(args) -> int:
    phi = ("Phi",) if args.ell in PHI_ELLS else ()
    results, skipped = _run_step(args, "U", elkies_step, ("V", "W") + phi,
                                  "sigma")
    for r in results:
        flags = r.validated
        print(f"sigma={r.sigma} Astar={r.a_star} Bstar={r.b_star} "
              f"E4t={r.e4t} E6t={r.e6t} "
              f"sigma0={r.sigma0} sigma2={r.sigma2} sigma3={r.sigma3} "
              f"v_root={flags.v_root} w_root={flags.w_root} "
              f"phi_match={flags.phi_match}")
    if not results and not skipped:
        print("Atkin prime: no roots")
        return 1
    if not results:
        print("degenerate: all roots skipped")
        return 4
    if all(False in r.validated for r in results):
        raise VerificationError("no validated result")
    return 0


def cmd_atkin(args) -> int:
    results, skipped = _run_step(args, "Ua", atkin_step, (), "f")
    for r in results:
        if r.b_star is None:
            print(f"f={r.f} sigma={r.sigma} E4t={r.e4t} Bstar=unavailable "
                  f"Astar={r.a_star} gcd_degree=2 error={r.error}")
        else:
            print(f"f={r.f} sigma={r.sigma} E4t={r.e4t} Bstar={r.b_star} "
                  f"Astar={r.a_star} gcd_degree=1")
    if not results and not skipped:
        print("Atkin-variant polynomial has no roots")
        return 1
    if not any(r.b_star is not None for r in results):
        print("degenerate: no root yielded a rational Bstar")
        return 4
    return 0


def cmd_verify_symbolic(args) -> int:
    from .symbolic import DERIVATIONS
    for name, fn in DERIVATIONS.items():
        if args.case in ("all", name):
            print(fn().text())
    return 0


def cmd_series(args) -> int:
    from .qseries import expand
    if args.prec > MAX_PREC:
        raise ValueError(f"--prec {args.prec} exceeds MAX_PREC={MAX_PREC}")
    series = expand(args.name, args.prec, ell=args.ell)
    for n in range(series.lead, series.end):
        print(f"{n} {series.coefficient(n)}")
    return 0


def cmd_selftest(args) -> int:
    from .qseries import expand
    failures = []

    def check(label, cond):
        print(f"{'PASS' if cond else 'FAIL'} {label}")
        if not cond:
            failures.append(label)

    u5 = _build_poly("U", 5)
    ab = u5.to_basis("AB")
    check("U5 printed form", ab.get((4, 1, 0)) == 20
          and ab.get((0, 0, 2)) == -80)
    field = PrimeField(1009)
    curve = CurveParams(field, 1, 3)
    res = elkies_step(curve, 5, u5, v=_build_poly("V", 5),
                      w=_build_poly("W", 5), phi=_build_poly("Phi", 5))
    ok = any(r.sigma == 584 and r.a_star == 441 and r.b_star == 997
             and r.validated.v_root and r.validated.w_root
             and r.validated.phi_match for r in res)
    check("elkies worked example", ok)
    ares = atkin_step(curve, 11, _build_poly("Ua", 11))
    ok = any(r.f == 65 and r.sigma == 75 and r.e4t == 532 and r.b_star == 460
             for r in ares)
    check("atkin worked example", ok)
    check("sigma1 constant term",
          expand("sigma1", 2, ell=5).coefficient(0) == 10)
    if failures:
        print(f"selftest: FAIL ({len(failures)})")
        return 3
    print("selftest: PASS")
    return 0


class _Subcommand(argparse.ArgumentParser):
    """Runs ``setup`` on itself at its first parse, so a command's choices
    are imported only when that command runs."""

    setup = None

    def parse_known_args(self, args=None, namespace=None):
        setup, self.setup = self.setup, None
        if setup:
            setup(self)
        return super().parse_known_args(args, namespace)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ccrpoly",
        description="Modular polynomials for elliptic-curve isogenies")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Subcommand)

    b = sub.add_parser("build", help="build one polynomial store file")
    b.add_argument("--ell", type=int, required=True)
    b.add_argument("--kind", required=True)
    b.add_argument("--basis", default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_build)

    def curve_flags(p):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--poly-dir", default=None)
        p.add_argument("--rebuild", action="store_true")

    e = sub.add_parser("elkies", help="run the sigma-chart isogeny step")
    curve_flags(e)
    e.set_defaults(fn=cmd_elkies)

    a = sub.add_parser("atkin", help="run the f-chart step (ell = 11 mod 12)")
    curve_flags(a)
    a.set_defaults(fn=cmd_atkin)

    def verify_symbolic_args(v):
        from .symbolic import DERIVATIONS
        v.add_argument("--case", default="all",
                       choices=("all",) + tuple(DERIVATIONS))

    v = sub.add_parser("verify-symbolic", help="replay formula derivations")
    v.setup = verify_symbolic_args
    v.set_defaults(fn=cmd_verify_symbolic)

    def series_args(s):
        from .qseries import _FORM_NAMES
        s.add_argument("--name", required=True, choices=_FORM_NAMES)
        s.add_argument("--prec", type=int, default=10)
        s.add_argument("--ell", type=int, default=None)

    s = sub.add_parser("series", help="dump a named q-expansion")
    s.setup = series_args
    s.set_defaults(fn=cmd_series)

    t = sub.add_parser("selftest", help="fast end-to-end sanity run")
    t.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except tuple(EXITS) as exc:
        # the most derived class of the error that has a row decides
        prefix, code = next(EXITS[cls] for cls in type(exc).__mro__
                            if cls in EXITS)
        # a MemoryError usually carries no text
        print(f"{prefix}: {str(exc) or type(exc).__name__}")
        return code


if __name__ == "__main__":
    sys.exit(main())
