"""Batch command-line front end.

Commands: build (write one polynomial store file), elkies (sigma-chart
isogeny step), atkin (f-chart step for ell = 11 mod 12),
verify-symbolic (replay the formula derivations), series (dump a named
q-expansion), selftest (fast end-to-end sanity run).

Exit codes are a stable contract: 0 success, 1 no result (Atkin
prime), 2 usage error, 3 verification, builder or store failure, 4
degenerate computation.  A command returns 0, 1 or 4 itself and raises
for the rest; ``EXITS`` maps the error to its line and code.  Reports are
line-oriented key=value text.
"""

import argparse
import os
import sys

from .errors import (BuildError, CCRError, SingularCurve, StoreError,
                     VerificationError)
from .ffield import CurveParams, PrimeField, is_probable_prime
from .isogeny import atkin_step, elkies_step
from .trivariate import KINDS as POLY_KINDS, PHI_ELLS, poly_from_text, \
    poly_to_text, store_header

CACHE_ENV = "CCR_CACHE_DIR"
KINDS = POLY_KINDS + ("Phi",)
BASES = ("E4E6", "AB", "Delta")

# error class -> (report prefix, exit code); a command raises, main prints
# one line and returns the code
EXITS = {
    StoreError: ("store error", 3),
    VerificationError: ("verification failure", 3),
    BuildError: ("builder failure", 3),
    CCRError: ("error", 4),
    ValueError: ("usage error", 2),
}


def _cache_dir() -> str:
    return os.environ.get(CACHE_ENV, ".ccr-cache")


def _store_path(directory: str, kind: str, ell: int, basis: str) -> str:
    return os.path.join(directory, f"{kind}_{ell}_{basis}.txt")


def __getattr__(name):
    # the builder is imported by the commands and store misses that run it
    if name in ("build", "build_classical_phi"):
        from . import builder
        return getattr(builder, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _build_poly(kind: str, ell: int):
    from . import builder
    if kind == "Phi":
        return builder.build_classical_phi(ell)
    return builder.build(kind, ell)


def load_or_build(kind: str, ell: int, directory: str, basis: str = "E4E6",
                  rebuild: bool = False):
    """Fetch a polynomial from the store directory, building and caching
    it on a miss.  With rebuild, regenerate and require byte equality
    with any existing file."""
    if kind == "Phi":
        basis = "j"
    path = _store_path(directory, kind, ell, basis)
    cached = None
    try:
        if os.path.exists(path):
            with open(path) as fh:
                cached = fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read {path}: {exc}") from exc
    if cached is not None and not rebuild:
        try:
            found = store_header(cached)
            if found != (kind, ell, basis):
                raise StoreError("holds kind={} ell={} basis={}, not the "
                                 "requested kind={} ell={} basis={}".format(
                                     *found, kind, ell, basis))
            return poly_from_text(cached).validate()
        except (StoreError, BuildError) as exc:
            raise StoreError(f"{path}: {exc}") from None
    poly = _build_poly(kind, ell)
    text = poly_to_text(poly, None if kind == "Phi" else basis)
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
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _parse_curve(args) -> CurveParams:
    """CurveParams over PrimeField(p) from --p/--a/--b; ValueError when
    they do not make a usable curve."""
    if args.p <= 3 or not is_probable_prime(args.p):
        raise ValueError("p not prime or too small")
    if args.p in (5, 7):
        raise ValueError("p must exceed 7: p in {5, 7} breaks the power-sum "
                         "denominators")
    try:
        return CurveParams(PrimeField(args.p), args.a, args.b)
    except SingularCurve as exc:
        raise ValueError(f"singular curve: {exc}") from None


def cmd_build(args) -> int:
    if args.kind not in KINDS:
        raise ValueError(f"unknown kind {args.kind}")
    if args.basis == "Delta" and args.kind != "Ua":
        raise ValueError("Delta display only applies to kind Ua")
    poly = _build_poly(args.kind, args.ell)
    basis = None if args.kind == "Phi" else args.basis
    text = poly_to_text(poly, basis)
    out = args.out or f"{args.kind}_{args.ell}_{basis or 'j'}.txt"
    _write_atomic(out, text)
    print(f"wrote {out}")
    return 0


def cmd_elkies(args) -> int:
    curve = _parse_curve(args)
    ell = args.ell
    if ell < 5 or not is_probable_prime(ell) or curve.field.p == ell:
        raise ValueError(f"ell={ell} is not an odd prime level distinct "
                         f"from p")
    directory = args.poly_dir or _cache_dir()
    u = load_or_build("U", ell, directory, rebuild=args.rebuild)
    v = load_or_build("V", ell, directory, rebuild=args.rebuild)
    w = load_or_build("W", ell, directory, rebuild=args.rebuild)
    phi = (load_or_build("Phi", ell, directory, rebuild=args.rebuild)
           if ell in PHI_ELLS else None)
    print(f"p={curve.field.p} A={curve.A} B={curve.B} ell={ell} "
          f"j={curve.j_invariant()}")
    diagnostics = []
    results = elkies_step(curve, ell, u, v=v, w=w, phi=phi,
                          seed=args.seed, diagnostics=diagnostics)
    for root, message in diagnostics:
        print(f"diagnostic: root={root} skipped: {message}")
    for r in results:
        flags = r.validated
        print(f"sigma={r.sigma} Astar={r.a_star} Bstar={r.b_star} "
              f"E4t={r.e4t} E6t={r.e6t} "
              f"sigma0={r.sigma0} sigma2={r.sigma2} sigma3={r.sigma3} "
              f"v_root={flags.v_root} w_root={flags.w_root} "
              f"phi_match={flags.phi_match}")
    if not results and not diagnostics:
        print("Atkin prime: no roots")
        return 1
    if not results:
        print("degenerate: all roots skipped")
        return 4
    good = [r for r in results
            if all(f in (True, None) for f in (r.validated.v_root,
                                               r.validated.w_root,
                                               r.validated.phi_match))]
    if not good:
        raise VerificationError("no validated result")
    return 0


def cmd_atkin(args) -> int:
    if args.ell % 12 != 11:
        raise ValueError(f"ell={args.ell} is not 11 mod 12")
    curve = _parse_curve(args)
    if curve.field.p == args.ell:
        raise ValueError("p equals ell")
    directory = args.poly_dir or _cache_dir()
    ua = load_or_build("Ua", args.ell, directory, rebuild=args.rebuild)
    print(f"p={curve.field.p} A={curve.A} B={curve.B} ell={args.ell} "
          f"j={curve.j_invariant()}")
    diagnostics = []
    results = atkin_step(curve, args.ell, ua, seed=args.seed,
                         diagnostics=diagnostics)
    for root, message in diagnostics:
        print(f"diagnostic: root={root} skipped: {message}")
    for r in results:
        if r.b_star is None:
            print(f"f={r.f} sigma={r.sigma} E4t={r.e4t} Bstar=unavailable "
                  f"Astar={r.a_star} gcd_degree=2 error={r.error}")
        else:
            print(f"f={r.f} sigma={r.sigma} E4t={r.e4t} Bstar={r.b_star} "
                  f"Astar={r.a_star} gcd_degree=1")
    if not results and not diagnostics:
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
    series = expand(args.name, args.prec, ell=args.ell)
    for n in range(series.lead, series.end):
        c = series.coefficient(n)
        if c.denominator == 1:
            print(f"{n} {c.numerator}")
        else:
            print(f"{n} {c.numerator}/{c.denominator}")
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
    check("U5 printed form", ab.terms.get((4, 1, 0)) == 20
          and ab.terms.get((0, 0, 2)) == -80)
    field = PrimeField(1009)
    curve = CurveParams(field, 1, 3)
    res = elkies_step(curve, 5, u5, v=_build_poly("V", 5),
                      w=_build_poly("W", 5), phi=_build_poly("Phi", 5), seed=0)
    ok = any(r.sigma == 584 and r.a_star == 441 and r.b_star == 997
             and r.validated.v_root and r.validated.w_root
             and r.validated.phi_match for r in res)
    check("elkies worked example", ok)
    ares = atkin_step(curve, 11, _build_poly("Ua", 11), seed=0)
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
    b.add_argument("--basis", choices=BASES, default="E4E6")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_build)

    def curve_flags(p):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
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
        print(f"{prefix}: {exc}")
        return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
