"""Print every statement of src/ccrpoly that a fixed traffic list never
runs, and count them.

    python3 tools/reach.py

Tracing (stdlib ``trace``) starts before ``ccrpoly`` is imported, so
module-level statements count.  The traffic is the ``__main__`` guard
once through ``runpy``; every call in CALLS through ``cli.main``, each
step call once cold and once warm, with its store in ``--poly-dir``
but for one ``--rebuild`` call that takes the default store; and the
work of perfbench's own workloads (perfbench/workloads.py), each made
as ``--smoke`` makes it (seed 1, smoke size, the reference, in process)
and run through its set-up, its set-up checks and one round of
operations, each checked against the reference or its oracle.  Every
call runs in a temporary directory.  The output is one ``file:line:
statement`` line for each statement that never ran, then ``unreached
N`` and ``unreached_error M``: M counts the statements that are a
``raise`` or sit under an ``except``, and N every other one.  The tool
writes nothing inside the repository.

Known remainder, unreached and kept:
- read or wrapped by perfbench, until ROADMAP item 6 removes them:
  ``PowerSeries.coeffs``, ``TrivariatePoly.partial`` and
  ``cli.__getattr__``;
- compared or printed through by the tests: the ``__eq__`` of
  ``PowerSeries`` and ``UniPoly``, and the ``__repr__`` methods;
- the public names that ``ccrpoly.__getattr__`` serves to library
  users and the tests;
- edge-case correctness: ``MultiPoly.exact_divide``'s general-division
  branch, the degree-0 and all-zero edge returns, the type-dispatch
  ``NotImplemented`` returns, a negative denominator in ``_series``,
  the composite branches and rarer Jacobi-symbol and D-search steps of
  ``is_probable_prime``, ``_write_atomic``'s clean-up after a failed
  write, and the CLI lines for outcomes no listed curve has (a failed
  selftest, an Atkin root with no rational B*).
"""

import ast
import io
import os
import runpy
import sys
import tempfile
import trace
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "ccrpoly"
# small p, p = 1 (mod 4), j = 0, j = 1728, and one curve at 2^256 - 189
# with Elkies roots at 5 and 7 and Atkin roots at 11
CURVES = [(1009, 1, 3), (10009, 1, 3), (1009, 0, 3), (1009, 1, 0),
          (2 ** 256 - 189, 3, 5)]
STEPS = [[cmd, "--p", str(p), "--a", str(a), "--b", str(b), "--ell", ell,
          "--poly-dir", "cache"]
         for p, a, b in CURVES
         for cmd, ell in (("elkies", "5"), ("elkies", "7"), ("atkin", "11"))]
CALLS = [["selftest"], ["verify-symbolic"],
         *(["series", "--name", name, "--prec", "12", "--ell", "11"]
           for name in ("E2", "E4", "E6", "Delta", "j", "F", "sigma1", "f")),
         *(["build", "--kind", kind, "--ell", ell, "--basis", basis]
           for kind, ell, bases in (("U", "13", "E4E6 AB"),
                                    ("V", "7", "E4E6 AB"),
                                    ("W", "7", "E4E6 AB"),
                                    ("Ua", "11", "E4E6 AB Delta"),
                                    ("Phi", "7", "j"))
           for basis in bases.split()),
         *STEPS, *STEPS, STEPS[0][:-2] + ["--rebuild"],
         # past MAX_ELL: one usage line each
         ["build", "--kind", "U", "--ell", "73"],
         ["elkies", "--p", "1009", "--a", "1", "--b", "3", "--ell", "73"]]


def traffic():
    sys.argv = ["ccrpoly", "series", "--name", "E4", "--prec", "3"]
    try:
        runpy.run_module("ccrpoly.cli", run_name="__main__")
    except SystemExit:
        pass
    from ccrpoly import cli
    os.environ.pop(cli.CACHE_ENV, None)  # the default store is ./.ccr-cache
    for argv in CALLS:
        cli.main(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    workloads.OUT = Path.cwd()  # the cli workload's store
    reference = workloads.load_reference()
    for make in workloads.WORKLOADS.values():
        w = make(1, True, reference, in_process=True)
        try:
            for step in w.setup_steps():
                step()
            w.check_setup()
            for op in next(w.rounds()):
                w.run_op(*op)
        finally:
            w.close()
        if w.failed:
            raise RuntimeError(f"perfbench {w.name}: {w.problems}")


def statements(node, error=False):
    """(line, under a raise or except) of each statement that compiles
    to code: no docstring or other lone constant, global or nonlocal."""
    for child in ast.iter_child_nodes(node):
        err = error or isinstance(child, (ast.Raise, ast.ExceptHandler))
        if isinstance(child, ast.stmt) and not isinstance(
                child, (ast.Global, ast.Nonlocal)) and not (
                isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)):
            yield child.lineno, err
        yield from statements(child, err)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PKG.parent))
    tracer = trace.Trace(count=1, trace=0)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        os.chdir(tmp)
        # the build workload's set-up imports the package in a child
        # process, whose bytecode goes here too
        os.environ["PYTHONPYCACHEPREFIX"] = os.path.join(tmp, "pycache")
        try:
            tracer.runfunc(traffic)
        finally:
            os.chdir(home)
    ran = {(Path(path).resolve(), line)
           for path, line in tracer.results().counts}
    counts = [0, 0]
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for line, err in sorted(set(statements(ast.parse(source)))):
            if (path, line) not in ran:
                counts[err] += 1
                print(f"{path.relative_to(ROOT)}:{line}: "
                      f"{lines[line - 1].strip()}")
    print(f"unreached {counts[0]}\nunreached_error {counts[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
