"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the sha256 of the store text of every
polynomial the workloads build, and the exit code and stdout of every
CLI call in the cli workload's curve pool.  Record it once, from a
version of the code whose outputs are trusted; a later change that alters
any of these outputs then shows up as failed operations.
"""

import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (CLI_STUB, HERE, OUT, CliWorkload,  # noqa: E402
                       build_poly, run_python)
from ccrpoly import cli, trivariate  # noqa: E402

POLYS = ([(k, ell) for ell in (5, 7, 11, 13, 17, 19, 23) for k in "UVW"]
         + [("U", 31), ("Ua", 11), ("Ua", 23)]
         + [("Phi", ell) for ell in (5, 7, 11, 13)])
CLI_P = 1000003
CLI_POOL = 16


def main():
    digests = {}
    for kind, ell in POLYS:
        text = trivariate.poly_to_text(build_poly(kind, ell))
        digests[f"{kind}{ell}"] = hashlib.sha256(text.encode()).hexdigest()
        print(f"{kind}{ell} {digests[kind + str(ell)]}", flush=True)

    rng = random.Random("perfbench/cli-pool")
    curves = []
    while len(curves) < CLI_POOL:
        a, b = rng.randrange(1, CLI_P), rng.randrange(1, CLI_P)
        if (4 * a ** 3 + 27 * b * b) % CLI_P:
            curves.append([a, b])
    cache = OUT / "record-cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    calls = {}
    for a, b in curves:
        for command, ell in CliWorkload.CALLS:
            argv = [command, "--p", str(CLI_P), "--a", str(a), "--b", str(b),
                    "--ell", str(ell)]
            proc = run_python(["-c", CLI_STUB, *argv],
                              env=dict(os.environ,
                                       **{cli.CACHE_ENV: str(cache)}),
                              cwd=OUT)
            calls[f"{command} {ell} {a} {b}"] = {"exit": proc.returncode,
                                                 "stdout": proc.stdout}
            print(command, ell, a, b, proc.returncode, flush=True)
    shutil.rmtree(cache)
    ref = {"store_sha256": digests,
           "cli": {"p": CLI_P, "curves": curves, "calls": calls}}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
