"""Write a BENCH_<n>.json file: the benchmark's end-to-end metrics over
several runs of every workload, as medians with quartiles.

    python3 tools/bench_json.py --out BENCH_37.json [--runs 3]

Run from anywhere; the output path is taken from the current directory.
Run r (r = 1..runs) takes seed r on every workload, and the workloads
alternate within each run, so slow drift in the host's speed falls on
all of them alike.  Each run is one ``perfbench/run.py --workload W
--seed r`` subprocess at perfbench's own default run length, read from
the JSON result on its last line and the ``# perfbench`` record before
it.

For each workload the file gives the five end-to-end metrics as
median, q1, q3 and iqr (quartiles by the inclusive method) with the
values of every run, and the attempted and failed operation counts
summed over the runs.  After the timed runs, one ``--trace 1`` run per
workload at seed 1 gives ``counts``: every per-layer metric whose unit
is ``count``.  The traced runs take fixed rounds, so these repeat
exactly from run to run, and a change that moves one does more or less
work.  The file also records the Python version,
``nproc`` and ``src_lines`` from perfbench's record, the commit (with
``dirty`` when the tree differs from it), the run count and the run
length that perfbench's record reports.  perfbench itself is only run, never changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("build", "step256", "batch", "cli")
METRICS = ("setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb")


def run_once(workload: str, seed: int, *extra: str) -> tuple:
    """(record, result) of one perfbench run, with the extra arguments.
    A failed run prints its workload, seed, exit code and the tail of its
    stderr, and exits 1 before any file is written."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), *extra],
        cwd=ROOT, capture_output=True, encoding="utf-8")
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        sys.exit(f"perfbench failed: workload {workload}, seed {seed}, "
                 f"exit {proc.returncode}\n{tail}")
    lines = proc.stdout.splitlines()
    record = next(ln for ln in reversed(lines)
                  if ln.startswith("# perfbench "))
    return json.loads(record[len("# perfbench "):]), json.loads(lines[-1])


def summary(values: list) -> dict:
    """Median and quartiles of one metric over the runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          encoding="utf-8", check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_json")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    # the tree as measured, before any edit made while the runs go on
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    seen = {name: {"values": {m: [] for m in METRICS}, "attempted": 0,
                   "failed": 0} for name in WORKLOADS}
    record = None
    for seed in range(1, args.runs + 1):
        for name in WORKLOADS:
            record, result = run_once(name, seed)
            got = seen[name]
            got["attempted"] += result["attempted"]
            got["failed"] += result["failed"]
            for m in METRICS:
                got["values"][m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: op_p50_ms "
                  f"{result['metrics']['op_p50_ms']['value']:.4g}, "
                  f"failed {result['failed']}", flush=True)
    counts = {}
    for name in WORKLOADS:
        _, result = run_once(name, 1, "--trace", "1")
        counts[name] = {k: m["value"] for k, m in result["metrics"].items()
                        if m["unit"] == "count"}
        print(f"{name} traced: {len(counts[name])} counts", flush=True)
    out = {
        "commit": commit,
        "dirty": dirty,
        "python": record["python"],
        "nproc": record["nproc"],
        "src_lines": record["src_lines"],
        "runs": args.runs,
        "seconds": record["seconds"],
        "workloads": {
            name: {"seeds": list(range(1, args.runs + 1)),
                   "attempted": got["attempted"], "failed": got["failed"],
                   "metrics": {m: summary(got["values"][m])
                               for m in METRICS},
                   "counts": counts[name]}
            for name, got in seen.items()},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
