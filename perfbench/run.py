"""ccrpoly benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload build|step256|batch|cli \\
        [--seed 1] [--seconds 15] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` beside this
directory, never from an installed copy.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it, starting ``# perfbench``, records the Python version,
``nproc``, the net source lines under src/ccrpoly, the sample counts and
the percentile behind ``op_tail_ms``.  Every result is also appended to
perfbench/out/results.jsonl.

--trace 0 times the workload for --seconds and prints the end-to-end
metrics, scaled by an interleaved calibration kernel to a machine of fixed
speed (see KERNELS); the record line also gives the raw wall-clock
figures.  --trace 1 runs a fixed amount of the workload twice, once
plain and once with layer spans (see layers.py), prints the per-layer
metrics and writes the spans to perfbench/out/trace-<workload>-seed<n>.jsonl.

--smoke runs every workload once at a minimal size and checks that all
metrics are printed with their units and that a corrupted reference
digest is counted as a failure.

Seed 1 is the default; seed 2 is kept for held-out checks of claims.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1

# name, unit, better, bound: the contract in BENCHMARK.json
E2E_METRICS = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def tail_percentile(samples: list) -> tuple:
    """(q, value): the highest whole percentile q, nearest rank, with at
    least ten samples above it; (100, max) when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        k = math.ceil(q * n / 100) - 1
        if n - 1 - k >= 10:
            return q, xs[k]
    return 100, xs[-1]


def net_source_lines() -> int:
    """Lines under src/ccrpoly that are neither blank nor comments."""
    total = 0
    for path in sorted((SRC / "ccrpoly").glob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


# The host's CPU speed drifts by up to 40% over seconds to minutes under
# other tenants' load, and not by the same share for every kind of work.
# Every timed interval is therefore scaled by the speed of a fixed
# pure-Python kernel that does the same kind of arithmetic, timed between
# stretches of at most BLOCK_S of work: times read as they would on a
# machine where that kernel takes its nominal time.  The raw wall-clock
# figures go in the record line.
BLOCK_S = 0.25            # longest stretch of work between kernel timings
KERNEL_REPS = 5           # kernel runs at each timing


def small_int_kernel():
    """What curve steps do: 256-bit modular products and small-dict
    updates, dominated by the interpreter."""
    p = 2 ** 256 - 189
    x, acc = 3, {}
    for i in range(2500):
        x = x * x % p
        key = i % 1001
        acc[key] = (acc.get(key, 0) + (x & 0xFFFF)) % 10007
    return x + len(acc)


def big_int_kernel():
    """What polynomial builds do: products and remainders of integers of
    several thousand bits, dominated by the integer arithmetic."""
    a, b, m = 3 ** 6000, 7 ** 5000, 5 ** 7000
    x = 1
    for _ in range(15):
        x = (x * a + b) % m
    return x


# name -> (kernel, nominal seconds: about its time on an unloaded 2-vCPU
# 2.1 GHz Xeon VM).  Neither kernel allocates anything the garbage
# collector tracks, so its time does not depend on the heap.
KERNELS = {"small_int": (small_int_kernel, 0.0016),
           "big_int": (big_int_kernel, 0.0045)}


def kernel_times(kernel) -> list:
    times = []
    for _ in range(KERNEL_REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


class Scaled:
    """Samples timed in stretches of at most BLOCK_S of work, with the
    kernel timed between stretches.  A stretch is scaled to the nominal
    machine by the median of the kernel timings on both sides of it."""

    def __init__(self, kernel: str):
        self.kernel, self.nominal = KERNELS[kernel]
        self.before = kernel_times(self.kernel)
        self.kernel_s = []        # every kernel timing, for the record
        self.stretch = []         # (sample key, raw seconds)
        self.since = perf_counter()
        self.last = None
        self.raw, self.scaled = array("d"), array("d")

    def add(self, key, seconds: float):
        """Add seconds to the sample named key; keys come in order."""
        self.stretch.append((key, seconds))
        if perf_counter() - self.since >= BLOCK_S:
            self._close_stretch()

    def _close_stretch(self):
        after = kernel_times(self.kernel)
        scale = self.nominal / statistics.median(self.before + after)
        for key, seconds in self.stretch:
            if key != self.last:
                self.raw.append(0.0)
                self.scaled.append(0.0)
                self.last = key
            self.raw[-1] += seconds
            self.scaled[-1] += seconds * scale
        self.kernel_s.extend(after)
        self.stretch = []
        self.before = after
        self.since = perf_counter()

    def totals(self) -> tuple:
        """(raw, scaled): the samples' seconds."""
        if self.stretch:
            self._close_stretch()
        return list(self.raw), list(self.scaled)


@contextmanager
def one_cpu():
    """Keep this process, and every subprocess it starts, on one CPU, so
    that the kernel is timed on the CPU the work runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def warm_kernels():
    for kernel, _ in KERNELS.values():
        for _ in range(50):   # let the interpreter specialise it
            kernel()


def scaled_setups(w, reps: int) -> tuple:
    """(raw, scaled): the seconds of each of reps set-ups."""
    setups = Scaled(w.setup_kernel)
    for i in range(reps):
        for step in w.setup_steps():
            t0 = perf_counter()
            step()
            setups.add(i, perf_counter() - t0)
    return setups.totals()


def measure(w, seconds: float) -> tuple:
    """End-to-end metrics of one timed run, and details for the record.

    A sample is one operation's time, or with w.sample_rounds the summed
    time of one round's operations."""
    warm_kernels()
    setup_raw, setup_scaled = scaled_setups(w, w.setup_reps)
    w.check_setup()
    rounds = w.rounds()
    for _ in range(w.warmup_rounds):
        for op in next(rounds):
            w.run_op(*op)
    ops = Scaled(w.op_kernel)
    n = r = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in next(rounds):
            seconds_taken = w.run_op(*op)
            if seconds_taken is not None:
                ops.add(r if w.sample_rounds else n, seconds_taken)
            n += 1
        r += 1
    wall = perf_counter() - start
    raw, latencies = ops.totals()
    if not latencies:
        raise RuntimeError(f"every operation raised: {w.problems[:3]}")
    q, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": w.peak_rss_mb(),
    }
    details = {"samples": len(latencies), "setup_samples": len(setup_raw),
               "tail_percentile": q, "timed_wall_s": wall,
               "raw_setup_s": statistics.median(setup_raw),
               "raw_op_p50_ms": statistics.median(raw) * 1e3,
               "raw_ops_per_s": len(raw) / sum(raw),
               "kernels": [w.setup_kernel, w.op_kernel],
               "op_kernel_s": statistics.median(ops.kernel_s)}
    return metrics, details


def fixed_work(w) -> float:
    """Set up once and run the traced-run rounds; seconds spent in set-up
    and operations, checks excluded, scaled as in a timed run."""
    warm_kernels()
    spent = sum(scaled_setups(w, 1)[1])
    w.check_setup()
    ops = Scaled(w.op_kernel)
    rounds = w.rounds()
    for _ in range(w.traced_rounds):
        for op in next(rounds):
            seconds = w.run_op(*op)
            if seconds is not None:
                ops.add(0, seconds)
    return spent + sum(ops.totals()[1])


def traced(make, out_dir: Path) -> tuple:
    """Per-layer metrics: the fixed work untraced, then traced."""
    from layers import install, layer_metrics
    from tracer import Tracer

    plain = make()
    try:
        untraced_s = fixed_work(plain)
    finally:
        plain.close()
    w = make()
    try:
        with Tracer() as tracer:
            install(tracer)
            traced_s = fixed_work(w)
        import_s = w.import_seconds() if hasattr(w, "import_seconds") else 0.0
    finally:
        w.close()
    tracer.write_jsonl(out_dir / f"trace-{w.name}-seed{w.seed}.jsonl")
    metrics = layer_metrics(tracer, import_s, traced_s - untraced_s,
                            untraced_s)
    details = {"untraced_s": untraced_s, "traced_s": traced_s,
               "spans": len(tracer.spans), "rounds": w.traced_rounds}
    counts = (plain.attempted + w.attempted, plain.failed + w.failed,
              plain.problems + w.problems)
    return metrics, details, counts


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, reference: dict = None) -> tuple:
    """One run; returns the result object and the record beside it."""
    from layers import LAYER_METRICS
    from workloads import OUT, WORKLOADS, load_reference

    OUT.mkdir(exist_ok=True)
    reference = reference or load_reference()

    def make():
        return WORKLOADS[name](seed, smoke, reference, in_process=bool(trace))

    if trace:
        values, details, (attempted, failed, problems) = traced(make, OUT)
        units = {m[0]: m[1] for m in LAYER_METRICS}
    else:
        w = make()
        try:
            with one_cpu():
                values, details = measure(w, seconds)
        finally:
            w.close()
        attempted, failed, problems = w.attempted, w.failed, w.problems
        units = {m[0]: m[1] for m in E2E_METRICS}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}}
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": net_source_lines(), "problems": problems[:5],
            **details}
    return result, info


def smoke() -> int:
    """Every workload once at minimal size, plus the corrupted-digest
    check.  Exit status 0 when everything holds."""
    from layers import LAYER_METRICS
    from workloads import WORKLOADS, load_reference

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if want[1] != {m[0]: m[1] for m in LAYER_METRICS}:
        print("smoke FAIL: BENCHMARK.json per_layer differs from layers.py")
        return 1
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(name, DEFAULT_SEED, 0.2, trace, True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = result["correct"] and got == want[trace]
            bad += not ok
            print(f"smoke {'ok  ' if ok else 'FAIL'} {name} trace={trace} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for name, corrupt in (("build", _corrupt_digest), ("cli", _corrupt_cli)):
        ref = load_reference()
        corrupt(ref)
        result, _ = run_workload(name, DEFAULT_SEED, 0.2, 0, True, ref)
        ok = result["failed"] >= 1 and not result["correct"]
        bad += not ok
        print(f"smoke {'ok  ' if ok else 'FAIL'} {name} with a corrupted "
              f"reference: failed={result['failed']}")
    print(f"smoke: {'PASS' if not bad else f'FAIL ({bad})'}")
    return 1 if bad else 0


def _corrupt_digest(ref: dict):
    digest = ref["store_sha256"]["U5"]
    ref["store_sha256"]["U5"] = ("0" if digest[0] != "0" else "1") + digest[1:]


def _corrupt_cli(ref: dict):
    for call in ref["cli"]["calls"].values():
        call["stdout"] = call["stdout"].replace("=", ":", 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=("build", "step256", "batch",
                                               "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ccrpoly" / "__init__.py").is_file():
        print(f"perfbench: no ccrpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    from workloads import OUT
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print("# perfbench " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
