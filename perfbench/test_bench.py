"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They run every workload at its smoke size, so they take a few seconds.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layers import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_counts_repeat_across_traced_runs():
    for name in WORKLOADS:
        first, second = (run.run_workload(name, 3, 0.2, 1, smoke=True)[0]
                         for _ in range(2))
        for metric in COUNT_METRICS:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)


def test_smoke_mode_passes():
    assert run.smoke() == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == run.E2E_METRICS
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [row[:3] for row in LAYER_METRICS]
    assert spec["paths"] == ["perfbench"]


def test_tail_percentile_leaves_ten_samples_above():
    samples = list(range(100))
    q, value = run.tail_percentile(samples)
    assert (q, value) == (90, 89)
    assert sum(s > value for s in samples) == 10
    assert run.tail_percentile([3, 1, 2]) == (100, 3)


def test_scaled_times_follow_the_kernel(monkeypatch):
    _, nominal = run.KERNELS["small_int"]
    monkeypatch.setattr(run, "kernel_times", lambda kernel: [2 * nominal] * 3)
    times = run.Scaled("small_int")
    for key, seconds in (("a", 1.0), ("a", 0.5), ("b", 2.0)):
        times.add(key, seconds)
    raw, scaled = times.totals()
    assert raw == [1.5, 2.0]
    assert scaled == [0.75, 1.0]
