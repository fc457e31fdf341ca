"""What BENCHMARK.json declares: workloads, metrics, bounds.

`python3 perfbench/run.py --write-spec` writes BENCHMARK.json from here,
and the run checks that it prints exactly these metrics.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    ("pipeline_n8",
     "simulate then infer on the 8 PBS geometries at 1e5 shots; state building and "
     "sampling are ~95% of an instance, so sampler changes show here and inference barely"),
    ("infer_n8",
     "infer on given data at noise 0.02-0.08, each draw read as a counts file and as an "
     "expectation table; no state or sampling work, only parsing, estimators, inference"),
    ("bounds_certified",
     "kprod_curve see-saw on the 9 certified (k, gamma) cells at 200 restarts; only "
     "the bounds module runs, and no other workload calls it"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("recovery_rate", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("states.build_ms", "ms", "lower"),
    ("states.calls", "count", "lower"),
    ("tomo.sample_ms", "ms", "lower"),
    ("tomo.sample_calls", "count", "lower"),
    ("tomo.state_bytes", "bytes", "lower"),
    ("tomo.save_ms", "ms", "lower"),
    ("tomo.load_ms", "ms", "lower"),
    ("tomo.counts_bytes", "bytes", "lower"),
    ("tomo.outcomes", "count", "lower"),
    ("tomo.estimate_ms", "ms", "lower"),
    ("tomo.estimate_calls", "count", "lower"),
    ("inference.infer_ms.counts", "ms", "lower"),
    ("inference.infer_ms.table", "ms", "lower"),
    ("inference.check_ms", "ms", "lower"),
    ("inference.tests", "count", "lower"),
    ("inference.accept_ratio", "ratio", "higher"),
    ("bounds.cell_ms", "ms", "lower"),
    ("bounds.iterations", "count", "lower"),
    ("bounds.converged_ratio", "ratio", "higher"),
    ("bounds.abs_err_max", "beta", "lower"),
    ("trace.instance_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unaccounted_pct", "%", "lower"),
]


def benchmark_doc() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def benchmark_json() -> str:
    return json.dumps(benchmark_doc(), indent=2) + "\n"
