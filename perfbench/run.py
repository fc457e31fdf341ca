"""Benchmark of the entstruct package: one workload, one closed loop.

    python3 perfbench/run.py --workload pipeline_n8 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Lines before it name every metric with its unit, the environment, and
any failed instance.  Spans of a traced run are written to
.perfbench/spans-<workload>-<seed>.jsonl.  `--write-spec` rewrites
BENCHMARK.json from spec.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
# Set-up is measured in this process and in this many fresh ones.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120

import spec  # noqa: E402  (stdlib-only module next to this file)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _setup_probe_times(args) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _print_metrics(title: str, values: dict, units: dict, notes: dict | None = None) -> None:
    print(title)
    for name, value in values.items():
        note = f"  [{notes[name]}]" if notes and notes.get(name) else ""
        print(f"  {name:28s} {value:14.6g} {units[name]}{note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if not (ROOT / "src" / "entstruct" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'entstruct'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    # Set-up: import the package (numpy and scipy with it) and run the
    # workload's warm-up unit, so lazy first-call costs land here.
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import entstruct
    if Path(entstruct.__file__).resolve().parent != ROOT / "src" / "entstruct":
        print(f"error: entstruct imported from {entstruct.__file__}", file=sys.stderr)
        return 2
    import checks
    import loop
    import metrics
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        workload.warmup(args.seed)
        setup_here = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setup = [setup_here] + _setup_probe_times(args)

        env = _environment(args.seed)
        print("environment " + json.dumps(env))
        main_loop = loop.closed_loop(workload, args.seed, args.seconds, traced=bool(args.trace))
        samples = main_loop.samples
        coverage = []
        if args.trace:
            for other in WORKLOADS.values():
                if other.name != workload.name:
                    coverage.append((other.name, loop.coverage_pass(other(Path(tmp)), args.seed)))
                    samples = samples + coverage[-1][1].samples

    attempted = len(samples)
    unsound = sum(s.unsound for s in samples)
    tolerated = checks.false_accepts_tolerated(unsound, attempted)
    # Beyond the chance rate, every unsound report is a failure.
    failed = sum(s.failed or (s.unsound and not tolerated) for s in samples)
    print(f"workload {args.workload}: {len(main_loop.samples)} instances in {main_loop.passes} "
          f"passes, {main_loop.busy:.2f} s on the clock; "
          f"{attempted - len(main_loop.samples)} in coverage passes; "
          f"{failed} of {attempted} failed (error_rate {failed / attempted:.6g}); "
          f"{unsound} false accepts, {'within' if tolerated else 'OVER'} the chance "
          f"allowance of {checks.FALSE_ACCEPT_SHARE:g} of instances")
    correct = failed == 0
    if args.trace:
        values, source, acc = metrics.per_layer(main_loop, coverage)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        notes = {name: f"from one {src} pass" for name, src in source.items() if src != "measured"}
        notes["tomo.state_bytes"] = "computed: 16*4^n per sample call, not measured"
        notes["tomo.estimate_ms"] = notes["tomo.estimate_calls"] = (
            "replayed on the report's evidence " + notes.get("tomo.estimate_ms", "")).strip()
        _print_metrics("per-layer metrics (traced run)", values, units, notes)
        ok = acc["ok"]
        print(f"trace accounting over {acc['pairs']} untraced/traced pairs: "
              f"{'ok' if ok else 'FAILED'} (unaccounted {acc['trace.unaccounted_pct']:.3f}% "
              f"vs overhead {acc['trace.overhead_pct']:.3f}% + "
              f"{100 * metrics.GLUE_ALLOWANCE:g}% allowance)")
        correct = correct and ok
        main_loop.tracer.write(scratch / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = metrics.end_to_end(main_loop, statistics.median(setup))
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        done = sum(not s.raised for s in samples)
        _print_metrics("end-to-end metrics (untraced run)", values, units, {
            "latency_p50_ms": f"{done} samples",
            "latency_p90_ms": f"{done} samples",
            "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup),
        })
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match the spec {sorted(units)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
