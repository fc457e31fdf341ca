"""The command end to end: a short run, and a run without the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[2]


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_short_run_prints_every_metric_last():
    proc = run(ROOT, "--workload", "infer_n8", "--seed", "3", "--seconds", "0.2",
               "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 24
    assert set(last["metrics"]) == {n for n, *_ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert '"git_commit"' in proc.stdout and '"blas_threads": 1' in proc.stdout


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "pipeline_n8", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench").exists()
