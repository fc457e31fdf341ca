"""The demo scripts and the table tool run end to end in a fresh
interpreter against this package."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_script(path, *args):
    return subprocess.run([sys.executable, str(path), *args], env=child_env(),
                          capture_output=True, text=True, timeout=300)


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    res = run_script(ROOT / "demos" / name)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def test_regen_tool_help():
    res = run_script(ROOT / "tools" / "regen_kprod_table.py", "--help")
    assert res.returncode == 0, res.stderr
