"""The demo scripts, the table tool and the README's code run end to end
in a fresh interpreter against this package."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from entstruct import kprod_table
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


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for code in blocks:
        res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, f"{code}\n{res.stderr}"


def test_regen_tool_help():
    res = run_script(ROOT / "tools" / "regen_kprod_table.py", "--help")
    assert res.returncode == 0, res.stderr


def load_regen_tool():
    spec = importlib.util.spec_from_file_location(
        "regen_kprod_table", ROOT / "tools" / "regen_kprod_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_regen_tool_renders_the_table_module():
    text = load_regen_tool().render(kprod_table.TABULATED, kprod_table.COMPUTED_GAMMAS,
                                    kprod_table.COMPUTED_BETA)
    assert text == (ROOT / "src" / "entstruct" / "kprod_table.py").read_text()


def test_regen_tool_recomputes_the_table_module():
    # the full 140-cell see-saw at the committed 200 restarts
    text = load_regen_tool().table_text(200)
    assert text == (ROOT / "src" / "entstruct" / "kprod_table.py").read_text()
