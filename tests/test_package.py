"""What the package imports, and what its users import from it."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from test_cli import child_env

ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(
    [ROOT / "src" / "entstruct" / "cli.py"]
    + list((ROOT / "perfbench").glob("*.py"))
    + list((ROOT / "perfbench" / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
)


def package_names(path):
    """(module, name) for every name the file imports from entstruct,
    and for every attribute it reads off an entstruct module it imported."""
    tree = ast.parse(path.read_text(), str(path))
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # only the package's own cli.py imports relatively
                module = "entstruct" + ("." + module if module else "")
            if module.split(".")[0] != "entstruct":
                continue
            for alias in node.names:
                found.append((module, alias.name))
                sub = f"{module}.{alias.name}"
                if _is_module(sub):
                    modules[alias.asname or alias.name] = sub
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "entstruct":
                    found.append((alias.name, None))
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((modules[node.value.id], node.attr))
    return found


def _is_module(dotted):
    try:
        importlib.import_module(dotted)
    except ModuleNotFoundError:
        return False
    return True


def test_import_loads_no_scipy():
    code = ("import sys, entstruct; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_every_imported_name_resolves():
    checked, missing = 0, []
    for path in USERS:
        for module, name in package_names(path):
            checked += 1
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                missing.append(f"{path.relative_to(ROOT)}: {module}.{name}")
    assert checked > 50
    assert not missing
