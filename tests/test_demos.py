"""Each demo script runs to completion against the public API, and each
public function of the package has a caller outside the tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermoait

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_function_has_a_caller():
    # a public module-level function is named somewhere in the package
    # other than its definition, in a demo, or among the package's exports
    # (its from-imports and its table of lazily imported names); one that
    # only tests call is API that nothing uses
    package = ROOT / "src" / "thermoait"
    modules = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in modules + DEMOS}
    used = {alias.name for node in ast.walk(trees[package / "__init__.py"])
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used.update(thermoait._LAZY)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.name}:{node.name}" for path in modules
              for node in trees[path].body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []


def test_every_lazy_export_resolves():
    for name, module in thermoait._LAZY.items():
        value = getattr(thermoait, name)
        assert value is getattr(sys.modules[f"thermoait.{module}"], name)
        assert name in thermoait.__all__
    with pytest.raises(AttributeError):
        getattr(thermoait, "no_such_name")
