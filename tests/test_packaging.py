"""The package depends on numpy alone and exports only what its examples import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xxring

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xxring"


def test_cli_import_loads_no_scipy():
    code = ("import sys, xxring.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_after_numpy_adds_no_dataclasses():
    # generating dataclass methods was most of the package's own import time
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import xxring.cli\n"
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = ast.literal_eval(out.strip())
    assert "xxring.cli" in added and "dataclasses" not in added


def test_commands_load_no_numpy_ma():
    # np.unique without return_* options imports numpy.ma on numpy 2
    code = ("import contextlib, io, sys\n"
            "from xxring import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['verify', '--n', '2..8'], ['lp', '--n', '7', '--j', '1'],\n"
            "                 ['concurrence', '--n', '9'], ['spectrum', '--n', '6']):\n"
            "        assert cli.run(argv) == 0\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_numpy_is_the_only_dependency():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}

    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def quickstart_source():
    """The README's quickstart: the first python block after its heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quickstart"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_top_level_exports_are_what_demos_and_quickstart_import():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    sources.append(quickstart_source())
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "xxring" and node.level == 0:
                imported.update(alias.name for alias in node.names)
    assert sorted(xxring.__all__) == sorted(imported | {"__version__"})
    assert all(hasattr(xxring, name) for name in xxring.__all__)
