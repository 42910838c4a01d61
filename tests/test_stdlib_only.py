"""The package runs on the standard library alone.

pyproject.toml declares `dependencies = []`; sympy and hypothesis serve the
tests only.  Every absolute import in the package must name a module of the
standard library, so a third-party import cannot slip into the runtime.
Every run pays for the package's imports, so its records are NamedTuples
and plain classes: `dataclasses` would bring `inspect`, `ast` and `dis`.
"""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "garside_homology").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module names of the file's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_package_has_sources():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    foreign = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert foreign == []


def test_declared_dependencies_are_empty():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []


def test_the_guard_sees_third_party_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom sympy import Poly\nfrom . import rings\nimport hypothesis as h\n")
    assert absolute_imports(probe) == ["os", "sympy", "hypothesis"]


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site or environment, the sources on its path
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import garside_homology.cli; "
        "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])"
    )
    run = subprocess.run([sys.executable, "-S", "-E", "-c", code, str(ROOT / "src")], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
