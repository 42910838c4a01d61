"""The benchmark's tracing hooks still find what they wrap.

perfbench/tracing.py wraps package functions by module attribute, so a
refactor that renames one, or stops calling it through the module that
tracing patches, would leave `--trace 1` broken or silently empty.  The
file is read and executed here, never imported from its directory, so no
bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

from garside_homology import homology
from garside_homology.coefficients import make_system
from garside_homology.gaussian import GaussianStructure

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING_PATH.read_text(encoding="utf-8"), str(TRACING_PATH), "exec"), module.__dict__)
    return module


def test_traced_names_exist(tracing):
    for module, attr, _ in tracing.SPANS:
        assert hasattr(importlib.import_module(f"garside_homology.{module}"), attr), (module, attr)
    for name in tracing.COUNTED_METHODS:
        assert hasattr(GaussianStructure, name), name


@pytest.mark.parametrize("name, system", [("A3", ("laurent", "Q")), ("G13", ("sign",))])
def test_compute_homology_calls_through_traced_globals(monkeypatch, tracing, builtins, name, system):
    tracer = tracing.Tracer()
    for module, attr, _ in tracing.SPANS:
        if module == "homology":
            monkeypatch.setattr(homology, attr, tracer.count(getattr(homology, attr), attr))
    result = homology.compute_homology(builtins[name], make_system(*system))
    assert dict(tracer.counts) == {"build_complex": 1, "specialize": 1, "homology_at": len(result.groups)}
