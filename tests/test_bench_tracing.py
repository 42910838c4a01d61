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

from garside_homology import OrderResolution, artin_named, build_complex, homology
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


def test_observers_read_real_complexes(tracing):
    # the span observers read cell counts off an OrderResolution and the
    # spelled-out Word coefficients of OrderResolution.boundaries
    tracer = tracing.Tracer()
    tracer.command = 0
    tracer.details[0] = []
    struct = artin_named("A3")
    res = OrderResolution(struct)
    tracer._observe_cells(None, res)
    cx = build_complex(struct)
    tracer._observe_complex(cx)
    chains = [res.differential(cell) for layer in res.cells[1:] for cell in layer]
    terms = sum(len(chain) for chain in chains)
    longest = max(len(res.kernel.word(node).atoms) for chain in chains for node, _ in chain)
    assert tracer.counts["resolution.cells.count"] == sum(res.cell_counts()) == 8
    assert tracer.counts["resolution.differential.chain_terms"] == terms
    assert tracer.maxima["resolution.differential.max_word_len"] == longest > 1
    assert tracer.details[0] == [["cells", [1, 3, 3, 1]], ["complex", [1, 3, 3, 1], terms, longest]]


def test_counters_wrap_the_word_adapters(monkeypatch, tracing):
    # compute_homology works on kernel nodes, so it calls none of the
    # counted adapters; each adapter still counts a direct call
    for name in tracing.COUNTED_METHODS:
        monkeypatch.setattr(GaussianStructure, name, getattr(GaussianStructure, name))
    tracer = tracing.Tracer()
    tracer.install_counters()
    struct = artin_named("A3")
    homology.compute_homology(struct, make_system("laurent", "Q"))
    assert not tracer.counts
    word = struct.word([0, 1])
    struct.quotient_atom(word, 1)
    struct.least_divisor(word)
    struct.canonical_form(word)
    struct.lcm_with_atom(word, 0)
    assert dict(tracer.counts) == {f"gaussian.{name}.calls": 1 for name in tracing.COUNTED_METHODS}
