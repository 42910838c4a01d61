"""Extra published rows beyond the acceptance set.

Dihedral monoids I2(m) and the rank-4 groups give cheap cross-checks of the
whole pipeline against independent table data; a couple of larger Coxeter
types guard the performance envelope.  Every Artin row in reach is also
checked against the Salvetti complex (oracles.py), in all three systems.
"""

import functools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside_homology import (
    AtomOrdering,
    artin_named,
    builtin_structure,
    circulating_structure,
    compute_homology,
    format_group,
    make_system,
    optimize_ordering,
    serialize_structure,
)
from garside_homology.coefficients import cyclotomic_poly
from garside_homology.linalg import invariant_factors
from garside_homology.rings import Rationals, poly_mul
from garside_homology.structures import coxeter_matrix

import mutations
import oracles

QQ = Rationals()


def phi(*ns):
    out = (QQ.one,)
    for n in ns:
        out = poly_mul(QQ, out, cyclotomic_poly(n, QQ))
    return out


def groups_data(result):
    return [(g.free_rank, list(g.torsion)) for g in result.groups]


def laurent_torsion(group):
    """Laurent divisors as polynomials: their normal forms have valuation 0."""
    assert all(v == 0 for v, _ in group.torsion)
    return [poly for _, poly in group.torsion]


def run(name, kind, field=None, p=None, max_dim=None):
    struct = artin_named(name)
    return compute_homology(
        struct, make_system(kind, field, p), optimize_ordering(struct), max_dim=max_dim
    )


DIHEDRAL_TRIVIAL = {
    "I2(4)": [(1, []), (2, []), (1, [])],
    "I2(5)": [(1, []), (1, []), (0, [])],
    "I2(6)": [(1, []), (2, []), (1, [])],
    "I2(8)": [(1, []), (2, []), (1, [])],
    "I2(10)": [(1, []), (2, []), (1, [])],
}

DIHEDRAL_SIGN = {
    "I2(4)": [(0, [2]), (0, [4]), (0, [])],
    "I2(5)": [(0, [2]), (0, [5]), (0, [])],
    "I2(6)": [(0, [2]), (0, [6]), (0, [])],
    "I2(8)": [(0, [2]), (0, [8]), (0, [])],
    "I2(10)": [(0, [2]), (0, [10]), (0, [])],
}

DIHEDRAL_LAURENT_H1 = {
    "I2(4)": [phi(1, 4)],
    "I2(5)": [phi(10)],
    "I2(6)": [phi(1, 3, 6)],  # (t^6-1)/(t+1)
    "I2(8)": [phi(1, 4, 8)],  # (t^8-1)/(t+1)
    "I2(10)": [phi(1, 5, 10)],  # (t^10-1)/(t+1)
}


@pytest.mark.parametrize("name", sorted(DIHEDRAL_TRIVIAL))
def test_dihedral_rows(name):
    assert groups_data(run(name, "trivial")) == DIHEDRAL_TRIVIAL[name]
    assert groups_data(run(name, "sign")) == DIHEDRAL_SIGN[name]
    laurent = run(name, "laurent", "Q")
    assert laurent_torsion(laurent.groups[1]) == DIHEDRAL_LAURENT_H1[name]
    assert laurent.groups[2].is_trivial()


def test_a4_rows():
    # the published sign and Laurent rows; the published integral row prints
    # a trailing Z in H_4, which is impossible for this complex (the
    # alternating rank sum must match 1-4+6-4+1 = 0) and contradicts the
    # Laurent row under universal coefficients, so the corrected H_4 = 0 is
    # asserted here
    assert groups_data(run("A4", "trivial")) == [
        (1, []), (1, []), (0, [2]), (0, []), (0, []),
    ]
    assert groups_data(run("A4", "sign")) == [
        (0, [2]), (0, []), (0, [2]), (0, [5]), (0, []),
    ]
    laurent = run("A4", "laurent", "Q")
    assert [laurent_torsion(g) for g in laurent.groups] == [[phi(1)], [], [phi(4)], [phi(10)], []]


def test_h4_rows():
    start = time.monotonic()
    assert groups_data(run("H4", "trivial")) == [
        (1, []), (1, []), (0, [2]), (1, []), (1, []),
    ]
    assert groups_data(run("H4", "sign")) == [
        (0, [2]), (0, []), (0, [2]), (0, [120]), (0, []),
    ]
    laurent = run("H4", "laurent", "Q")
    # (t^30-1)/(t+1) * Phi_4 Phi_12 Phi_20
    expected = phi(1, 3, 5, 6, 10, 15, 30, 4, 12, 20)
    assert [laurent_torsion(g) for g in laurent.groups] == [[phi(1)], [], [], [expected], []]
    assert time.monotonic() - start < 120.0


def test_b4_and_d4_run():
    # no published rows in scope; exercised for the generator and the engine
    b4 = groups_data(run("B4", "trivial"))
    assert b4[0] == (1, [])
    assert len(b4) == 5
    d4 = groups_data(run("D4", "trivial"))
    assert d4[0] == (1, [])


def test_e6_integral_row():
    start = time.monotonic()
    assert groups_data(run("E6", "trivial", max_dim=6)) == [
        (1, []), (1, []), (0, [2]), (0, [2]), (0, [6]), (0, [3]), (0, []),
    ]
    assert time.monotonic() - start < 120.0


def test_a6_laurent_f2_row():
    # out of reach before the Laurent-ring SNF; every degree is checked
    # against sympy's invariant factors over GF(2)[t] on the same matrices
    from garside_homology.coefficients import specialize
    from garside_homology.rings import PrimeField, poly_from_ints

    import test_linalg

    f2 = PrimeField(2)
    result = run("A6", "laurent", "Fp", 2)
    assert [(g.free_rank, laurent_torsion(g)) for g in result.groups] == [
        (0, [poly_from_ints(f2, [1, 1])]),
        (0, []),
        (0, [poly_from_ints(f2, [1, 0, 0, 1])]),
        (0, [poly_from_ints(f2, [1, 1])]),
        (0, [poly_from_ints(f2, [1, 1, 1])]),
        (0, [poly_from_ints(f2, [1] * 7)]),
        (0, []),
    ]
    cx = result.resolution
    mats = specialize(cx, result.system)
    for n, group in enumerate(result.groups):
        b_in = test_linalg.oracle_factors(mats[n + 1]) if n + 1 < len(mats) else []
        rank_out = len(test_linalg.oracle_factors(mats[n])) if n >= 1 else 0
        dom = mats[1].domain
        assert group.torsion == [d for d in b_in if not dom.is_unit(d)], n
        assert group.free_rank == len(cx.cells[n]) - rank_out - len(b_in), n


LAURENT_Q_ROWS = {
    "A6": [[phi(1)], [], [phi(6)], [], [phi(3)], [phi(14)], []],
    "E6": [[phi(1)], [], [], [], [phi(3, 8)], [phi(3, 6, 12, 18)], []],
}


@pytest.mark.parametrize("name", sorted(LAURENT_Q_ROWS))
def test_laurent_q_rows_of_a6_and_e6(name):
    # the rows as the Salvetti complex gives them (tests/oracles.py; sympy
    # over QQ[t] takes about 48 s on A6).  Each degree is also checked
    # against invariant_factors on copies of the engine's matrices with every
    # coefficient a Fraction, so the int coefficients of Rationals change no
    # factor.
    from garside_homology.coefficients import specialize

    import test_linalg

    oracle = oracles.salvetti_homology(coxeter_matrix(name), make_system("laurent", "Q"))
    assert [laurent_torsion(g) for g in oracle] == LAURENT_Q_ROWS[name]
    result = run(name, "laurent", "Q")
    assert [laurent_torsion(g) for g in result.groups] == LAURENT_Q_ROWS[name]
    assert all(g.free_rank == 0 for g in result.groups)
    cx = result.resolution
    mats = specialize(cx, result.system)
    dom = mats[1].domain
    for n, group in enumerate(result.groups):
        b_in = invariant_factors(test_linalg.fraction_copy(mats[n + 1])) if n + 1 < len(mats) else []
        rank_out = len(invariant_factors(test_linalg.fraction_copy(mats[n]))) if n >= 1 else 0
        assert group.torsion == [d for d in b_in if not dom.is_unit(d)], n
        assert group.free_rank == len(cx.cells[n]) - rank_out - len(b_in), n


def test_dual_a4_laurent_row_under_a_shuffled_ordering():
    # random.Random(1)'s shuffle of the atoms gives cells 1 10 33 43 19
    # against 1 10 30 35 14 on the auto ordering; the homology must agree
    from garside_homology import dual_typeA_structure
    from garside_homology.gaussian import AtomOrdering

    struct = dual_typeA_structure(4)
    names = "t14 t24 t34 t23 t13 t04 t01 t12 t02 t03".split()
    shuffled = AtomOrdering.from_sequence([struct.atom_names.index(n) for n in names])
    system = make_system("laurent", "Fp", 3)
    result = compute_homology(struct, system, shuffled)
    assert result.resolution.cell_counts()[:5] == [1, 10, 33, 43, 19]
    auto = compute_homology(struct, system, optimize_ordering(struct))
    assert groups_data(result) == groups_data(auto)


SALVETTI_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B3", "B4", "B5", "D4", "D5", "D6",
                  "F4", "H3", "H4", "I2(5)", "I2(8)", "E6"]
SALVETTI_SYSTEMS = {"trivial": ("trivial",), "sign": ("sign",), "laurent-Q": ("laurent", "Q")}


@pytest.mark.parametrize("system", sorted(SALVETTI_SYSTEMS))
@pytest.mark.parametrize("name", SALVETTI_TYPES)
def test_rows_match_the_salvetti_complex(name, system):
    # every degree of the row against an independent complex with one cell
    # per subset of the generators (tests/oracles.py)
    system = make_system(*SALVETTI_SYSTEMS[system])
    expected = oracles.salvetti_homology(coxeter_matrix(name), system)
    result = compute_homology(artin_named(name), system)
    assert groups_data(result) == [(g.free_rank, list(g.torsion)) for g in expected]


FOX_SYSTEMS = {
    "trivial": ("trivial",),
    "sign": ("sign",),
    "laurent-Q": ("laurent", "Q"),
    "laurent-F2": ("laurent", "Fp", 2),
    "laurent-F5": ("laurent", "Fp", 5),
}


@pytest.mark.parametrize("system", sorted(FOX_SYSTEMS))
@pytest.mark.parametrize("name", ["G7", "G12", "G13", "G15", "G22"])
def test_rank_two_rows_match_fox_calculus(name, system):
    # the complex braid groups of rank two, which the Salvetti complex does
    # not cover, against Fox calculus on their presentations alone
    # (tests/oracles.py): H_0 and H_1, H_2 free of the rank the Euler
    # characteristic gives, and nothing above
    system = make_system(*FOX_SYSTEMS[system])
    expected = [(g.free_rank, list(g.torsion)) for g in oracles.rank_two_homology(name, system)]
    struct = circulating_structure(name)
    got = groups_data(compute_homology(struct, system, optimize_ordering(struct)))
    assert got[:3] == expected
    assert all(g == (0, []) for g in got[3:])


def test_e7_laurent_q_row_matches_the_salvetti_complex():
    # only the Laurent-Q row: E7's complex takes a few seconds, and the
    # fraction-copy checks of A6 and E6 are not repeated at this size
    system = make_system("laurent", "Q")
    expected = oracles.salvetti_homology(coxeter_matrix("E7"), system)
    result = compute_homology(artin_named("E7"), system)
    assert groups_data(result) == [(g.free_rank, list(g.torsion)) for g in expected]
    assert [laurent_torsion(g) for g in result.groups] == [
        [phi(1)], [], [], [], [phi(3)], [phi(3)], [phi(1, 3, 7, 9)], []
    ]
    assert all(g.free_rank == 0 for g in result.groups)


def test_e8_laurent_f3_row_to_degree_4_matches_the_salvetti_complex():
    # H_4 reads the invariant factors of d_5, 70x56 with no unit entry, so
    # the pivot rule among non-units decides its fill-in
    system = make_system("laurent", "Fp", 3)
    expected = oracles.salvetti_homology(coxeter_matrix("E8"), system)[:5]
    result = compute_homology(artin_named("E8"), system, max_dim=4)
    assert result.resolution.cell_counts() == [1, 8, 28, 56, 70, 56]
    assert groups_data(result) == [(g.free_rank, list(g.torsion)) for g in expected]


ORDERING_TYPES = ["A4", "B4", "D4", "H3", "F4"]


@functools.lru_cache(maxsize=None)
def salvetti_laurent_q(name):
    return oracles.salvetti_homology(coxeter_matrix(name), make_system("laurent", "Q"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERING_TYPES), st.data())
def test_laurent_q_rows_under_random_orderings(name, data):
    # the homology must not depend on the ordering: a drawn permutation of
    # the atoms gives the Salvetti complex's Laurent-Q row
    struct = artin_named(name)
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    result = compute_homology(struct, make_system("laurent", "Q"), ordering)
    assert groups_data(result) == [(g.free_rank, list(g.torsion)) for g in salvetti_laurent_q(name)]


# every named one-object builtin, and members of the parametric families
ONE_OBJECT_BUILTINS = [
    *(f"artin:A{n}" for n in range(1, 7)),
    *(f"artin:B{n}" for n in range(2, 6)),
    *(f"artin:D{n}" for n in range(4, 7)),
    *(f"artin:I2({m})" for m in (3, 5, 8, 12)),
    *(f"artin:{name}" for name in ["H3", "H4", "F4", "E6", "E7", "E8"]),
    *(f"circ:{name}" for name in ["G7", "G11", "G12", "G13", "G15", "G19", "G22"]),
    *(f"dual:A{n}" for n in range(1, 5)),
]


@pytest.mark.parametrize("spec", ONE_OBJECT_BUILTINS)
def test_h0_h1_of_one_object_builtins_match_fox_calculus(spec):
    # H_0 and H_1 depend only on a presentation: the atoms and one relation
    # u.a = v.b per lcm row, read off the serialized table; Fox calculus on
    # it shares no code with the order complex.  Under an ordering drawn
    # per builtin, in three coefficient systems
    struct = builtin_structure(spec)
    gens, relations = mutations.presentation(serialize_structure(struct))
    order = random.Random(spec).sample(range(struct.n_atoms), struct.n_atoms)
    for system in (make_system("trivial"), make_system("sign"), make_system("laurent", "Q")):
        got = compute_homology(struct, system, AtomOrdering.from_sequence(order), max_dim=1).groups
        expected = oracles.fox_homology(gens, relations, system)
        assert [format_group(g, system) for g in got] == [format_group(g, system) for g in expected], (spec, order)


def test_big_rows_script_on_e6():
    # tests/big_rows.py computes each row in a child process under an
    # address-space cap and checks it against the Salvetti complex; here
    # only E6's integral row.  The trie node count is a golden; the filled
    # slots and lcms depend on the order memos fill in, so only their form
    # is checked
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, str(root / "tests" / "big_rows.py"), "E6", "--systems", "trivial"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert re.fullmatch(
        r"E6 trivial: [\d.]+ s CPU, [\d,]+ MB ru_maxrss, 7,010 trie nodes, "
        r"[\d,]+ of 42,060 _mul slots filled \([\d.]+%\), [\d,]+ lcms; row equals the Salvetti complex\n",
        run.stdout,
    ), run.stdout
