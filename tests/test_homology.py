"""Pipeline-level homology checks on small fixtures."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREE_CATEGORY_TWO_CYCLE
from garside_homology import (
    artin_named,
    circulating_structure,
    dual_typeA_structure,
    homology,
    linalg,
    optimize_ordering,
    parse_structure,
)
from garside_homology.coefficients import make_system
from garside_homology.gaussian import AtomOrdering, WordKernel
from garside_homology.homology import compute_homology, format_group, default_max_dim
from garside_homology.linalg import HomologyGroup, IntegerDomain, LaurentDomain, ScalarMatrix, homology_at
from garside_homology.rings import Rationals, poly_from_ints

QQ = Rationals()


def laurent_divisor(ints):
    """A Laurent divisor in normal form: valuation 0, the given polynomial."""
    return (0, poly_from_ints(QQ, ints))


def test_two_cycle_category_homology(two_cycle_category):
    # the enveloping groupoid is equivalent to the integers; the loop has
    # length 3, so with Laurent coefficients the generator acts by t^3
    laurent = compute_homology(two_cycle_category, make_system("laurent", "Q"))
    assert laurent.groups[0].torsion == [laurent_divisor([-1, 0, 0, 1])]
    assert laurent.groups[0].free_rank == 0
    assert laurent.groups[1].is_trivial()

    trivial = compute_homology(two_cycle_category, make_system("trivial"))
    assert (trivial.groups[0].free_rank, trivial.groups[0].torsion) == (1, [])
    assert (trivial.groups[1].free_rank, trivial.groups[1].torsion) == (1, [])

    # under the sign action the loop acts by -1: coinvariants Z/2
    sign = compute_homology(two_cycle_category, make_system("sign"))
    assert (sign.groups[0].free_rank, sign.groups[0].torsion) == (0, [2])
    assert sign.groups[1].is_trivial()


# (make, argument, system) per homology run; the two-cycle category's
# Laurent run transports its exponents to the basepoint
SPELLING_FREE_RUNS = [
    (artin_named, "A3", ("laurent", "Q")),
    (circulating_structure, "G13", ("sign",)),
    (parse_structure, FREE_CATEGORY_TWO_CYCLE, ("laurent", "Q")),
]


def _rows_and_reports(orderings):
    """Rows of the runs on fresh structures under the given orderings, and
    the violations that validate reports on G13 and dual A3."""
    rows = []
    for (make, arg, kind), ordering in zip(SPELLING_FREE_RUNS, orderings):
        system = make_system(*kind)
        result = compute_homology(make(arg), system, ordering)
        rows.append([format_group(g, system) for g in result.groups])
    reports = [s.validate().violations for s in (circulating_structure("G13"), dual_typeA_structure(3))]
    return rows, reports


def test_homology_path_spells_nothing(monkeypatch):
    # build -> specialize -> SNF and validate read lengths off kernel nodes
    # and never spell a node out as a Word; optimize_ordering does, for its
    # tie-break, so the orderings are made before the kernel refuses
    orderings = [optimize_ordering(make(arg)) for make, arg, _ in SPELLING_FREE_RUNS]
    expected = _rows_and_reports(orderings)
    assert expected[1] == [[], []]

    def refuse(self, node):
        raise AssertionError(f"node {node} was spelled out")

    monkeypatch.setattr(WordKernel, "word", refuse)
    assert _rows_and_reports(orderings) == expected


def test_cospan_category_homology(cospan_category):
    # disjoint-ish free category: contractible components glued over z
    trivial = compute_homology(cospan_category, make_system("trivial"))
    assert (trivial.groups[0].free_rank, trivial.groups[0].torsion) == (1, [])
    assert trivial.groups[1].is_trivial()


def test_free_group_homology(free_monoid_rank2):
    # the group of fractions is free of rank 2: H_1 integral is Z^2, and the
    # length-specialized module has a free rank-1 H_1 (the Alexander module
    # of a wedge of two circles)
    trivial = compute_homology(free_monoid_rank2, make_system("trivial"))
    assert [(g.free_rank, g.torsion) for g in trivial.groups] == [(1, []), (2, []), (0, [])]
    sign = compute_homology(free_monoid_rank2, make_system("sign"))
    assert [(g.free_rank, g.torsion) for g in sign.groups] == [(0, [2]), (1, []), (0, [])]
    laurent = compute_homology(free_monoid_rank2, make_system("laurent", "Q"))
    assert [(g.free_rank, g.torsion) for g in laurent.groups] == [
        (0, [laurent_divisor([-1, 1])]),
        (1, []),
        (0, []),
    ]
    text = format_group(laurent.groups[1], make_system("laurent", "Q"))
    assert text == "Q[t,t^-1]"


def test_default_max_dim(builtins):
    assert default_max_dim(builtins["A2"]) == 2
    assert default_max_dim(builtins["F4"]) == 4
    assert default_max_dim(builtins["dualA3"]) == 6


def test_formatting():
    zz = IntegerDomain()
    assert format_group(HomologyGroup(0, [], zz), make_system("trivial")) == "0"
    assert format_group(HomologyGroup(1, [], zz), make_system("trivial")) == "Z"
    assert format_group(HomologyGroup(2, [2, 6], zz), make_system("sign")) == "Z^2 x Z_2 x Z_6"
    system = make_system("laurent", "Q")
    group = HomologyGroup(1, [laurent_divisor([-1, 1])], LaurentDomain(QQ))
    text = format_group(group, system)
    assert text == "Q[t,t^-1] (+) Q[t,t^-1]/(t-1 = Phi_1)"


def test_laurent_normalization_strips_units():
    # divisors are reported modulo the units c * t^k of the Laurent ring:
    # 5 t^2 is a unit and drops out, t^-2 (3t - 3) becomes t - 1
    dom = LaurentDomain(QQ)
    unit = dom.from_exponents({2: 5})
    shifted = dom.from_exponents({-2: -3, -1: 3})
    b_in = ScalarMatrix(2, 2, [[unit, dom.zero], [dom.zero, shifted]], dom)
    group = homology_at(b_in, None, 2, dom)
    assert (group.free_rank, group.torsion) == (0, [laurent_divisor([-1, 1])])
    assert dom.normal(shifted) == laurent_divisor([-1, 1])


def test_declared_order_is_used():
    text = (
        "GAUSSIAN-STRUCTURE v1\n"
        "OBJECT *\n"
        "ATOM a * * 1\n"
        "ATOM b * * 1\n"
        "ATOM c * * 1\n"
        "LCM a b COMPL c.a.b.c a.b.c.a\n"
        "LCM a c COMPL c.a.b.c a.c.a.b\n"
        "LCM b c COMPL b.c.a c.a.b\n"
        "ORDER c a b\n"
    )
    struct = parse_structure(text)  # G13 in file form
    from garside_homology.resolution import OrderResolution, resolve_ordering

    declared = resolve_ordering(struct, "declared")
    res = OrderResolution(struct, declared, max_dim=3)
    assert res.cell_counts() == [1, 3, 2, 0]


REDUCED_ONCE_ROWS = [
    ("A3", ("trivial",)),
    ("H3", ("laurent", "Q")),
    ("dualA3", ("laurent", "Fp", 3)),
]


def capture_matrices(monkeypatch) -> list:
    """Record the matrices that compute_homology gets from specialize."""
    captured = []
    original = homology.specialize

    def recording(cx, system):
        mats = original(cx, system)
        captured.append(mats)
        return mats

    monkeypatch.setattr(homology, "specialize", recording)
    return captured


@pytest.mark.parametrize("name, system", REDUCED_ONCE_ROWS)
def test_each_boundary_is_reduced_once(monkeypatch, builtins, name, system):
    # d_{n+1} enters degree n and leaves degree n + 1; one reduction serves
    # both, including the empty matrices around degrees without cells
    reduced = []
    original = linalg.invariant_factors

    def counting(matrix):
        reduced.append(matrix)
        return original(matrix)

    monkeypatch.setattr(linalg, "invariant_factors", counting)
    captured = capture_matrices(monkeypatch)
    compute_homology(builtins[name], make_system(*system))
    (mats,) = captured
    assert mats[0] is None and len(mats) > 2
    for n, m in enumerate(mats[1:], start=1):
        assert sum(r is m for r in reduced) == 1, (name, n)


@functools.lru_cache(maxsize=None)
def default_ordering_row(struct, system):
    result = compute_homology(struct, make_system(*system), struct.default_ordering())
    return [(group.free_rank, group.torsion) for group in result.groups]


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_kept_factors_match_fresh_copies(builtins, data):
    # the groups read from each matrix's kept factors equal those of
    # homology_at on copies, which start without factors, and the row does
    # not depend on the drawn ordering
    name, system = data.draw(st.sampled_from(REDUCED_ONCE_ROWS))
    struct = builtins[name]
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    with pytest.MonkeyPatch.context() as monkeypatch:
        captured = capture_matrices(monkeypatch)
        result = compute_homology(struct, make_system(*system), ordering)
    (mats,) = captured
    domain = result.system.domain()
    for n, group in enumerate(result.groups):
        b_out = mats[n].copy() if n >= 1 else None
        fresh = homology_at(mats[n + 1].copy(), b_out, len(result.resolution.cells[n]), domain)
        assert (group.free_rank, group.torsion) == (fresh.free_rank, fresh.torsion), (name, n)
    row = [(group.free_rank, group.torsion) for group in result.groups]
    assert row == default_ordering_row(struct, system), name
