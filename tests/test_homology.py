"""Pipeline-level homology checks on small fixtures."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FREE_CATEGORY_COSPAN, FREE_CATEGORY_TWO_CYCLE
from garside_homology import (
    PreconditionError,
    artin_named,
    builtin_structure,
    circulating_structure,
    dual_typeA_structure,
    homology,
    linalg,
    optimize_ordering,
    parse_structure,
    serialize_structure,
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
    # results and groups are records of named fields, compared field by
    # field and printed by name
    assert trivial == homology.HomologyResult(
        system=trivial.system, resolution=trivial.resolution, groups=trivial.groups
    )
    assert repr(trivial) == (
        "HomologyResult(system=CoefficientSystem(kind='trivial', field=None), "
        "resolution=OrderResolution(GaussianStructure(structure: 2 object(s), 2 atom(s)), "
        "AtomOrdering([0, 1]), max_dim=2), groups=[HomologyGroup(free_rank=1, torsion=[], "
        "domain=IntegerDomain()), HomologyGroup(free_rank=1, torsion=[], domain=IntegerDomain())])"
    )
    group = trivial.groups[1]
    assert group == HomologyGroup(free_rank=1, torsion=[], domain=group.domain)
    assert group != HomologyGroup(0, [], group.domain)
    assert repr(group) == "HomologyGroup(free_rank=1, torsion=[], domain=IntegerDomain())"

    # under the sign action the loop acts by -1: coinvariants Z/2
    sign = compute_homology(two_cycle_category, make_system("sign"))
    assert (sign.groups[0].free_rank, sign.groups[0].torsion) == (0, [2])
    assert sign.groups[1].is_trivial()


def test_homology_result_repr_has_no_addresses():
    # the domains and the resolution print their constructor arguments, so
    # a result's repr is the same in every run
    result = compute_homology(artin_named("A2"), make_system("laurent", "Q"))
    laurent = "domain=LaurentDomain(Rationals())"
    assert repr(result) == (
        "HomologyResult(system=CoefficientSystem(kind='laurent', field=Rationals()), "
        "resolution=OrderResolution(GaussianStructure(artin:A2: 1 object(s), 2 atom(s)), "
        "AtomOrdering([0, 1]), max_dim=3), "
        f"groups=[HomologyGroup(free_rank=0, torsion=[(0, (-1, 1))], {laurent}), "
        f"HomologyGroup(free_rank=0, torsion=[(0, (1, -1, 1))], {laurent}), "
        f"HomologyGroup(free_rank=0, torsion=[], {laurent})])"
    )


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


# builtins and categories whose table is declared anew in the test below
REDECLARED = [
    *(f"artin:{name}" for name in ["A3", "B3", "H3", "A4", "B4", "D4", "F4", "I2(5)"]),
    *(f"circ:{name}" for name in ["G7", "G12", "G13", "G15", "G22"]),
    "dual:A3",
    "dual:A4",
    "two-cycle",
    "cospan",
]


def _redeclared(text, rng):
    """The same table declared anew: its OBJECT lines and its ATOM lines
    permuted, and its LCM/NOLCM rows shuffled, each flipped with
    probability 1/2 (LCM b a COMPL v u for LCM a b COMPL u v)."""
    header, *lines = text.splitlines()
    objects, atoms, rows, rest = [], [], [], []
    for line in lines:
        kind = line.split()[0]
        {"OBJECT": objects, "ATOM": atoms, "LCM": rows, "NOLCM": rows}.get(kind, rest).append(line)
    for group in (objects, atoms, rows):
        rng.shuffle(group)
    for i, row in enumerate(rows):
        if rng.random() < 0.5:
            fields = row.split()  # LCM a b COMPL u v, or NOLCM a b
            fields[1:3] = fields[2:0:-1]
            if fields[0] == "LCM":
                fields[4:6] = fields[5:3:-1]
            rows[i] = " ".join(fields)
    return "\n".join([header, *objects, *atoms, *rows, *rest]) + "\n"


def _rows(struct, system):
    """The homology groups under the auto ordering, or the refusal."""
    try:
        return compute_homology(struct, system, optimize_ordering(struct)).groups
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("spec", REDECLARED)
def test_redeclared_tables_keep_their_rows(spec):
    # the rows are invariants of the table, whatever order its file lists
    # objects, atoms and lcm rows in and whichever atom of a pair it names
    # first; the cells may differ, as the auto ordering reads the
    # declaration order
    categories = {"two-cycle": FREE_CATEGORY_TWO_CYCLE, "cospan": FREE_CATEGORY_COSPAN}
    struct = parse_structure(categories[spec]) if spec in categories else builtin_structure(spec)
    text = serialize_structure(struct)
    systems = [make_system("trivial"), make_system("sign"), make_system("laurent", "Q")]
    expected = [_rows(struct, system) for system in systems]
    rng, redeclared = random.Random(spec), []
    while len(redeclared) < 2:  # two draws that differ from the builtin's text
        again = _redeclared(text, rng)
        if again != text:
            redeclared.append(again)
    for again in redeclared:
        assert [_rows(parse_structure(again), system) for system in systems] == expected, (spec, again)
