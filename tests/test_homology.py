"""Pipeline-level homology checks on small fixtures."""

from garside_homology import parse_structure
from garside_homology.coefficients import make_system
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
