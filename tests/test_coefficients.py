"""Coefficient systems, specialization, prime fields, cyclotomic arithmetic."""

import math
import random

import pytest

from garside_homology import PreconditionError, Word, artin_named, circulating_structure
from garside_homology.coefficients import (
    CoefficientSystem,
    _element,
    cyclotomic_factorization,
    cyclotomic_poly,
    format_cyclotomic,
    make_system,
    node_exponent,
    specialize,
)
from garside_homology.linalg import homology_at
from garside_homology.resolution import build_complex
from garside_homology.rings import (
    MR_BOUND,
    PrimeField,
    _is_prime,
    Rationals,
    poly_divmod,
    poly_from_ints,
    poly_mul,
)

QQ = Rationals()


def test_system_construction():
    assert make_system("trivial").kind == "trivial"
    assert make_system("laurent", "Q").field == QQ
    assert make_system("laurent", "Fp", 5).field == PrimeField(5)
    with pytest.raises(PreconditionError):
        make_system("laurent", "Fp")
    with pytest.raises(PreconditionError):
        make_system("laurent", "R7")
    with pytest.raises(PreconditionError):
        CoefficientSystem("laurent")
    with pytest.raises(PreconditionError):
        CoefficientSystem("sign", QQ)
    with pytest.raises(PreconditionError):
        CoefficientSystem("frobnicate")
    # systems compare, hash and print by their kind and field
    assert make_system("laurent", "Fp", 5) == CoefficientSystem("laurent", PrimeField(5))
    assert len({make_system("laurent", "Q"), CoefficientSystem("laurent", QQ), make_system("laurent", "Fp", 5)}) == 2
    assert make_system("trivial") != make_system("sign")
    assert repr(make_system("sign")) == "CoefficientSystem(kind='sign', field=None)"
    assert repr(make_system("laurent", "Q")) == "CoefficientSystem(kind='laurent', field=Rationals())"


def scalar(struct, system, word):
    """The image of a morphism in the coefficient ring: the action of its
    node's exponent, as specialize makes it."""
    kernel = struct.kernel()
    return _element(system, system.domain(), {node_exponent(kernel, system)(kernel.intern(word)): 1})


def test_node_scalar_basics():
    struct = artin_named("A2")
    one = struct.identity(0)
    atom = struct.word_from_names(["a"])
    assert scalar(struct, make_system("trivial"), atom) == 1
    assert scalar(struct, make_system("sign"), one) == 1
    assert scalar(struct, make_system("sign"), atom) == -1
    laurent = scalar(struct, make_system("laurent", "Q"), atom)
    assert laurent == (1, (QQ.one,))


def test_scalar_transport(two_cycle_category):
    s = two_cycle_category  # path lengths: x -> 0, y -> 3
    system = make_system("laurent", "Q")
    kernel = s.kernel()
    exponent = node_exponent(kernel, system)
    u = s.word_from_names(["u"])  # x -> y, length 2
    v = s.word_from_names(["v"])  # y -> x, length 1
    uv = s.word_from_names(["u", "v"])  # loop at x, length 3
    vu = s.word_from_names(["v", "u"])  # loop at y, length 3
    assert exponent(kernel.intern(u)) == 2 + 0 - 3
    assert scalar(s, system, u) == (-1, (QQ.one,))
    assert exponent(kernel.intern(v)) == 1 + 3 - 0
    assert exponent(kernel.intern(uv)) == exponent(kernel.intern(vu)) == 3
    # sign through transport: exponents -1, 4, 3
    assert scalar(s, make_system("sign"), u) == -1
    assert scalar(s, make_system("sign"), v) == 1
    assert scalar(s, make_system("sign"), vu) == -1
    # and through specialize: the column of [u] is -1 at x and u's -1 at
    # y, the column of [v] is v's +1 at x and -1 at y
    m = specialize(build_complex(s, max_dim=1), make_system("sign"))[1]
    assert sorted(map(tuple, m.entries)) == [(-1, -1), (-1, 1)]


def test_scalar_requires_transport_data(cospan_category):
    with pytest.raises(PreconditionError):
        node_exponent(cospan_category.kernel(), make_system("sign"))
    with pytest.raises(PreconditionError):
        specialize(build_complex(cospan_category), make_system("sign"))
    # trivial does not need it
    assert scalar(cospan_category, make_system("trivial"), cospan_category.word_from_names(["p"])) == 1
    assert specialize(build_complex(cospan_category), make_system("trivial"))[1].entries


def test_node_exponent_is_additive():
    # the exponent of a product is the sum of its factors', so the scalars
    # made from it are multiplicative
    rng = random.Random(99)
    struct = circulating_structure("G13")
    kernel = struct.kernel()
    exponent = node_exponent(kernel, make_system("laurent", "Q"))
    mul = make_system("laurent", "Q").domain().mul
    for _ in range(50):
        u = Word(0, tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))))
        v = Word(0, tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))))
        uv = Word(0, u.atoms + v.atoms)
        assert exponent(kernel.intern(uv)) == exponent(kernel.intern(u)) + exponent(kernel.intern(v))
        for system, times in ((make_system("laurent", "Q"), mul), (make_system("sign"), int.__mul__)):
            assert scalar(struct, system, uv) == times(scalar(struct, system, u), scalar(struct, system, v))


def test_single_object_scalar_depends_on_length_only():
    # aba and bab are one morphism, so interning makes them one node
    struct = artin_named("A2")
    kernel = struct.kernel()
    aba = struct.word_from_names(["a", "b", "a"])
    bab = struct.word_from_names(["b", "a", "b"])
    assert kernel.intern(aba) == kernel.intern(bab)
    assert node_exponent(kernel, make_system("laurent", "Q"))(kernel.intern(aba)) == 3
    for system in (make_system("sign"), make_system("laurent", "Q")):
        assert scalar(struct, system, aba) == scalar(struct, system, bab)


def test_specialized_edge_column(two_cycle_category):
    # a 1-cell column under the trivial system hits its two endpoint rows
    cx = build_complex(two_cycle_category, max_dim=1)
    mats = specialize(cx, make_system("trivial"))
    m = mats[1]
    assert (m.rows, m.cols) == (2, 2)
    for j in range(2):
        col = [m.entries[i][j] for i in range(2)]
        assert sorted(col) == [-1, 1]


def test_specialized_products_vanish(builtins):
    for name, struct in builtins.items():
        cx = build_complex(struct)
        for system in (make_system("trivial"), make_system("sign"), make_system("laurent", "Q")):
            if system.kind != "trivial" and len(struct.object_names) > 1 and struct.path_lengths is None:
                continue
            mats = specialize(cx, system)
            for n in range(1, len(mats) - 1):
                assert mats[n].mul(mats[n + 1]).is_zero(), (name, system.kind, n)


def test_specialized_laurent_entries(two_cycle_category):
    # entries are Laurent pairs built from exponent sums: u runs x -> y and
    # is transported to exponent -1, so its column keeps a negative valuation
    s = two_cycle_category
    cx = build_complex(s, max_dim=1)
    system = make_system("laurent", "Q")
    dom = system.domain()
    m = specialize(cx, system)[1]
    assert m.domain == dom
    entries = sorted(e for row in m.entries for e in row)
    assert entries == sorted([dom.from_exponents({-1: 1}), dom.from_exponents({4: 1}), (0, (-1,)), (0, (-1,))])
    assert dom.from_exponents({-2: 1, 0: 1, 1: 1}) == (-2, poly_from_ints(QQ, [1, 0, 1, 1]))
    assert dom.from_exponents({3: 2, 5: -2}) == (3, poly_from_ints(QQ, [2, 0, -2]))
    # a multiplicity that vanishes in the field moves the valuation
    f2 = make_system("laurent", "Fp", 2).domain()
    assert f2.from_exponents({1: 2, 3: 1}) == (3, (1,))
    assert f2.from_exponents({1: 2, 3: -4}) == f2.zero


def test_unit_change_of_basis_does_not_change_homology(builtins):
    # rescaling each basis cell of C_n by a unit t^k (columns of d_n times
    # t^k, rows of d_{n+1} times t^-k) leaves every homology group unchanged
    rng = random.Random(2718)
    system = make_system("laurent", "Q")
    dom = system.domain()
    for name in ("A3", "G12", "dualA3"):
        cx = build_complex(builtins[name])
        mats = specialize(cx, system)
        scaled = [None] + [m.copy() for m in mats[1:]]
        for n, cells in enumerate(cx.cells):
            for j in range(len(cells)):
                k = rng.randint(-3, 3)
                if 1 <= n < len(mats):
                    for row in scaled[n].entries:
                        row[j] = dom.mul(row[j], dom.from_exponents({k: 1}))
                if n + 1 < len(mats):
                    row = scaled[n + 1].entries[j]
                    row[:] = [dom.mul(e, dom.from_exponents({-k: 1})) for e in row]
        for n in range(len(cx.cells) - 1):
            args = [(b[n + 1] if n + 1 < len(b) else None, b[n] if n >= 1 else None) for b in (mats, scaled)]
            before, after = (homology_at(b_in, b_out, len(cx.cells[n]), dom) for b_in, b_out in args)
            assert (before.free_rank, before.torsion) == (after.free_rank, after.torsion), (name, n)
        assert scaled != mats


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1, QQ) == poly_from_ints(QQ, [-1, 1])
    assert cyclotomic_poly(2, QQ) == poly_from_ints(QQ, [1, 1])
    # divide t^6 - 1 by Phi_1 Phi_2 Phi_3 independently
    t6m1 = poly_from_ints(QQ, [-1, 0, 0, 0, 0, 0, 1])
    divisor = poly_mul(QQ, poly_mul(QQ, poly_from_ints(QQ, [-1, 1]), poly_from_ints(QQ, [1, 1])),
                       poly_from_ints(QQ, [1, 1, 1]))
    quotient, rem = poly_divmod(QQ, t6m1, divisor)
    assert not rem
    assert cyclotomic_poly(6, QQ) == quotient == poly_from_ints(QQ, [1, -1, 1])
    with pytest.raises(PreconditionError):
        cyclotomic_poly(0, QQ)


def test_cyclotomic_product_identity_mod_2():
    f2 = PrimeField(2)
    product = poly_mul(f2, cyclotomic_poly(6, f2), cyclotomic_poly(12, f2))
    cube = poly_from_ints(f2, [1, 1, 1])
    assert product == poly_mul(f2, poly_mul(f2, cube, cube), cube)


def test_cyclotomic_reduction_identity():
    # Phi_{n p^r} = Phi_n^(p^r - p^(r-1)) mod p, for p not dividing n
    for n, p, r in [(3, 2, 1), (1, 3, 2), (5, 2, 2)]:
        field = PrimeField(p)
        lhs = cyclotomic_poly(n * p**r, field)
        base = cyclotomic_poly(n, field)
        rhs = (field.one,)
        for _ in range(p**r - p ** (r - 1)):
            rhs = poly_mul(field, rhs, base)
        assert lhs == rhs, (n, p, r)


def test_cyclotomic_factorization():
    poly = poly_mul(QQ, cyclotomic_poly(6, QQ), cyclotomic_poly(12, QQ))
    assert cyclotomic_factorization(poly, QQ) == [(6, 1), (12, 1)]
    square = poly_mul(QQ, cyclotomic_poly(1, QQ), cyclotomic_poly(1, QQ))
    assert cyclotomic_factorization(square, QQ) == [(1, 2)]
    assert cyclotomic_factorization(poly_from_ints(QQ, [1, 1, 0, 1]), QQ) is None
    assert cyclotomic_factorization(poly_from_ints(QQ, [5]), QQ) == []
    assert cyclotomic_factorization((), QQ) is None
    f2 = PrimeField(2)
    cube = poly_from_ints(f2, [1, 1, 1])
    cubed = poly_mul(f2, poly_mul(f2, cube, cube), cube)
    assert cyclotomic_factorization(cubed, f2) == [(3, 3)]
    assert format_cyclotomic([(3, 3)]) == "Phi_3^3"
    assert format_cyclotomic([(6, 1), (12, 1)]) == "Phi_6*Phi_12"
    assert format_cyclotomic([]) == "1"


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10_000) if _is_prime(n) != trial(n)] == []
    # a Carmichael number, the least strong pseudoprime to base 2, and the
    # least strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in (561, 2047, 3215031751):
        assert not _is_prime(composite)
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**89 - 1)
    assert not _is_prime((2**61 - 1) * (2**13 - 1))


def test_prime_field_bound():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(PreconditionError, match="not prime"):
        PrimeField(3215031751)
    with pytest.raises(PreconditionError, match=str(MR_BOUND)):
        PrimeField(10**27 + 57)
    with pytest.raises(PreconditionError, match=str(MR_BOUND)):
        PrimeField(MR_BOUND)
