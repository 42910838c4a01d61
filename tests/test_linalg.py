"""Invariant factors verified against sympy, minors, and random ops."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors as sympy_invariant_factors

from garside_homology import ConsistencyError, PreconditionError, artin_named
from garside_homology.linalg import (
    IntegerDomain,
    LaurentDomain,
    ScalarMatrix,
    _least_entry,
    homology_at,
    invariant_factors,
)
from garside_homology.rings import PrimeField, Rationals, poly_divmod, poly_from_ints, poly_trim

ZZ = IntegerDomain()
QQ = Rationals()


def int_matrix(rows):
    return ScalarMatrix(len(rows), len(rows[0]) if rows else 0, [list(r) for r in rows], ZZ)


def laurent_matrix(field, rows):
    """Entries given as (valuation, integer coefficients, constant first)."""
    dom = LaurentDomain(field)
    ent = [[dom.from_exponents({v + i: c for i, c in enumerate(ints)}) for v, ints in row] for row in rows]
    return ScalarMatrix(len(rows), len(rows[0]) if rows else 0, ent, dom)


# -- the sympy oracle -------------------------------------------------------------


def _sympy_ring(field):
    t = sympy.Symbol("t")
    if isinstance(field, Rationals):
        return sympy.QQ[t]
    return sympy.GF(field.p)[t]


def _to_sympy(ring, field, poly):
    if isinstance(field, Rationals):
        coeffs = {(i,): sympy.QQ(c.numerator, c.denominator) for i, c in enumerate(poly)}
    else:
        coeffs = {(i,): ring.domain(c) for i, c in enumerate(poly)}
    return ring.ring.from_dict({k: v for k, v in coeffs.items() if v})


def _from_sympy(field, element):
    out = [field.zero] * (element.degree() + 1)
    for (i,), c in element.terms():
        if isinstance(field, Rationals):
            out[i] = Fraction(int(c.numerator), int(c.denominator))
        else:
            out[i] = int(c) % field.p
    return tuple(out)


def oracle_factors(matrix: ScalarMatrix) -> list:
    """The nonzero invariant factors by sympy, in this package's normal form.

    Integer matrices go through ZZ.  A Laurent matrix has each column
    multiplied by the power of t that makes it polynomial (a unit of the
    Laurent ring), its factors are taken over F[t], and each is then
    stripped of its power of t and made monic.
    """
    dom = matrix.domain
    if matrix.rows == 0 or matrix.cols == 0:
        return []
    if isinstance(dom, IntegerDomain):
        dm = DomainMatrix([[sympy.ZZ(e) for e in row] for row in matrix.entries], (matrix.rows, matrix.cols), sympy.ZZ)
        return [abs(int(d)) for d in sympy_invariant_factors(dm) if d]
    field = dom.field
    ring = _sympy_ring(field)
    shifts = [min((matrix.entries[i][j][0] for i in range(matrix.rows) if matrix.entries[i][j][1]), default=0) for j in range(matrix.cols)]
    rows = []
    for row in matrix.entries:
        rows.append(
            [_to_sympy(ring, field, (field.zero,) * (v - shifts[j]) + poly if poly else ()) for j, (v, poly) in enumerate(row)]
        )
    out = []
    for d in sympy_invariant_factors(DomainMatrix(rows, (matrix.rows, matrix.cols), ring)):
        if d:
            poly = _from_sympy(field, d)
            out.append(dom.normal(dom.element(0, poly)))
    return out


def check_factors(matrix: ScalarMatrix, factors: list):
    dom = matrix.domain
    assert factors == oracle_factors(matrix)
    for d in factors:
        assert not dom.is_zero(d)
        assert dom.normal(d) == d
    for a, b in zip(factors, factors[1:]):
        assert dom.divides(a, b)


# -- the Laurent domain -------------------------------------------------------------


def test_laurent_domain_arithmetic():
    dom = LaurentDomain(QQ)
    one_plus_t = dom.from_exponents({0: 1, 1: 1})
    t_inv = dom.from_exponents({-1: 1})
    assert dom.mul(one_plus_t, t_inv) == (-1, (1, 1))
    assert dom.from_exponents({2: 1, 3: -1, 5: 0}) == (2, (1, -1))
    assert dom.from_exponents({4: 0}) == dom.zero
    # t^-1 + 1 minus t^-1 leaves the valuation at 0
    assert dom.add(t_inv, dom.one) == (-1, (1, 1))
    assert dom.add((-1, (1, 1)), dom.neg(t_inv)) == dom.one
    assert dom.neg(one_plus_t) == (0, (-1, -1))
    assert dom.add(one_plus_t, dom.neg(one_plus_t)) == dom.zero
    assert dom.is_unit(dom.from_exponents({-7: 3}))
    assert not dom.is_unit(one_plus_t)
    # the size is the degree span, whatever the valuation
    assert dom.size(dom.from_exponents({-3: 1, -2: 1}))[0] == dom.size(one_plus_t)[0]
    # Euclidean division: a = q b + r with r smaller than b
    rng = random.Random(5)
    for _ in range(200):
        a = dom.from_exponents({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(4)})
        b = dom.from_exponents({rng.randint(-3, 3): rng.randint(-3, 3) for _ in range(3)})
        if dom.is_zero(b):
            continue
        q, r = dom.divmod(a, b)
        # valuations: a, b and r at least -3, q at least -6 (see `shifted` below)
        assert shifted(QQ, q, 6) * shifted(QQ, b, 3) + shifted(QQ, r, 9) == shifted(QQ, a, 9)
        assert dom.is_zero(r) or dom.size(r)[0] < dom.size(b)[0]
        assert dom.divides(b, a) == dom.is_zero(r)


# -- coefficient arithmetic against sympy ------------------------------------------------

FIELDS = {"F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5), "F2^31-1": PrimeField(2**31 - 1), "Q": QQ}


def rationals():
    """The mix `fraction_copy` makes: ints, integral Fractions, true Fractions."""
    ints = st.integers(-6, 6)
    return st.one_of(ints, ints.map(Fraction), st.builds(Fraction, ints, st.integers(2, 6)))


def coefficients(field):
    return rationals() if field == QQ else st.integers(0, field.p - 1)


def polys(field, max_size):
    return st.lists(coefficients(field), max_size=max_size).map(lambda cs: poly_trim(field, cs))


def laurent_elements(field):
    dom = LaurentDomain(field)
    return st.builds(dom.element, st.integers(-3, 3), st.lists(coefficients(field), max_size=5))


def shifted(field, element, shift):
    """t^shift * element as a sympy polynomial; the valuation is at least -shift."""
    v, poly = element
    return _to_sympy(_sympy_ring(field), field, (field.zero,) * (v + shift) + poly if poly else ())


def assert_canonical_poly(field, poly):
    assert not poly or not field.is_zero(poly[-1])
    for c in poly:
        if field == QQ:
            assert type(c) is int or c.denominator > 1, c
        else:
            assert type(c) is int and 0 <= c < field.p, c


def assert_canonical(field, element):
    v, poly = element
    if not poly:
        assert element == (0, ())
        return
    assert not field.is_zero(poly[0])
    assert_canonical_poly(field, poly)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_laurent_sub_mul_is_a_minus_q_c_in_canonical_form(name, data):
    field = FIELDS[name]
    dom = LaurentDomain(field)
    a, q, c = (data.draw(laurent_elements(field)) for _ in range(3))
    out = dom.sub_mul(a, q, c)
    # t^6 (a - q c) = t^6 a - (t^3 q)(t^3 c), all polynomials, as valuations are >= -3
    assert shifted(field, out, 6) == shifted(field, a, 6) - shifted(field, q, 3) * shifted(field, c, 3)
    assert_canonical(field, out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_laurent_add_and_neg_match_sympy(name, data):
    field = FIELDS[name]
    dom = LaurentDomain(field)
    a, b = (data.draw(laurent_elements(field)) for _ in range(2))
    total, negative = dom.add(a, b), dom.neg(a)
    assert shifted(field, total, 3) == shifted(field, a, 3) + shifted(field, b, 3)
    assert shifted(field, negative, 3) == -shifted(field, a, 3)
    assert_canonical(field, total)
    assert_canonical(field, negative)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_poly_divmod_matches_sympy_div(name, data):
    field = FIELDS[name]
    a = data.draw(polys(field, max_size=7))
    b = data.draw(polys(field, max_size=4).filter(bool))
    q, r = poly_divmod(field, a, b)
    assert (shifted(field, (0, q), 0), shifted(field, (0, r), 0)) == shifted(field, (0, a), 0).div(shifted(field, (0, b), 0))
    assert_canonical_poly(field, q)
    assert_canonical_poly(field, r)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_poly_divmod_by_zero_raises(name):
    field = FIELDS[name]
    for a in ((), (field.one,)):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(field, a, ())


@settings(max_examples=100, deadline=None)
@given(st.integers(-10**20, 10**20), st.integers(-50, 50), st.integers(-50, 50))
def test_integer_sub_mul(a, q, c):
    assert ZZ.sub_mul(a, q, c) == a - q * c


# -- the pivot rule ------------------------------------------------------------------


def test_pivot_among_non_units_takes_the_least_markowitz_product():
    # every entry has size 4; (2, 2) is alone in its row, so its product
    # (1 - 1)(2 - 1) is 0, and every other entry's is at least 1
    rows = [[4, 4, 4], [4, 4, 0], [0, 0, 4]]
    assert _least_entry(ZZ, [r[:] for r in rows]) == (2, 2)
    # a smaller size goes first, whatever its product
    rows[0][0] = 2
    assert _least_entry(ZZ, [r[:] for r in rows]) == (0, 0)
    # among the least sizes, products (3 - 1)(2 - 1) = 2 and (2 - 1)(2 - 1) = 1
    rows[1][1] = -2
    assert _least_entry(ZZ, [r[:] for r in rows]) == (1, 1)
    # among equal products, the first in scan order
    assert _least_entry(ZZ, [[0, 2], [2, 0]]) == (0, 1)
    for mat in (int_matrix(rows), int_matrix([[4, 4, 4], [4, 4, 0], [0, 0, 4]])):
        check_factors(mat, invariant_factors(mat))
    # a unit anywhere is the pivot
    rows[2][0] = -1
    assert _least_entry(ZZ, rows) == (2, 0)


def test_laurent_pivot_among_non_units():
    # sizes are degree spans: 1 + t everywhere, with the least product at
    # (2, 2); then the monomial t^2, a unit, at (0, 1)
    x, zero = (0, [1, 1]), (0, [])
    rows = [[x, x, x], [x, x, zero], [zero, zero, x]]
    for field in (QQ, PrimeField(3)):
        mat = laurent_matrix(field, rows)
        assert _least_entry(mat.domain, mat.entries) == (2, 2)
        check_factors(mat, invariant_factors(mat))
    rows[0][1] = (2, [1])
    mat = laurent_matrix(PrimeField(3), rows)
    assert _least_entry(mat.domain, mat.entries) == (0, 1)
    check_factors(mat, invariant_factors(mat))


# -- invariant factors ---------------------------------------------------------------


def test_snf_basic_examples():
    assert invariant_factors(int_matrix([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(int_matrix([[0, 0], [0, 0]])) == []
    assert invariant_factors(ScalarMatrix.zero(0, 3, ZZ)) == []
    assert invariant_factors(ScalarMatrix.zero(3, 0, ZZ)) == []

    t_minus_one = [(0, [-1, 1]), (0, [])]
    diag = laurent_matrix(QQ, [t_minus_one, t_minus_one[::-1]])
    assert invariant_factors(diag) == [(0, poly_from_ints(QQ, [-1, 1]))] * 2
    check_factors(diag, invariant_factors(diag))


def test_snf_normalizes_units():
    assert invariant_factors(int_matrix([[-2]])) == [2]
    f5 = PrimeField(5)
    dom = LaurentDomain(f5)
    mat = laurent_matrix(f5, [[(0, [3, 1])]])  # 3 + t, already monic
    assert invariant_factors(mat) == [(0, poly_from_ints(f5, [3, 1]))]
    mat2 = laurent_matrix(f5, [[(-2, [1, 2])]])  # t^-2 (1 + 2t) -> monic 3 + t
    assert invariant_factors(mat2) == [(0, poly_from_ints(f5, [3, 1]))]
    # a monomial is a unit of the Laurent ring
    assert invariant_factors(laurent_matrix(f5, [[(4, [2])]])) == [dom.one]
    check_factors(mat2, invariant_factors(mat2))


def minors_gcd_int(rows, k):
    """gcd of all k x k minors; determinant by expansion, exact."""
    m, n = len(rows), len(rows[0])

    def det(sub):
        size = len(sub)
        if size == 1:
            return sub[0][0]
        total = 0
        for j in range(size):
            if sub[0][j]:
                minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
                total += (-1) ** j * sub[0][j] * det(minor)
        return total

    g = 0
    for rs in itertools.combinations(range(m), k):
        for cs in itertools.combinations(range(n), k):
            g = math.gcd(g, det([[rows[i][j] for j in cs] for i in rs]))
    return g


def test_snf_divisors_match_determinantal_divisors():
    rng = random.Random(1234)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        mat = int_matrix(rows)
        factors = invariant_factors(mat)
        check_factors(mat, factors)
        prod = 1
        for k, d in enumerate(factors, start=1):
            prod *= d
            assert prod == minors_gcd_int(rows, k), (rows, factors)
        if len(factors) < min(m, n):
            assert minors_gcd_int(rows, len(factors) + 1) == 0


def test_snf_random_integer_matrices():
    rng = random.Random(42)
    for _ in range(100):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        mat = ScalarMatrix(m, n, rows, ZZ)
        check_factors(mat, invariant_factors(mat))


def test_snf_random_polynomial_matrices():
    for field in (QQ, PrimeField(2), PrimeField(5)):
        rng = random.Random(hash(field) % 100000)
        for _ in range(100):
            m = rng.randint(0, 3)
            n = rng.randint(0, 3)
            rows = [
                [(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]) for _ in range(n)]
                for _ in range(m)
            ]
            mat = laurent_matrix(field, rows)
            check_factors(mat, invariant_factors(mat))


def fraction_copy(matrix: ScalarMatrix) -> ScalarMatrix:
    """The Laurent matrix with every coefficient a Fraction, integral or not:
    the same values without the int representation of Rationals."""
    entries = [[(v, tuple(Fraction(c) for c in poly)) for v, poly in row] for row in matrix.entries]
    return ScalarMatrix(matrix.rows, matrix.cols, entries, matrix.domain)


def test_snf_equal_on_fraction_copies():
    from garside_homology.coefficients import make_system, specialize
    from garside_homology.resolution import build_complex

    mats = []
    for name in ("B3", "H3", "A4"):
        mats += specialize(build_complex(artin_named(name)), make_system("laurent", "Q"))[1:]
    rng = random.Random(11)
    scale = (0, (Fraction(1, 2), Fraction(-3, 4)))  # 1/2 - 3t/4, so some entries are not integral
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]) for _ in range(n)] for _ in range(m)]
        mat = laurent_matrix(QQ, rows)
        mat.entries[0][0] = mat.domain.mul(mat.entries[0][0], scale)
        mats.append(mat)
    for mat in mats:
        assert invariant_factors(fraction_copy(mat)) == invariant_factors(mat)


def unimodular_shuffle(rng, mat: ScalarMatrix) -> ScalarMatrix:
    out = mat.copy()
    dom = out.domain
    for _ in range(8):
        kind = rng.randrange(4)
        if out.rows > 1 and kind == 0:
            i, j = rng.sample(range(out.rows), 2)
            f = dom.one if rng.random() < 0.5 else dom.neg(dom.one)
            for c in range(out.cols):
                out.entries[j][c] = dom.add(out.entries[j][c], dom.mul(f, out.entries[i][c]))
        elif out.cols > 1 and kind == 1:
            i, j = rng.sample(range(out.cols), 2)
            for r in range(out.rows):
                out.entries[r][j] = dom.add(out.entries[r][j], out.entries[r][i])
        elif out.rows > 1 and kind == 2:
            i, j = rng.sample(range(out.rows), 2)
            out.entries[i], out.entries[j] = out.entries[j], out.entries[i]
        elif out.cols > 1 and kind == 3:
            i, j = rng.sample(range(out.cols), 2)
            for r in range(out.rows):
                out.entries[r][i], out.entries[r][j] = out.entries[r][j], out.entries[r][i]
    return out


def test_snf_invariant_under_unimodular_ops():
    from garside_homology.coefficients import make_system, specialize
    from garside_homology.resolution import build_complex

    rng = random.Random(7)
    cx = build_complex(artin_named("A3"))
    for system in (make_system("trivial"), make_system("sign"), make_system("laurent", "Q")):
        mats = specialize(cx, system)
        for mat in mats[1:]:
            base = invariant_factors(mat)
            for _ in range(20):
                assert invariant_factors(unimodular_shuffle(rng, mat)) == base


def test_matrix_product_matches_sympy():
    rng = random.Random(13)
    for _ in range(40):
        m, k, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        ints = [[[rng.randint(-4, 4) for _ in range(b)] for _ in range(a)] for a, b in ((m, k), (k, n))]
        out = int_matrix(ints[0]).mul(int_matrix(ints[1]))
        assert out.entries == [[sum(x * y for x, y in zip(row, col)) for col in zip(*ints[1])] for row in ints[0]]
        for field in (QQ, PrimeField(3)):
            a, b = (
                laurent_matrix(field, [[(rng.randint(-3, 3), [rng.randint(-2, 2) for _ in range(3)]) for _ in range(c)] for _ in range(r)])
                for r, c in ((m, k), (k, n))
            )
            out = a.mul(b)
            for i, j in itertools.product(range(m), range(n)):
                want = sum((shifted(field, a.entries[i][x], 3) * shifted(field, b.entries[x][j], 3) for x in range(k)), shifted(field, out.domain.zero, 0))
                assert shifted(field, out.entries[i][j], 6) == want
                assert_canonical(field, out.entries[i][j])


# -- homology assembly ------------------------------------------------------------------


def test_homology_at_shapes_and_errors():
    d1 = int_matrix([[1, -1]])
    with pytest.raises(PreconditionError):
        homology_at(None, d1, 3, ZZ)
    bad_pair_out = int_matrix([[1, 0]])
    bad_pair_in = int_matrix([[1], [1]])
    with pytest.raises(ConsistencyError):
        homology_at(bad_pair_in, bad_pair_out, 2, ZZ)


def test_homology_at_direct_cases():
    # kernel Z^2 with image spanned by (2, 0): H = Z + Z_2
    b_in = int_matrix([[2], [0]])
    group = homology_at(b_in, None, 2, ZZ)
    assert (group.free_rank, group.torsion) == (1, [2])
    # full-rank boundary out: nothing left
    b_out = int_matrix([[1, 0], [0, 1]])
    group = homology_at(None, b_out, 2, ZZ)
    assert group.is_trivial()
    # zero everything: free of rank dim
    group = homology_at(None, None, 3, ZZ)
    assert (group.free_rank, group.torsion) == (3, [])
    # Laurent: image spanned by t^-1 (t^2 - 1) inside a rank-one kernel
    dom = LaurentDomain(QQ)
    group = homology_at(laurent_matrix(QQ, [[(-1, [-1, 0, 1])]]), None, 1, dom)
    assert (group.free_rank, group.torsion) == (0, [(0, poly_from_ints(QQ, [-1, 0, 1]))])


def integer_kernel_basis(rows, n):
    """Integer columns spanning the rational kernel of an integer matrix."""
    basis = sympy.Matrix(rows).nullspace() if rows else [sympy.eye(n)[:, j] for j in range(n)]
    out = []
    for vec in basis:
        scale = math.lcm(*(sympy.fraction(sympy.nsimplify(x))[1] for x in vec))
        out.append([int(x * scale) for x in vec])
    return out


def test_homology_rank_identity():
    # free rank equals dim C_n - rank out - rank in on random consistent data:
    # B has its columns inside ker(A) by construction
    rng = random.Random(31415)
    tested = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        A = int_matrix(rows)
        kernel = integer_kernel_basis(rows, n)
        k = len(kernel)
        rank_a = len(invariant_factors(A))
        assert k == n - rank_a
        if k == 0:
            continue
        for vec in kernel:
            assert all(sum(r[i] * vec[i] for i in range(n)) == 0 for r in rows)
        mix = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(k)]
        B = int_matrix([[sum(kernel[s][i] * mix[s][c] for s in range(k)) for c in range(2)] for i in range(n)])
        group = homology_at(B, A, n, ZZ)
        rank_b = len(invariant_factors(B))
        assert rank_b == sympy.Matrix(B.entries).rank()
        assert group.free_rank == n - rank_a - rank_b
        tested += 1
    assert tested >= 10


def test_universal_coefficient_rank_inequality():
    # dim_Fp H_n(C (x) Fp) >= free rank of H_n(C over Z), per prime and degree
    from garside_homology.coefficients import make_system, specialize
    from garside_homology.homology import compute_homology
    from garside_homology import circulating_structure

    for struct in (artin_named("A3"), circulating_structure("G7")):
        for kind in ("trivial", "sign"):
            system = make_system(kind)
            integral = compute_homology(struct, system)
            cx = integral.resolution
            mats = specialize(cx, system)
            for p in (2, 3, 5):
                dom = LaurentDomain(PrimeField(p))

                def reduce_mat(mat):
                    if mat is None:
                        return None
                    ent = [[dom.from_exponents({0: e}) for e in row] for row in mat.entries]
                    return ScalarMatrix(mat.rows, mat.cols, ent, dom)

                for n, group in enumerate(integral.groups):
                    b_out = reduce_mat(mats[n]) if 1 <= n < len(mats) else None
                    b_in = reduce_mat(mats[n + 1]) if n + 1 < len(mats) else None
                    modp = homology_at(b_in, b_out, len(cx.cells[n]), dom)
                    dim_p = modp.free_rank + len(modp.torsion)
                    assert dim_p >= group.free_rank
