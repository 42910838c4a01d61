"""Rationals: ints when integral, a Fraction only where a denominator appears."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from garside_homology.linalg import LaurentDomain
from garside_homology.rings import Rationals, poly_divmod, poly_monic

QQ = Rationals()

# field elements in their one representation: an int, or a Fraction with a
# denominator above 1
elements = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4).filter(lambda f: f.denominator > 1),
)


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@given(elements, elements)
def test_arithmetic_matches_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    results = [(QQ.mul(a, b), fa * fb)]
    if a != 0:
        results.append((QQ.inv(a), 1 / fa))
    for got, want in results:
        assert got == want
        assert is_canonical(got)
        assert (type(got) is int) == (want.denominator == 1)


def test_inverse_is_never_a_float():
    for n in range(-12, 13):
        if n:
            inv = QQ.inv(n)
            assert is_canonical(inv) and inv * n == 1
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(Fraction(-1, 4)) == -4 and type(QQ.inv(Fraction(-1, 4))) is int
    quot, rem = poly_divmod(QQ, (1, 2), (2,))
    assert (quot, rem) == ((Fraction(1, 2), 1), ())
    assert [type(c) for c in quot] == [Fraction, int]
    assert poly_monic(QQ, (3, 6)) == (6, (Fraction(1, 2), 1))


def test_identities_and_formatting_are_ints():
    assert (QQ.zero, QQ.one, QQ.from_int(-7)) == (0, 1, -7)
    assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.from_int(-7)))
    assert [QQ.fmt(x) for x in (3, -1, Fraction(-5, 6))] == ["3", "-1", "-5/6"]


def test_laurent_elements_have_int_coefficients():
    dom = LaurentDomain(QQ)
    a = dom.from_exponents({-2: 3, 0: -1, 1: 4})
    b = dom.from_exponents({1: 2, 2: 1})
    assert a == (-2, (3, 0, -1, 4))
    # 3t^-2 - 1 + 4t plus 2t + t^2, and the negative of a
    assert dom.add(a, b) == (-2, (3, 0, -1, 6, 1))
    assert dom.neg(a) == (-2, (-3, 0, 1, -4))
    assert dom.add(a, dom.neg(a)) == dom.zero
    for x in (a, b, dom.one, dom.add(a, b), dom.neg(a), dom.mul(a, b), *dom.divmod(a, b)):
        assert all(type(c) is int for c in x[1]), x
    # a size tie-break reads the same bits from an int as from Fraction(c)
    assert dom.size(a) == dom.size((a[0], tuple(Fraction(c) for c in a[1])))
