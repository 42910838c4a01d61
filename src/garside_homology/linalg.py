"""Invariant factors over Euclidean domains and homology assembly.

The two supported domains are arbitrary-precision integers and Laurent
polynomials F[t, t^-1] over a field (rationals or a prime field).  Both are
principal ideal domains, and the chain groups are free, so the kernel of a
boundary is a direct summand: homology in degree n is read off the ranks of
the two boundaries at C_n and the invariant factors of the incoming one.
No transforms are needed, only the diagonal of the Smith normal form, and
each matrix is reduced once: `ScalarMatrix.factors` keeps its invariant
factors, so d_{n+1} serves degree n (its factors) and degree n+1 (its rank).

The pivot is the first unit met in scan order.  When no unit remains, it
is an entry of least Euclidean size (absolute value; degree span, then
coefficient height), to keep intermediate entries small, and among those
the one of least Markowitz product (row nonzeros - 1) * (column nonzeros -
1), to keep fill-in small (Markowitz, Management Sci. 3, 1957).

Each row update a - q * c is one fused `sub_mul`, and so are sums (a - (-1)
* b) and negatives (0 - 1 * a).  Over F[t, t^-1] it scales the operands to
integers over one common denominator, runs the dense multiply-add loop of
`rings.mul_add` on ints, and divides (over Q) or reduces (over F_p) once per
output coefficient; Euclidean division runs the same loop through
`rings.poly_divmod`.  No coefficient is added, subtracted or negated
anywhere else, so a field needs no `add`, `sub` or `neg`.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import NamedTuple, Optional

from .gaussian import ConsistencyError, PreconditionError
from . import rings


class IntegerDomain:
    """Euclidean structure on arbitrary-precision integers."""

    zero = 0
    one = 1

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sub_mul(self, a, q, c):
        """a - q * c."""
        return a - q * c

    def neg(self, a):
        return -a

    def divmod(self, a, b):
        return divmod(a, b)

    def divides(self, a, b) -> bool:
        """Whether a divides b."""
        return b % a == 0

    def size(self, a) -> int:
        return abs(a)

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def normal(self, a):
        """The associate of a that is >= 0."""
        return abs(a)

    def __eq__(self, other):
        return isinstance(other, IntegerDomain)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "IntegerDomain()"


class LaurentDomain:
    """Euclidean structure on Laurent polynomials over a field.

    An element is a pair (valuation, poly): the dense polynomial poly (see
    rings) has a nonzero constant term and the element is t^valuation * poly;
    (0, ()) is zero.  The units are the monomials c * t^k, and the Euclidean
    size is the degree span len(poly) - 1.
    """

    def __init__(self, field):
        self.field = field
        self.rational = isinstance(field, rings.Rationals)
        self.zero = (0, ())
        self.one = (0, (field.one,))
        self.minus_one = (0, (field.from_int(-1),))

    def element(self, v: int, coeffs) -> tuple:
        """t^v * coeffs, with the high zero coefficients dropped and the low
        ones moved into the valuation."""
        is_zero = self.field.is_zero
        hi = len(coeffs)
        while hi and is_zero(coeffs[hi - 1]):
            hi -= 1
        lo = 0
        while lo < hi and is_zero(coeffs[lo]):
            lo += 1
        if lo == hi:
            return self.zero
        return (v + lo, tuple(coeffs[lo:hi]))

    def from_exponents(self, terms: dict) -> tuple:
        """The element sum of m * t^e over the exponent -> integer map terms."""
        field = self.field
        terms = {e: field.from_int(m) for e, m in terms.items()}
        support = [e for e, c in terms.items() if not field.is_zero(c)]
        if not support:
            return self.zero
        low = min(support)
        return (low, tuple(terms.get(e, field.zero) for e in range(low, max(support) + 1)))

    def is_zero(self, a) -> bool:
        return not a[1]

    def add(self, a, b):
        return self.sub_mul(a, self.minus_one, b)

    def neg(self, a):
        return self.sub_mul(self.zero, self.one, a)

    def mul(self, a, b):
        if not a[1] or not b[1]:
            return self.zero
        return (a[0] + b[0], rings.poly_mul(self.field, a[1], b[1]))

    def sub_mul(self, a, q, c):
        """a - q * c in one pass over one dense coefficient list.

        The three operands are scaled to integers over one common
        denominator D (1 when they are integral, and always over F_p), the
        integer multiply-adds run in `rings.mul_add`, and each output
        coefficient is divided by D, or reduced mod p, once.  The result is
        canonical whatever the operands' representation.
        """
        field = self.field
        (va, pa), (vq, pq), (vc, pc) = a, q, c
        da, pa = field.scaled(pa)
        dq, pq = field.scaled(pq)
        dc, pc = field.scaled(pc)
        if pq and pc:
            vp = vq + vc
        else:
            vp, pq = va, ()
        if not pa:
            va = vp
        low = min(va, vp)
        d = lcm(da, dq * dc)
        out = [0] * (max(va + len(pa), vp + len(pq) + len(pc) - 1) - low)
        s = d // da
        out[va - low : va - low + len(pa)] = pa if s == 1 else [s * x for x in pa]
        m = -(d // (dq * dc))
        rings.mul_add(out, vp - low, [m * x for x in pq], pc)
        return self.element(low, field.unscaled(out, d))

    def divmod(self, a, b):
        """t^va pa = t^(va-vb) q * t^vb pb + t^va r, by division of pa by pb."""
        q, r = rings.poly_divmod(self.field, a[1], b[1])
        return self.element(a[0] - b[0], q), self.element(a[0], r)

    def divides(self, a, b) -> bool:
        """Whether a divides b."""
        return not rings.poly_divmod(self.field, b[1], a[1])[1]

    def size(self, a) -> tuple:
        """Degree span, then over Q the bits of the coefficients' numerators
        and denominators; the tie-break keeps rational entries from swelling."""
        poly = a[1]
        if not self.rational:
            return len(poly), 0
        return len(poly), sum(abs(c.numerator).bit_length() + c.denominator.bit_length() for c in poly)

    def is_unit(self, a) -> bool:
        return len(a[1]) == 1

    def normal(self, a):
        """The associate of a with valuation 0 and a monic polynomial."""
        return (0, rings.poly_monic(self.field, a[1])[1])

    def __eq__(self, other):
        return isinstance(other, LaurentDomain) and other.field == self.field

    def __hash__(self):
        return hash(("laurent", self.field))

    def __repr__(self):
        return f"LaurentDomain({self.field!r})"


class ScalarMatrix:
    """Dense rectangular matrix over one of the supported domains.

    `factors` is computed on first read and kept, so `entries` must not be
    mutated after it has been read; mutate a `copy()`, which starts without
    factors.
    """

    def __init__(self, rows: int, cols: int, entries: list, domain):
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.domain = domain

    def __eq__(self, other):
        if type(other) is not ScalarMatrix:
            return NotImplemented
        return (self.rows, self.cols, self.entries, self.domain) == (other.rows, other.cols, other.entries, other.domain)

    @classmethod
    def zero(cls, rows: int, cols: int, domain) -> "ScalarMatrix":
        return cls(rows, cols, [[domain.zero] * cols for _ in range(rows)], domain)

    def copy(self) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [row[:] for row in self.entries], self.domain)

    def mul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows or self.domain != other.domain:
            raise PreconditionError("matrix shapes or domains do not match")
        dom = self.domain
        # accumulate the negated product, so that an entry that sums to zero,
        # as every entry of a composite of boundaries does, is never negated
        out = ScalarMatrix.zero(self.rows, other.cols, dom)
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if dom.is_zero(a):
                    continue
                other_row = other.entries[k]
                out_row = out.entries[i]
                for j in range(other.cols):
                    b = other_row[j]
                    if not dom.is_zero(b):
                        out_row[j] = dom.sub_mul(out_row[j], a, b)
        for out_row in out.entries:
            for j, e in enumerate(out_row):
                if not dom.is_zero(e):
                    out_row[j] = dom.neg(e)
        return out

    def is_zero(self) -> bool:
        dom = self.domain
        return all(dom.is_zero(e) for row in self.entries for e in row)

    @cached_property
    def factors(self) -> list:
        """The invariant factors (see `invariant_factors`), computed once."""
        return invariant_factors(self)


def _least_entry(dom, A: list) -> Optional[tuple[int, int]]:
    """Position of the pivot: the first unit in scan order, if any.

    With no unit left, a nonzero entry of least size, and among those the
    least Markowitz product (row nonzeros - 1) * (column nonzeros - 1),
    which bounds the entries the step can fill in; then the first in scan
    order.  Only the tied entries' rows and columns are counted.
    """
    ties, least = [], None
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            if dom.is_zero(e):
                continue
            if dom.is_unit(e):
                return i, j
            size = dom.size(e)
            if least is None or size < least:
                ties, least = [(i, j)], size
            elif size == least:
                ties.append((i, j))
    if len(ties) < 2:
        return ties[0] if ties else None
    row_count, col_count = {}, {}
    for i, j in ties:
        if i not in row_count:
            row_count[i] = sum(not dom.is_zero(e) for e in A[i])
        if j not in col_count:
            col_count[j] = sum(not dom.is_zero(row[j]) for row in A)
    return min(ties, key=lambda ij: (row_count[ij[0]] - 1) * (col_count[ij[1]] - 1))


def invariant_factors(matrix: ScalarMatrix) -> list:
    """The nonzero invariant factors of the matrix, unit-normalized, as a
    divisibility chain; their count is the rank.

    Each step takes a pivot of least size out of the remaining rows and
    clears its column by row operations.  A non-unit pivot's row then needs
    only the remainders: a column operation that clears an entry of the
    pivot row touches no other row, as the pivot column is zero there.  A
    remainder, in the column or the row, becomes the new pivot; so does one
    against a remaining entry the pivot does not divide, once that entry's
    row is added to the pivot row.  No transforms are kept.
    """
    dom = matrix.domain
    A = [row[:] for row in matrix.entries]
    factors = []
    while (pos := _least_entry(dom, A)) is not None:
        i, j = pos
        pivot_row = A.pop(i)
        while True:
            p = pivot_row[j]
            swapped = False
            for i, row in enumerate(A):
                if dom.is_zero(row[j]):
                    continue
                q, rem = dom.divmod(row[j], p)
                for k, c in enumerate(pivot_row):
                    if not dom.is_zero(c):
                        row[k] = dom.sub_mul(row[k], q, c)
                if not dom.is_zero(rem):
                    A[i], pivot_row = pivot_row, row
                    swapped = True
                    break
            if swapped:
                continue
            if dom.is_unit(p):
                break
            for k, c in enumerate(pivot_row):
                if k != j and not dom.is_zero(c):
                    pivot_row[k] = dom.divmod(c, p)[1]
            rems = [k for k, c in enumerate(pivot_row) if k != j and not dom.is_zero(c)]
            if rems:
                j = min(rems, key=lambda k: dom.size(pivot_row[k]))
                continue
            offender = next(
                (row for row in A if any(not dom.is_zero(e) and not dom.divides(p, e) for e in row)), None
            )
            if offender is None:
                break
            pivot_row = [dom.add(a, b) for a, b in zip(pivot_row, offender)]
        factors.append(dom.normal(p))
        for row in A:
            del row[j]
    return factors


class HomologyGroup(NamedTuple):
    """Free rank plus a divisibility chain of non-unit torsion divisors."""

    free_rank: int
    torsion: list
    domain: object

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def homology_at(
    boundary_in: Optional[ScalarMatrix],
    boundary_out: Optional[ScalarMatrix],
    dim_n: int,
    domain,
) -> HomologyGroup:
    """Homology at C_n: kernel of boundary_out modulo image of boundary_in.

    boundary_out is the map leaving C_n (pass None in degree 0, where the
    resolution continues by the augmentation and contributes no relations),
    boundary_in the one entering from C_{n+1} (None when there are no cells
    above).  Shapes are checked against dim_n.  Over a principal ideal
    domain the kernel of boundary_out is a direct summand of the free C_n,
    so H_n is free of rank dim_n - rank(out) - rank(in) plus the quotients
    by the non-unit invariant factors of boundary_in; the check that the
    composite vanishes is what puts the image inside the kernel.  Ranks and
    factors are read from the matrices' `factors`, so a matrix passed as
    boundary_in here and as boundary_out in the next degree is reduced once
    for the two.
    """
    if boundary_out is None:
        boundary_out = ScalarMatrix.zero(0, dim_n, domain)
    if boundary_in is None:
        boundary_in = ScalarMatrix.zero(dim_n, 0, domain)
    if boundary_out.cols != dim_n or boundary_in.rows != dim_n:
        raise PreconditionError("matrix shapes do not match the cell count")
    if boundary_out.domain != domain or boundary_in.domain != domain:
        raise PreconditionError("matrix domain mismatch")
    if not boundary_out.mul(boundary_in).is_zero():
        raise ConsistencyError("composite of consecutive boundaries is nonzero")

    factors_in = boundary_in.factors
    torsion = [d for d in factors_in if not domain.is_unit(d)]
    return HomologyGroup(dim_n - len(boundary_out.factors) - len(factors_in), torsion, domain)
