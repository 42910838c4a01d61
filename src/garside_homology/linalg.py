"""Invariant factors over Euclidean domains and homology assembly.

The two supported domains are arbitrary-precision integers and Laurent
polynomials F[t, t^-1] over a field (rationals or a prime field).  Both are
principal ideal domains, and the chain groups are free, so the kernel of a
boundary is a direct summand: homology in degree n is read off the ranks of
the two boundaries at C_n and the invariant factors of the incoming one.
No transforms are needed, only the diagonal of the Smith normal form.

Pivots are chosen of minimal Euclidean size (absolute value; degree span,
then coefficient height), stopping at the first unit, to keep intermediate
entries small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

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

    def element(self, v: int, coeffs) -> tuple:
        """t^v * coeffs, with the low zero coefficients moved into the valuation."""
        poly = rings.poly_trim(self.field, coeffs)
        k = 0
        while k < len(poly) and self.field.is_zero(poly[k]):
            k += 1
        if k == len(poly):
            return self.zero
        return (v + k, poly[k:]) if k else (v, poly)

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
        (va, pa), (vb, pb) = a, b
        if not pa:
            return b
        if not pb:
            return a
        if va > vb:
            (va, pa), (vb, pb) = (vb, pb), (va, pa)
        shift = vb - va
        out = list(pa)
        out.extend([self.field.zero] * (shift + len(pb) - len(out)))
        for i, c in enumerate(pb, start=shift):
            out[i] = self.field.add(out[i], c)
        return self.element(va, out)

    def neg(self, a):
        return (a[0], rings.poly_neg(self.field, a[1]))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a[1] or not b[1]:
            return self.zero
        return (a[0] + b[0], rings.poly_mul(self.field, a[1], b[1]))

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


@dataclass
class ScalarMatrix:
    """Dense rectangular matrix over one of the supported domains."""

    rows: int
    cols: int
    entries: list
    domain: object

    @classmethod
    def zero(cls, rows: int, cols: int, domain) -> "ScalarMatrix":
        return cls(rows, cols, [[domain.zero] * cols for _ in range(rows)], domain)

    def copy(self) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [row[:] for row in self.entries], self.domain)

    def mul(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows or self.domain != other.domain:
            raise PreconditionError("matrix shapes or domains do not match")
        dom = self.domain
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
                        out_row[j] = dom.add(out_row[j], dom.mul(a, b))
        return out

    def is_zero(self) -> bool:
        dom = self.domain
        return all(dom.is_zero(e) for row in self.entries for e in row)


def _least_entry(dom, A: list) -> Optional[tuple[int, int]]:
    """Position of a nonzero entry of least size: the first unit, if any."""
    best = best_size = None
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            if dom.is_zero(e):
                continue
            if dom.is_unit(e):
                return i, j
            size = dom.size(e)
            if best is None or size < best_size:
                best, best_size = (i, j), size
    return best


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
                        row[k] = dom.sub(row[k], dom.mul(q, c))
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


@dataclass
class HomologyGroup:
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
    composite vanishes is what puts the image inside the kernel.
    """
    if boundary_out is None:
        boundary_out = ScalarMatrix.zero(0, dim_n, domain)
    if boundary_in is None:
        boundary_in = ScalarMatrix.zero(dim_n, 0, domain)
    if boundary_out.cols != dim_n or boundary_in.rows != dim_n:
        raise PreconditionError("matrix shapes do not match the cell count")
    if boundary_out.domain != domain or boundary_in.domain != domain:
        raise PreconditionError("matrix domain mismatch")
    if dim_n == 0:
        return HomologyGroup(0, [], domain)

    if not boundary_out.mul(boundary_in).is_zero():
        raise ConsistencyError("composite of consecutive boundaries is nonzero")

    factors_in = invariant_factors(boundary_in)
    rank_out = len(invariant_factors(boundary_out))
    torsion = [d for d in factors_in if not domain.is_unit(d)]
    return HomologyGroup(dim_n - rank_out - len(factors_in), torsion, domain)
