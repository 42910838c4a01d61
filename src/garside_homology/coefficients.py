"""Rank-one coefficient systems and specialization of the differentials.

Three systems act through the length of a morphism: trivial (every atom acts
by 1), sign (atoms of length 1 act by -1), and Laurent (they act by t).  On a
category with several objects the action is transported to the group at the
basepoint through chosen connecting paths; only their lengths matter, so a
structure file ships a path length per object rather than the paths.  A
morphism thus acts by its exponent alone, which `node_exponent` reads off
the word kernel's node, its length and its endpoints, without spelling it.

Specializing a resolution turns each chain-valued differential into a
matrix over the integers or over the Laurent ring F[t, t^-1] itself, whose
elements are (valuation, polynomial) pairs (linalg.LaurentDomain); negative
exponents need no rescaling.  The cyclotomic polynomials name the divisors
that Laurent homology prints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .gaussian import ConsistencyError, PreconditionError, WordKernel
from .linalg import IntegerDomain, LaurentDomain, ScalarMatrix
from .resolution import OrderResolution
from .rings import (
    Poly,
    PrimeField,
    Rationals,
    poly_divmod,
    poly_from_ints,
    poly_monic,
    poly_trim,
)

KINDS = ("trivial", "sign", "laurent")

# the widest exponent span of a Laurent entry; its element is a dense list
# with one coefficient per exponent in the span
MAX_LAURENT_SPAN = 2**20


class CoefficientSystem:
    def __init__(self, kind: str, field: object = None):
        # field: Rationals() or PrimeField(p); Laurent only
        if kind not in KINDS:
            raise PreconditionError(f"unknown coefficient system {kind!r}")
        if kind == "laurent" and field is None:
            raise PreconditionError("Laurent coefficients need a field")
        if kind != "laurent" and field is not None:
            raise PreconditionError(f"{kind} coefficients take no field")
        self.kind = kind
        self.field = field

    def __eq__(self, other):
        if type(other) is not CoefficientSystem:
            return NotImplemented
        return (self.kind, self.field) == (other.kind, other.field)

    def __hash__(self):
        return hash((self.kind, self.field))

    def __repr__(self):
        return f"CoefficientSystem(kind={self.kind!r}, field={self.field!r})"

    def domain(self):
        if self.kind == "laurent":
            return LaurentDomain(self.field)
        return IntegerDomain()

    def describe(self) -> str:
        if self.kind == "trivial":
            return "Z (trivial action)"
        if self.kind == "sign":
            return "Z (sign action)"
        return f"{self.field.name}[t,t^-1]"


def make_system(kind: str, field: Optional[str] = None, p: Optional[int] = None) -> CoefficientSystem:
    if p is not None and field != "Fp":
        raise PreconditionError("--p only makes sense with field Fp")
    if kind != "laurent":
        if field is not None:
            raise PreconditionError(f"{kind} coefficients take no field")
        return CoefficientSystem(kind)
    if field in (None, "Q"):
        return CoefficientSystem("laurent", Rationals())
    if field == "Fp":
        if p is None:
            raise PreconditionError("field Fp needs a prime p")
        return CoefficientSystem("laurent", PrimeField(p))
    raise PreconditionError(f"unknown field {field!r}")


def node_exponent(kernel: WordKernel, system: CoefficientSystem) -> Callable[[int], int]:
    """The exponent each node acts by, as a function of the node: its
    length transported to the basepoint, len(u_src) + length - len(u_tgt),
    which may be negative on categories; 0 for the trivial action, which
    needs no transport."""
    length = kernel.length
    if system.kind == "trivial":
        return lambda node: 0
    if kernel.n_objects == 1:
        return length.__getitem__
    path = kernel.struct.path_lengths
    if path is None:
        raise PreconditionError("structure has several objects but no basepoint path lengths for transport")
    src, target = kernel.src, kernel.target
    return lambda node: length[node] + path[src[node]] - path[target(node)]


def _element(system: CoefficientSystem, domain, terms: dict[int, int]):
    """The ring element sum of m * (the action of exponent e) over terms e -> m."""
    if system.kind == "trivial":
        return sum(terms.values())
    if system.kind == "sign":
        return sum(-m if e % 2 else m for e, m in terms.items())
    support = [e for e, m in terms.items() if m]
    span = max(support) - min(support) if support else 0
    if span > MAX_LAURENT_SPAN:
        raise PreconditionError(
            f"a Laurent entry spans {span} exponents, over the limit of {MAX_LAURENT_SPAN}"
        )
    return domain.from_exponents(terms)


def specialize(res: OrderResolution, system: CoefficientSystem) -> list[Optional[ScalarMatrix]]:
    """Matrices of the differentials over the coefficient ring.

    Entry (B, A) of matrix n is the sum over the terms f[B] of the boundary
    of the n-cell A of multiplicity times the action of f's exponent
    (`node_exponent`), built once from its exponent -> multiplicity sums.
    PreconditionError is raised on a term of a structure with several
    objects and no path lengths unless the action is trivial, and on a
    Laurent entry whose exponents span more than MAX_LAURENT_SPAN before
    its coefficient list is made; ConsistencyError on a term whose facet is
    not an enumerated cell.  Index 0 of the returned list is None:
    degree zero has no outgoing differential here, the resolution continues
    by the augmentation.
    """
    cells = res.cells
    # every cell of dimension >= 1 has a term; without one nothing is transported
    exponent = node_exponent(res.kernel, system) if len(cells) > 1 and cells[1] else None
    mats: list[Optional[ScalarMatrix]] = [None]
    domain = system.domain()
    for n in range(1, len(cells)):
        rows, cols = cells[n - 1], cells[n]
        row_index = {cell: i for i, cell in enumerate(rows)}
        entries = [[domain.zero] * len(cols) for _ in rows]
        for j, cell in enumerate(cols):
            sums: dict[int, dict[int, int]] = {}
            for (node, facet), mult in res.differential(cell).items():
                i = row_index.get(facet)
                if i is None:
                    raise ConsistencyError(f"the boundary of {cell} meets {facet}, which is not a cell")
                terms = sums.setdefault(i, {})
                e = exponent(node)
                terms[e] = terms.get(e, 0) + mult
            for i, terms in sums.items():
                entries[i][j] = _element(system, domain, terms)
        mats.append(ScalarMatrix(len(rows), len(cols), entries, domain))
    return mats


# -- cyclotomic polynomials ------------------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic_ints(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial."""
    field = Rationals()
    num = poly_from_ints(field, [-1] + [0] * (n - 1) + [1])  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(field, num, poly_from_ints(field, _cyclotomic_ints(d)))
            if rem:
                raise ArithmeticError("cyclotomic recursion produced a remainder")
    return num


def cyclotomic_poly(n: int, field) -> Poly:
    """The n-th cyclotomic polynomial with coefficients in the field."""
    if n < 1:
        raise PreconditionError("cyclotomic index must be positive")
    return poly_from_ints(field, _cyclotomic_ints(n))


def _totient(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def cyclotomic_factorization(poly: Poly, field) -> Optional[list[tuple[int, int]]]:
    """Write a polynomial as a product of cyclotomics, if one exists.

    Returns (n, multiplicity) pairs with n ascending, greedily dividing by
    the smallest cyclotomic first (over a prime field the decomposition is
    not unique; this one is deterministic).  None when no exact product
    exists; unit input gives an empty list.
    """
    _, p = poly_monic(field, poly_trim(field, poly))
    if not p:
        return None
    degree = len(p) - 1
    factors: list[tuple[int, int]] = []
    n = 1
    limit = 2 * degree * degree + 2
    while len(p) > 1:
        if n > limit:
            return None
        if _totient(n) <= len(p) - 1:
            phi = cyclotomic_poly(n, field)
            mult = 0
            while True:
                q, r = poly_divmod(field, p, phi)
                if r:
                    break
                p = q
                mult += 1
            if mult:
                factors.append((n, mult))
        n += 1
    return factors


def format_cyclotomic(factors: list[tuple[int, int]]) -> str:
    if not factors:
        return "1"
    parts = []
    for n, mult in factors:
        base = f"Phi_{n}"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "*".join(parts)
