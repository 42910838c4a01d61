"""Rank-one coefficient systems and specialization of the differentials.

Three systems act through the length of a morphism: trivial (every atom acts
by 1), sign (atoms of length 1 act by -1), and Laurent (they act by t).  On a
category with several objects the action is transported to the group at the
basepoint through chosen connecting paths; only their lengths matter, so a
structure file ships a path length per object rather than the paths.

Specializing a cell complex turns each chain-valued differential into a
matrix over the integers or over the Laurent ring F[t, t^-1] itself, whose
elements are (valuation, polynomial) pairs (linalg.LaurentDomain); negative
exponents need no rescaling.  The cyclotomic polynomials name the divisors
that Laurent homology prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .gaussian import GaussianStructure, PreconditionError, Word
from .linalg import IntegerDomain, LaurentDomain, ScalarMatrix
from .resolution import CellComplex
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


@dataclass(frozen=True)
class CoefficientSystem:
    kind: str
    field: object = None  # Rationals() or PrimeField(p); Laurent only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown coefficient system {self.kind!r}")
        if self.kind == "laurent" and self.field is None:
            raise PreconditionError("Laurent coefficients need a field")
        if self.kind != "laurent" and self.field is not None:
            raise PreconditionError(f"{self.kind} coefficients take no field")

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


def word_exponent(struct: GaussianStructure, word: Word) -> int:
    """Length of the transported morphism: len(u_src) + len(word) - len(u_tgt).

    For a one-object structure this is just the word length.  May be
    negative on categories.
    """
    e = struct.word_length(word)
    if len(struct.object_names) == 1:
        return e
    if struct.path_lengths is None:
        raise PreconditionError(
            "structure has several objects but no basepoint path lengths for transport"
        )
    return e + struct.path_lengths[word.src] - struct.path_lengths[struct.word_target(word)]


def _exponent(struct: GaussianStructure, system: CoefficientSystem, word: Word) -> int:
    """The exponent a morphism acts by; 0 for the trivial action, which needs no transport."""
    return 0 if system.kind == "trivial" else word_exponent(struct, word)


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


def scalar_of(struct: GaussianStructure, system: CoefficientSystem, word: Word):
    """Image of a morphism in the coefficient ring."""
    return _element(system, system.domain(), {_exponent(struct, system, word): 1})


def specialize(cell_complex: CellComplex, system: CoefficientSystem) -> list[Optional[ScalarMatrix]]:
    """Matrices of the differentials over the coefficient ring.

    Entry (B, A) of matrix n is the sum over the terms f[B] of the boundary
    of the n-cell A of multiplicity * scalar_of(f), built once from its
    exponent -> multiplicity sums; a Laurent entry whose exponents span
    more than MAX_LAURENT_SPAN raises PreconditionError before its
    coefficient list is made.  Index 0 of the returned list is None:
    degree zero has no outgoing differential here, the resolution continues
    by the augmentation.
    """
    cell_complex.check_facets()
    struct = cell_complex.structure
    mats: list[Optional[ScalarMatrix]] = [None]
    domain = system.domain()
    for n in range(1, len(cell_complex.cells)):
        rows = cell_complex.cells[n - 1]
        cols = cell_complex.cells[n]
        row_index = {cell: i for i, cell in enumerate(rows)}
        entries = [[domain.zero] * len(cols) for _ in rows]
        for j, cell in enumerate(cols):
            sums: dict[int, dict[int, int]] = {}
            for (word, facet), mult in cell_complex.boundaries[n][cell].items():
                terms = sums.setdefault(row_index[facet], {})
                e = _exponent(struct, system, word)
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
