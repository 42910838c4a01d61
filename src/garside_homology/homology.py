"""End-to-end homology: complex, specialization, invariant factors.

Divisors of Laurent homology are computed in the Laurent ring and reported
modulo its units, the monomials c * t^k: each is the pair (0, p) with p
monic and p(0) != 0, and prints as p, so (t^3 - t^2) prints as (t - 1).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coefficients import (
    CoefficientSystem,
    cyclotomic_factorization,
    format_cyclotomic,
    specialize,
)
from .gaussian import AtomOrdering, GaussianStructure, PreconditionError
from .linalg import HomologyGroup, homology_at
from .resolution import OrderResolution, build_complex, default_max_dim
from .rings import poly_str


class HomologyResult(NamedTuple):
    system: CoefficientSystem
    resolution: OrderResolution
    groups: list[HomologyGroup]  # degrees 0..max_dim


def compute_homology(
    struct: GaussianStructure,
    system: CoefficientSystem,
    ordering: Optional[AtomOrdering] = None,
    max_dim: Optional[int] = None,
) -> HomologyResult:
    """Homology of the structure's group(oid) in degrees 0..max_dim.

    Cells are enumerated one dimension beyond max_dim so that the incoming
    boundary at the top degree is present.  In degree 0 the outgoing map is
    zero (the resolution continues by the augmentation, which imposes no
    relations on homology), so H_0 is the cokernel of the first boundary.
    """
    if max_dim is None:
        max_dim = default_max_dim(struct)
    if max_dim < 0:
        raise PreconditionError(f"max_dim must be >= 0, got {max_dim}")
    res = build_complex(struct, ordering, max_dim + 1)
    mats = specialize(res, system)
    groups = [homology_at(mats[n + 1], mats[n]) for n in range(max_dim + 1)]
    return HomologyResult(system, res, groups)


# -- formatting -------------------------------------------------------------------


def format_group(group: HomologyGroup, system: CoefficientSystem) -> str:
    if system.kind == "laurent":
        return _format_laurent(group, system)
    parts = _free_part("Z", group.free_rank)
    parts.extend(f"Z_{d}" for d in group.torsion)
    return " x ".join(parts) if parts else "0"


def _free_part(ring: str, rank: int) -> list[str]:
    """The free module of this rank over the ring: no part, "R" or "R^r"."""
    if rank == 0:
        return []
    return [ring if rank == 1 else f"{ring}^{rank}"]


def _format_laurent(group: HomologyGroup, system: CoefficientSystem) -> str:
    field = system.field
    ring = system.describe()
    parts = _free_part(ring, group.free_rank)
    for _, d in group.torsion:
        factors = cyclotomic_factorization(d, field)
        shown = poly_str(field, d)
        if factors:
            shown += f" = {format_cyclotomic(factors)}"
        parts.append(f"{ring}/({shown})")
    return " (+) ".join(parts) if parts else "0"


def torsion_csv(group: HomologyGroup, system: CoefficientSystem) -> str:
    if system.kind == "laurent":
        return "|".join(poly_str(system.field, d) for _, d in group.torsion)
    return "|".join(str(d) for d in group.torsion)


def cyclotomic_csv(group: HomologyGroup, system: CoefficientSystem) -> str:
    if system.kind != "laurent":
        return ""
    cols = []
    for _, d in group.torsion:
        factors = cyclotomic_factorization(d, system.field)
        cols.append(format_cyclotomic(factors) if factors else "-")
    return "|".join(cols)
