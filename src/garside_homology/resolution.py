"""Cells, the recursive differential, and ordering optimization.

Given a structure and a total ordering of its atoms, the n-cells are the
increasing atom tuples [a1, ..., an] with a common target such that each a_i
is the least right-divisor of lcm(a_i, ..., an).  They index a free
resolution of the trivial module; the differential is defined recursively
together with a contracting homotopy (`_contracting_*`) and a reduction map
(`_reduce_elem`).  The differential is linear over the category, so it is cached
per cell; contraction and reduction are only additive, so the reduction is
cached on the one family of elementary chains the recursion actually hits:
complement[A] pairs coming from a cell [a, A].

Chains are plain dicts mapping (coefficient, cell) to a nonzero integer, with
coefficients kept canonical so that collecting terms is exact.  Inside the
recursion a coefficient is a node of the ordering's word kernel (see
gaussian.py): an int id that is the morphism itself, since the kernel
interns canonical words only.  The least divisor of a node is its last atom,
so the degree-0 contraction just walks up the trie.  Every method of
`OrderResolution`, `differential` included, takes and returns node-keyed
chains; `build_complex` spells each boundary out once, so the chains of
`CellComplex.boundaries` are keyed by `Word`.
Treat chains as immutable values: combine them with chain_iadd into fresh
accumulators, never mutate one you were given.

The caches are per resolution: cell lcms (as nodes) keyed by atom tuple,
per cell the complements x with x*lcm = lcm(a, lcm) for each atom a (so the
least divisor of f*lcm is found by dividing f, never by building f*lcm),
differentials per cell, reductions keyed by (node, cell), and per term
(w, cell) of a reduction the nodes p with p*w*lcm = lcm(a, w*lcm) for the
atoms a below the cell's first one.  The contracting homotopy acts on
reductions, and most of the terms g*w[cell] it meets are irreducible and
contract to 0: exactly those whose g is a multiple of no such p.  They are
dropped, and the others contracted from g/p, without building g*w.  The
word kernel's own memos live on the structure, one kernel per ordering.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .gaussian import (
    AtomOrdering,
    ConsistencyError,
    GaussianStructure,
    PreconditionError,
    Word,
)


class Cell(NamedTuple):
    """An ordered atom tuple satisfying the cell condition.

    `src` is the source object of the tuple's lcm; for the empty cell it is
    the object the cell sits at.
    """

    atoms: tuple[int, ...]
    src: int

    @property
    def dim(self) -> int:
        return len(self.atoms)


Chain = dict


def chain_iadd(acc: Chain, other: Chain, mult: int = 1) -> Chain:
    """acc += mult * other, dropping zero entries; returns acc."""
    if mult == 0:
        return acc
    for key, m in other.items():
        new = acc.get(key, 0) + mult * m
        if new:
            acc[key] = new
        else:
            del acc[key]
    return acc


def chain_sub(a: Chain, b: Chain) -> Chain:
    return chain_iadd(chain_iadd({}, a), b, -1)


def default_max_dim(struct: GaussianStructure) -> int:
    """Number of atoms at the busiest object, capped at 8."""
    busiest = max((len(t) for t in struct.atoms_by_target), default=0)
    return min(busiest, 8)


class OrderResolution:
    """The free resolution attached to a structure and an atom ordering.

    The recursion runs on the canonical nodes of the ordering's word kernel
    (see gaussian.py): every chain it takes or returns maps (node, cell) to
    a multiplicity, and `kernel.word` spells a node out.  All methods are
    deterministic functions of (structure, ordering); a resolution shares
    the word kernel its structure keeps for the ordering, so it must not be
    used from several threads at once.  It caches differentials per cell,
    reductions per term (node, cell), and per term the nodes that decide
    whether a multiple of it is reducible (`_lower`).  Set memo=False to
    recompute all three from scratch at each use (for cross-validation;
    much slower); cell lcms and complements are kept either way.
    """

    def __init__(
        self,
        struct: GaussianStructure,
        ordering: Optional[AtomOrdering] = None,
        max_dim: Optional[int] = None,
        memo: bool = True,
    ):
        self.struct = struct
        self.ordering = ordering if ordering is not None else struct.default_ordering()
        if len(self.ordering.ranks) != struct.n_atoms:
            raise PreconditionError("ordering does not cover the atoms")
        self.kernel = struct.kernel(self.ordering)
        self.memo = memo
        self._lcms: dict[tuple[int, ...], int] = {}  # cell atoms -> node of the cell lcm
        self._diff_cache: dict[Cell, Chain] = {}
        self._reduce_cache: dict[tuple[int, Cell], Chain] = {}
        self._complement_cache: dict[Cell, list[tuple[int, int]]] = {}
        self._lower_cache: dict[tuple[int, Cell], tuple[tuple[int, int, int, int], ...]] = {}
        if max_dim is None:
            max_dim = default_max_dim(struct)
        if max_dim < 0:
            raise PreconditionError(f"max_dim must be >= 0, got {max_dim}")
        self.max_dim = max_dim
        self.cells: list[list[Cell]] = self._enumerate(max_dim)

    # -- cells ---------------------------------------------------------------

    def zero_cell(self, obj: int) -> Cell:
        return Cell((), obj)

    def _atoms_lcm(self, atoms: tuple[int, ...]) -> int:
        """The node of the lcm of a nonempty cell's atoms."""
        lcm = self._lcms.get(atoms)
        if lcm is None:
            lcm = self.kernel.join(atoms)
            if lcm < 0:
                raise PreconditionError("cell atoms admit no common left-multiple")
            self._lcms[atoms] = lcm
        return lcm

    def make_cell(self, atoms) -> Cell:
        """Cell object for an atom tuple (the tuple must be a genuine cell)."""
        atoms = tuple(atoms)
        if not atoms:
            raise PreconditionError("zero cells need an explicit object; use zero_cell")
        return Cell(atoms, self.kernel.src[self._atoms_lcm(atoms)])

    def _cell_lcm(self, cell: Cell) -> int:
        return self._atoms_lcm(cell.atoms) if cell.atoms else cell.src

    def cell_target(self, cell: Cell) -> int:
        if cell.atoms:
            return self.struct.atom_target[cell.atoms[0]]
        return cell.src

    def _complements(self, cell: Cell) -> list[tuple[int, int]]:
        """Pairs (a, x), for the atoms a at the cell's target in increasing
        order that have a left-lcm with the cell lcm L, where x*L is that
        lcm and x is canonical.  So a right-divides f*L exactly when x
        right-divides f."""
        pairs = self._complement_cache.get(cell)
        if pairs is None:
            kernel = self.kernel
            lcm = self._cell_lcm(cell)
            pairs = []
            for a in kernel.candidates[self.cell_target(cell)]:
                x = kernel.lcm(lcm, a)
                if x >= 0:
                    pairs.append((a, x))
            self._complement_cache[cell] = pairs
        return pairs

    def _enumerate(self, max_dim: int) -> list[list[Cell]]:
        ranks = self.ordering.ranks
        kernel = self.kernel
        dims = [[self.zero_cell(x) for x in range(len(self.struct.object_names))]]
        for _ in range(max_dim):
            layer = []
            for cell in dims[-1]:
                bound = ranks[cell.atoms[0]] if cell.atoms else len(ranks)
                lcm = self._cell_lcm(cell)
                for alpha, x in self._complements(cell):
                    if ranks[alpha] >= bound:
                        break
                    # [alpha, cell] is a cell when alpha is least in x*lcm
                    joined = kernel.product(x, lcm)
                    if kernel.last[joined] == alpha:
                        new = Cell((alpha,) + cell.atoms, kernel.src[joined])
                        self._lcms[new.atoms] = joined
                        layer.append(new)
            layer.sort(key=lambda c: tuple(ranks[a] for a in c.atoms))
            dims.append(layer)
        return dims

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]

    def is_cell(self, atoms) -> bool:
        """Post hoc check of the cell condition on an atom tuple."""
        atoms = tuple(atoms)
        if not atoms:
            return True
        ranks = self.ordering.ranks
        tgt = self.struct.atom_target[atoms[0]]
        if any(self.struct.atom_target[a] != tgt for a in atoms):
            return False
        if any(ranks[atoms[i]] >= ranks[atoms[i + 1]] for i in range(len(atoms) - 1)):
            return False
        for i in range(len(atoms)):
            lcm = self.kernel.join(atoms[i:])
            if lcm < 0 or self.kernel.last[lcm] != atoms[i]:
                return False
        return True

    # -- the recursion ---------------------------------------------------------

    def _rest_cell(self, cell: Cell) -> Cell:
        rest = cell.atoms[1:]
        if not rest:
            return self.zero_cell(self.struct.atom_target[cell.atoms[0]])
        return self.make_cell(rest)

    def _act(self, g: int, chain: Chain) -> Chain:
        if g < self.struct.n_objects:
            return chain
        product = self.kernel.product
        out: Chain = {}
        for (w, cell), m in chain.items():
            key = (product(g, w), cell)
            new = out.get(key, 0) + m
            if new:
                out[key] = new
            else:
                del out[key]
        return out

    def _differential(self, cell: Cell) -> Chain:
        cached = self._diff_cache.get(cell)
        if cached is not None:
            return cached
        rest = self._rest_cell(cell)
        u = self.kernel.divide(self._cell_lcm(cell), self._cell_lcm(rest))
        if u < 0:
            raise ConsistencyError("cell lcm is not a multiple of its facet lcm")
        out: Chain = {(u, rest): 1}
        chain_iadd(out, self._reduce_elem(u, rest), -1)
        if self.memo:
            self._diff_cache[cell] = out
        return out

    def differential(self, cell: Cell) -> Chain:
        """Node-keyed boundary of a cell of dimension >= 1 (cached per cell)."""
        if not cell.atoms:
            raise PreconditionError("the boundary of a zero cell is the augmentation, not a chain")
        return self._differential(cell)

    def _boundary_chain(self, chain: Chain) -> Chain:
        """Module-linear extension of the differential to chains of dim >= 1."""
        acc: Chain = {}
        for (w, cell), m in chain.items():
            chain_iadd(acc, self._act(w, self.differential(cell)), m)
        return acc

    def augmentation(self, chain: Chain) -> int:
        """Degree-0 augmentation: every elementary 0-chain maps to 1."""
        return sum(chain.values())

    def _least_over(self, f: int, cell: Cell) -> tuple[int, int, int]:
        """(alpha, x, g) for the least atom alpha right-dividing f*lcm(cell) of
        a cell of dimension >= 1, with x as in _complements and g*x = f."""
        divide = self.kernel.divide
        for alpha, x in self._complements(cell):
            g = divide(f, x)
            if g >= 0:
                return alpha, x, g
        raise ConsistencyError("the cell's first atom does not divide its lcm")

    def _reduce_elem(self, f: int, cell: Cell) -> Chain:
        """Reduction of the elementary chain f[cell], cached when memo is on.

        The recursion reduces only complement-shaped chains, reached from
        differentials and contractions; a chain reduces term by term (the
        map is only additive, not module-linear).
        """
        if not cell.atoms:
            src = self.kernel.src[f]
            return {(src, Cell((), src)): 1}
        key = (f, cell)
        cached = self._reduce_cache.get(key)
        if cached is not None:
            return cached
        val = self._contracting_chain(self._act(f, self._differential(cell)))
        if self.memo:
            self._reduce_cache[key] = val
        return val

    def _contracting_chain(self, chain: Chain) -> Chain:
        acc: Chain = {}
        for (w, cell), m in chain.items():
            chain_iadd(acc, self._contracting_elem(w, cell), m)
        return acc

    def _contracting_elem(self, f: int, cell: Cell) -> Chain:
        kernel = self.kernel
        if not cell.atoms:
            # degree 0: telescope f down its canonical decomposition, whose
            # least divisors are the last atoms up the trie
            acc: Chain = {}
            parent, last, atom_source = kernel.parent, kernel.last, self.struct.atom_source
            while f >= kernel.n_objects:
                alpha = last[f]
                f = parent[f]
                acc[(f, Cell((alpha,), atom_source[alpha]))] = 1
            return acc
        alpha, x, g = self._least_over(f, cell)
        if alpha == cell.atoms[0]:
            return {}
        return self._contract_step(g, alpha, x, cell)

    def _contract_step(self, g: int, alpha: int, x: int, cell: Cell) -> Chain:
        """Homotopy on a reducible term (g*x)[cell] whose least divisor is
        alpha, x being alpha's complement as in _complements."""
        kernel = self.kernel
        if x < kernel.n_objects:
            raise ConsistencyError("least divisor already divides the cell lcm")
        new_cell = Cell((alpha,) + cell.atoms, kernel.src[x])
        if new_cell.atoms not in self._lcms:
            self._lcms[new_cell.atoms] = kernel.product(x, self._cell_lcm(cell))
        acc: Chain = {(g, new_cell): 1}
        chain_iadd(acc, self._act_contract(g, self._reduce_elem(x, cell)))
        return acc

    def _lower(self, w: int, cell: Cell) -> tuple[tuple[int, int, int, int], ...]:
        """For a term w[cell] of dimension >= 1, L its cell's lcm: the
        tuples (p, alpha, x, y), in increasing order of the atoms alpha
        below the cell's first atom that have a left-lcm with w*L, where
        p*w*L is that lcm, x is alpha's complement as in _complements and
        y*x = p*w.  The first atom divides L, so g*w[cell] is reducible
        exactly when some p right-divides g (cancel w*L on the right); for
        the first one, g = h*p, its least divisor is alpha and g*w = h*y*x.
        Cached per term when memo is on."""
        key = (w, cell)
        lower = self._lower_cache.get(key)
        if lower is None:
            kernel = self.kernel
            wl = kernel.product(w, self._cell_lcm(cell))
            first = cell.atoms[0]
            rows = []
            for alpha, x in self._complements(cell):
                if alpha == first:
                    break
                p = kernel.lcm(wl, alpha)
                if p >= 0:
                    y = kernel.divide(kernel.product(p, w), x)
                    if y < 0:
                        raise ConsistencyError("an lcm over a term is not a multiple of the cell's")
                    rows.append((p, alpha, x, y))
            lower = tuple(rows)
            if self.memo:
                self._lower_cache[key] = lower
        return lower

    def _act_contract(self, g: int, chain: Chain) -> Chain:
        """_contracting_chain(_act(g, chain)) for a chain of cells of
        dimension >= 1, without forming g*w: the irreducible terms
        g*w[cell] contract to 0, and the others go straight to their step."""
        divide, product = self.kernel.divide, self.kernel.product
        acc: Chain = {}
        for (w, cell), m in chain.items():
            for p, alpha, x, y in self._lower(w, cell):
                h = divide(g, p)
                if h >= 0:
                    chain_iadd(acc, self._contract_step(product(h, y), alpha, x, cell), m)
                    break
        return acc

    def check_boundary_squared(self) -> None:
        """Raise if the composite of two differentials is nonzero anywhere."""
        for n in range(2, len(self.cells)):
            for cell in self.cells[n]:
                composite = self._boundary_chain(self._differential(cell))
                if composite:
                    raise ConsistencyError(f"boundary of boundary is nonzero on {cell}")
        for cell in self.cells[1] if len(self.cells) > 1 else []:
            if self.augmentation(self._differential(cell)) != 0:
                raise ConsistencyError(f"augmented boundary is nonzero on {cell}")


@dataclass
class CellComplex:
    """Cells plus all cached differentials, ready for specialization."""

    structure: GaussianStructure
    ordering: AtomOrdering
    cells: list[list[Cell]]
    boundaries: list[dict[Cell, Chain]]
    resolution: OrderResolution

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]

    def check_facets(self) -> None:
        """Raise if a boundary meets a facet outside the enumerated cells."""
        for n in range(1, len(self.cells)):
            facets = set(self.cells[n - 1])
            for cell, chain in self.boundaries[n].items():
                for _, facet in chain:
                    if facet not in facets:
                        raise ConsistencyError(f"the boundary of {cell} meets {facet}, which is not a cell")


def build_complex(
    struct: GaussianStructure,
    ordering: Optional[AtomOrdering] = None,
    max_dim: Optional[int] = None,
    memo: bool = True,
) -> CellComplex:
    """Enumerate cells up to max_dim and compute every differential,
    spelled out with Word coefficients."""
    res = OrderResolution(struct, ordering, max_dim, memo=memo)
    word = res.kernel.word
    boundaries: list[dict[Cell, Chain]] = [{}]
    for n in range(1, len(res.cells)):
        boundaries.append({
            cell: {(word(node), facet): m for (node, facet), m in res.differential(cell).items()}
            for cell in res.cells[n]
        })
    return CellComplex(struct, res.ordering, res.cells, boundaries, res)


# -- two-cell statistics and ordering optimization -----------------------------


@dataclass
class TwoCellBounds:
    """Lower/upper bounds on the 2-cell count over all orderings."""

    per_object: dict[int, tuple[int, int]]
    lcm_stats: list[tuple[int, Word, dict[int, int]]]  # (object, lcm, atom -> partner count)
    lower: int
    upper: int


def _lcm_statistics(struct: GaussianStructure):
    """Per object: the distinct pairwise-lcm morphisms with their divisor
    atoms and partner counts n(a, lcm)."""
    kernel = struct.kernel()
    for x, atoms in enumerate(struct.atoms_by_target):
        pair_lcm = {}
        for a, b in itertools.combinations(atoms, 2):
            lcm = kernel.join((a, b))
            if lcm >= 0:
                pair_lcm[(a, b)] = lcm
        words = {lcm: kernel.word(lcm) for lcm in pair_lcm.values()}
        for lcm, word in sorted(words.items(), key=lambda kv: (len(kv[1].atoms), kv[1].atoms, kv[1].src)):
            counts = {a: 0 for a in atoms if kernel.div(lcm, a) >= 0}
            for (a, b), val in pair_lcm.items():
                if val == lcm:
                    if a not in counts or b not in counts:
                        raise ConsistencyError("a pairwise lcm is not divisible by its atoms")
                    counts[a] += 1
                    counts[b] += 1
            yield x, word, counts


def two_cell_bounds(struct: GaussianStructure) -> TwoCellBounds:
    """Sum over lcm morphisms of the min (resp. max) partner count."""
    per_object: dict[int, tuple[int, int]] = {x: (0, 0) for x in range(len(struct.object_names))}
    stats = []
    for x, lcm, counts in _lcm_statistics(struct):
        stats.append((x, lcm, counts))
        lo, hi = per_object[x]
        per_object[x] = (lo + min(counts.values()), hi + max(counts.values()))
    lower = sum(lo for lo, _ in per_object.values())
    upper = sum(hi for _, hi in per_object.values())
    return TwoCellBounds(per_object, stats, lower, upper)


def _reaches(adjacency: list[set[int]], starts, goal: int) -> bool:
    """Whether some path in the graph leads from one of starts to goal."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def optimize_ordering(struct: GaussianStructure) -> AtomOrdering:
    """Greedy search for an ordering with few 2-cells.

    Every candidate condition designates one divisor of one pairwise-lcm
    morphism as that morphism's least divisor (an edge set a < b for the
    other divisors b).  Conditions are added greedily, cheapest excess
    partner count first, as long as the accumulated relation stays acyclic;
    ties break on the lcm's canonical word and then the atom id.  Edges only
    accumulate, so a rejected condition stays rejected and one pass over the
    sorted conditions suffices; the relation stays acyclic, so a condition
    closes a cycle exactly when one of its targets b already reaches a.  The
    final partial order is refined to a total one by a topological sort with
    ascending atom ids.
    """
    conditions = []
    for x, lcm, counts in _lcm_statistics(struct):
        best = min(counts.values())
        for a, n in sorted(counts.items()):
            targets = [b for b in counts if b != a]
            conditions.append((n - best, (lcm.src, lcm.atoms), a, targets))
    conditions.sort(key=lambda c: (c[0], c[1], c[2]))

    adjacency: list[set[int]] = [set() for _ in range(struct.n_atoms)]
    settled: set[tuple] = set()
    for _, lkey, atom, targets in conditions:
        if lkey not in settled and not _reaches(adjacency, targets, atom):
            settled.add(lkey)
            adjacency[atom].update(targets)

    indegree = [0] * struct.n_atoms
    for targets in adjacency:
        for b in targets:
            indegree[b] += 1
    available = [a for a in range(struct.n_atoms) if indegree[a] == 0]
    order = []
    while available:
        a = heapq.heappop(available)
        order.append(a)
        for b in adjacency[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                heapq.heappush(available, b)
    return AtomOrdering.from_sequence(order)


def resolve_ordering(struct: GaussianStructure, mode: str) -> AtomOrdering:
    """Ordering for a run: 'auto' optimizes, 'declared' uses the structure
    file's ORDER line, 'identity' is declaration order."""
    if mode == "auto":
        return optimize_ordering(struct)
    if mode == "identity":
        return struct.default_ordering()
    if mode == "declared":
        if struct.declared_order is None:
            raise PreconditionError("structure declares no ordering")
        return struct.declared_order
    raise PreconditionError(f"unknown ordering mode {mode!r}")
