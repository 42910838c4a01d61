"""Cells, the recursive differential, and ordering optimization.

Given a structure and a total ordering of its atoms, the n-cells are the
increasing atom tuples [a1, ..., an] with a common target such that each a_i
is the least right-divisor of lcm(a_i, ..., an).  They index a free
resolution of the trivial module; the differential is defined recursively
together with a contracting homotopy s (`_act_contract`) and a reduction
map r: the boundary of a cell [a, A] is u[A] - r(u[A]), u*lcm(A) being its
lcm, and r(u[A]) is the contraction of u times the boundary of A (the class
of u's source when A is a zero cell).  The recursion reduces only such
complement terms u[A], each the leading term of the cell it comes from, so
a reduction is read off that cell's boundary as u[A] minus it, and the
boundary, which is linear over the category, is the one chain kept per
cell.

Chains are plain dicts mapping (coefficient, cell) to a nonzero integer, with
coefficients kept canonical so that collecting terms is exact.  Inside the
recursion a coefficient is a node of the ordering's word kernel (see
gaussian.py): an int id that is the morphism itself, since the kernel
interns canonical words only.  The least divisor of a node is its last atom,
so the degree-0 contraction just walks up the trie.  Every method of
`OrderResolution`, `differential` included, takes and returns node-keyed
chains, and specialization reads them as they are: a node's length is
kept in the kernel.  Only `OrderResolution.boundaries`, a view for readers
outside the computation, spells the chains out with `Word` coefficients.
A boundary is built in one accumulator: `_act_contract(g, items, acc, mult)`
and `_contract_step` add mult times their terms straight into the caller's
chain acc, deleting entries that cancel, and return nothing, so each term
is added once however deep the steps nest.  Every other chain is a value:
never mutate a chain you were given, a cached boundary least of all.

The caches are per resolution: cell lcms (as nodes) keyed by atom tuple,
written only by enumeration, differentials per cell, and per term
(w, cell) the nodes p with p*w*lcm = lcm(a, w*lcm) for the atoms a below
the cell's first one.  The contracting homotopy acts on a differential
times a coefficient g, and most of the terms g*w[cell] it meets are
irreducible and contract to 0: exactly those whose g is a multiple of no
such p.  They are dropped, and the others contracted from g/p, without
building g*w.  A cell whose first atom is the least at its target has no
atom below it, so its terms are dropped before the cache is consulted.
With x*lcm = lcm(a, lcm) the complement, which comes from the word
kernel's own memos (they live on the structure, one kernel per ordering),
p*w is the left-lcm of w and x, so a row never forms w*lcm.  On a table
that is not Gaussian that lcm can miss a multiple of the cell's; the
contraction step then meets a tuple [a, cell] that enumeration did not
make a cell (x*lcm does not end in a), and raises ConsistencyError.  Each
term of a reduction precedes the term it reduces, so the leading term of a
boundary survives; where a table breaks that, building the boundary raises
ConsistencyError too.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

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


def default_max_dim(struct: GaussianStructure) -> int:
    """Number of atoms at the busiest object, capped at 8."""
    busiest = max((len(t) for t in struct.atoms_by_target), default=0)
    return min(busiest, 8)


class OrderResolution:
    """The free resolution attached to a structure and an atom ordering:
    the cell complex itself.

    It enumerates its cells up to max_dim on construction (`cells`, one
    layer per dimension, empty layers included), computes each boundary on
    first request (`differential`; `build_complex` computes them all), and
    checks them (`check_facets`, `check_boundary_squared`).  The recursion
    runs on the canonical nodes of the ordering's word kernel (see
    gaussian.py): every chain it takes or returns maps (node, cell) to a
    multiplicity, and `kernel.word` spells a node out.  All methods are
    deterministic functions of (structure, ordering); a resolution shares
    the word kernel its structure keeps for the ordering, so it must not be
    used from several threads at once.  It caches the lcm of each
    enumerated cell, differentials per cell (a reduction is read off the
    differential of the cell it leads), and per term the nodes that decide
    whether a multiple of it is reducible (`_lower`).
    """

    def __init__(
        self,
        struct: GaussianStructure,
        ordering: Optional[AtomOrdering] = None,
        max_dim: Optional[int] = None,
    ):
        self.struct = struct
        self.ordering = ordering if ordering is not None else struct.default_ordering()
        if len(self.ordering.ranks) != struct.n_atoms:
            raise PreconditionError("ordering does not cover the atoms")
        self.kernel = struct.kernel(self.ordering)
        # per atom: whether it is the least atom at its target
        self._least_at_target = [
            self.kernel.candidates[target][0] == a for a, target in enumerate(struct.atom_target)
        ]
        # per atom a, the 1-cell [a]; the zero-cell contraction steps onto it
        self._atom_cells = [Cell((a,), src) for a, src in enumerate(struct.atom_source)]
        self._lcms: dict[tuple[int, ...], int] = {}  # cell atoms -> node of the cell lcm
        self._diff_cache: dict[Cell, Chain] = {}
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

    def make_cell(self, atoms) -> Cell:
        """The enumerated cell with these atoms; PreconditionError for a
        tuple that is not a cell of dimension at most max_dim."""
        atoms = tuple(atoms)
        if not atoms:
            raise PreconditionError("zero cells need an explicit object; use zero_cell")
        lcm = self._lcms.get(atoms)
        if lcm is None:
            raise PreconditionError(f"{atoms} is not an enumerated cell")
        return Cell(atoms, self.kernel.src[lcm])

    def _cell_lcm(self, cell: Cell) -> int:
        return self._lcms[cell.atoms] if cell.atoms else cell.src

    def cell_target(self, cell: Cell) -> int:
        if cell.atoms:
            return self.struct.atom_target[cell.atoms[0]]
        return cell.src

    def _enumerate(self, max_dim: int) -> list[list[Cell]]:
        ranks = self.ordering.ranks
        kernel = self.kernel
        dims = [[self.zero_cell(x) for x in range(len(self.struct.object_names))]]
        for _ in range(max_dim):
            layer = []
            for cell in dims[-1]:
                bound = ranks[cell.atoms[0]] if cell.atoms else len(ranks)
                lcm = self._cell_lcm(cell)
                for alpha in kernel.candidates[self.cell_target(cell)]:
                    if ranks[alpha] >= bound:
                        break
                    x = kernel.lcm(lcm, alpha)
                    if x < 0:
                        continue
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
        if rest.atoms:
            self._act_contract(u, self._differential(rest).items(), out, -1)
        else:
            src = self.kernel.src[u]
            out[(src, self.zero_cell(src))] = -1
        # every term of the reduction precedes u[rest], so it stays first
        if next(iter(out.items()), None) != ((u, rest), 1):
            raise ConsistencyError("the boundary of a cell lost its leading term; lcm table is inconsistent")
        self._diff_cache[cell] = out
        return out

    def differential(self, cell: Cell) -> Chain:
        """Node-keyed boundary of an enumerated cell of dimension >= 1
        (cached per cell)."""
        if not cell.atoms:
            raise PreconditionError("the boundary of a zero cell is the augmentation, not a chain")
        if self.make_cell(cell.atoms) != cell:
            raise PreconditionError(f"{cell} is not an enumerated cell")
        return self._differential(cell)

    def _boundary_chain(self, chain: Chain) -> Chain:
        """Module-linear extension of the differential to chains of dim >= 1."""
        acc: Chain = {}
        for (w, cell), m in chain.items():
            chain_iadd(acc, self._act(w, self.differential(cell)), m)
        return acc

    def _contract_step(self, g: int, alpha: int, x: int, cell: Cell, acc: Chain, mult: int) -> None:
        """Add mult times the homotopy on a reducible term (g*x)[cell] to
        acc, alpha being its least divisor and x alpha's complement:
        x*lcm(cell) = lcm(alpha, lcm(cell)).  It is g[alpha, cell] plus the
        contraction of g times the reduction of x[cell], which is x[cell]
        minus the boundary of [alpha, cell]: the boundary's terms after its
        leading one, negated."""
        new_cell = Cell((alpha,) + cell.atoms, self.kernel.src[x])
        if new_cell.atoms not in self._lcms:
            raise ConsistencyError("an lcm over a term is not a multiple of the cell's")
        key = (g, new_cell)
        new = acc.get(key, 0) + mult
        if new:
            acc[key] = new
        else:
            del acc[key]
        tail = itertools.islice(self._differential(new_cell).items(), 1, None)
        self._act_contract(g, tail, acc, -mult)

    def _lower(self, w: int, cell: Cell) -> tuple[tuple[int, int, int, int], ...]:
        """For a term w[cell] of dimension >= 1, L its cell's lcm: the
        tuples (p, alpha, x, y), in increasing order of the atoms alpha
        below the cell's first atom that have a left-lcm with w*L, where
        p*w*L is that lcm, x*L = lcm(alpha, L) and y*x = p*w.  The first
        atom divides L, so g*w[cell] is reducible exactly when some p
        right-divides g (cancel w*L on the right); for the first one,
        g = h*p, its least divisor is alpha and g*w = h*y*x.  Any common
        multiple of alpha and w*L is one of x*L, so lcm(alpha, w*L) =
        lcm(x, w)*L, and p*w = y*x = lcm(w, x) gives both p and y without
        forming w*L.  Cached per term."""
        key = (w, cell)
        lower = self._lower_cache.get(key)
        if lower is None:
            kernel = self.kernel
            lcm = self._cell_lcm(cell)
            first = cell.atoms[0]
            rows = []
            for alpha in kernel.candidates[self.cell_target(cell)]:
                if alpha == first:
                    break
                x = kernel.lcm(lcm, alpha)
                if x >= 0:
                    py = kernel.left_lcm(w, x)
                    if py is not None:
                        rows.append((py[0], alpha, x, py[1]))
            lower = tuple(rows)
            self._lower_cache[key] = lower
        return lower

    def _act_contract(self, g: int, items: Iterable, acc: Chain, mult: int) -> None:
        """Add mult times the contracting homotopy of g times a chain, given
        by its items, to acc, term by term.  On a zero cell g*w telescopes
        down its canonical decomposition, whose least divisors are the last
        atoms up the trie.  Otherwise g*w is not formed: the irreducible
        terms contract to 0, and the others go straight to their step.  A
        term whose cell starts with the least atom at its target is
        irreducible whatever g is, and g is tested against each distinct p
        once."""
        kernel = self.kernel
        divide, product, n_objects = kernel.divide, kernel.product, kernel.n_objects
        parent, last, atom_cells = kernel.parent, kernel.last, self._atom_cells
        least = self._least_at_target
        quotients: dict[int, int] = {}  # p -> g/p or -1
        for (w, cell), m in items:
            if not cell.atoms:
                m *= mult
                f = product(g, w)
                while f >= n_objects:
                    key = (parent[f], atom_cells[last[f]])
                    new = acc.get(key, 0) + m
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
                    f = parent[f]
                continue
            if least[cell.atoms[0]]:
                continue
            for p, alpha, x, y in self._lower(w, cell):
                h = quotients.get(p)
                if h is None:
                    h = quotients[p] = divide(g, p)
                if h >= 0:
                    self._contract_step(product(h, y), alpha, x, cell, acc, m * mult)
                    break

    def check_boundary_squared(self) -> None:
        """Raise if the composite of two differentials is nonzero anywhere."""
        for n in range(2, len(self.cells)):
            for cell in self.cells[n]:
                composite = self._boundary_chain(self._differential(cell))
                if composite:
                    raise ConsistencyError(f"boundary of boundary is nonzero on {cell}")
        for cell in self.cells[1] if len(self.cells) > 1 else []:
            if sum(self._differential(cell).values()):  # the augmentation maps 0-cells to 1
                raise ConsistencyError(f"augmented boundary is nonzero on {cell}")

    def check_facets(self) -> None:
        """Raise if a boundary meets a facet outside the enumerated cells."""
        for n in range(1, len(self.cells)):
            facets = set(self.cells[n - 1])
            for cell in self.cells[n]:
                for _, facet in self.differential(cell):
                    if facet not in facets:
                        raise ConsistencyError(f"the boundary of {cell} meets {facet}, which is not a cell")

    @functools.cached_property
    def boundaries(self) -> list[dict[Cell, Chain]]:
        """Per dimension n, each n-cell's boundary with its coefficients
        spelled out as `Word`s (index 0 is empty); spelled on first read.
        Its one reader is the benchmark's tracing
        (`perfbench/tracing.py::_observe_complex`); the computation reads
        the node-keyed `differential`."""
        word, differential = self.kernel.word, self.differential
        return [{}] + [
            {cell: {(word(w), facet): m for (w, facet), m in differential(cell).items()} for cell in layer}
            for layer in self.cells[1:]
        ]


def build_complex(
    struct: GaussianStructure,
    ordering: Optional[AtomOrdering] = None,
    max_dim: Optional[int] = None,
) -> OrderResolution:
    """The resolution with cells up to max_dim and every differential computed."""
    res = OrderResolution(struct, ordering, max_dim)
    for cell in itertools.chain.from_iterable(res.cells[1:]):
        res.differential(cell)
    return res


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
