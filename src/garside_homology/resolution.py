"""Cells, the recursive differential, and ordering optimization.

Given a structure and a total ordering of its atoms, the n-cells are the
increasing atom tuples [a1, ..., an] with a common target such that each a_i
is the least right-divisor of lcm(a_i, ..., an).  They index a free
resolution of the trivial module; the differential is defined recursively
together with a contracting homotopy s (`_contract`) and a reduction map
r: the boundary of a cell [a, A] is u[A] - r(u[A]), u*lcm(A) being its
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
interns canonical words only.  Every method of `OrderResolution`,
`differential` included, takes and returns node-keyed chains, and
specialization reads them as they are: a node's length is kept in the
kernel.  Only `OrderResolution.boundaries`, a view for readers outside the
computation, spells the chains out with `Word` coefficients.  A boundary
is built in one accumulator: `_contract(g, entries, acc, mult)` adds mult
times its terms straight into the caller's chain acc, deleting entries
that cancel, and returns nothing, so each term is added once however deep
the steps nest.  The steps run off an explicit work stack, not the call
stack: a zero-cell term telescopes down its word one atom per step, so a
chain of steps can be as long as a word.  Every other chain is a value:
never mutate a chain you were given, a cached boundary least of all.

The caches are per resolution.  Enumeration writes two: per cell [a, C]
its record (lcm, u, C) with u*lcm(C) = lcm, whose u[C] leads its boundary,
and per cell C below the top dimension the atoms above it (`_above`):
(a, x, [a, C]) per atom a below C's first one (every atom at a zero
cell's object, with x = a) with x*lcm = lcm(a, lcm), [a, C] being the
enumerated cell or None, so only enumeration decides the cell
condition.  The others are differentials per cell, and per cell a
contraction has stepped onto its prepared tail (`_tail`).  The contracting
homotopy acts on a differential times a coefficient g, in every degree
alike (a 2-cell's zero-cell terms included), and most of the terms
g*w[cell] it meets are irreducible and contract to 0: exactly those whose
g is a multiple of no row's p, where p*w*lcm = lcm(a, w*lcm) for an atom a
above the cell.  They are dropped, and the others contracted from g/p,
without building g*w.  A term whose cell has an empty `_above` puts
nothing into a tail.  With x the complement enumeration recorded, p*w is
the left-lcm of w and x (from the word kernel's memos, which live on the
structure, one kernel per ordering), so a row never forms w*lcm.  A row
also holds what a step onto it needs: the rank of p's last atom, which
refuses most g without a division, the cell [a, cell] and the atoms of y =
p*w/x.  So each step pushes one item onto the work stack and walks rows
prepared once per cell.  On a table that is not Gaussian that lcm can miss
a multiple of the cell's; the row then holds no cell (x*lcm does not end
in a), and a contraction that steps onto it raises ConsistencyError.  Each
term of a reduction precedes the term it reduces, so the leading term of a
boundary survives; where a table breaks that, building the boundary raises
ConsistencyError too.  No contraction steps onto a cell of the top
enumerated dimension, so those cells get no tail.
"""

from __future__ import annotations

import functools
import heapq
import itertools
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


def default_max_dim(struct: GaussianStructure) -> int:
    """Number of atoms at the busiest object, capped at 8."""
    busiest = max((len(t) for t in struct.atoms_by_target), default=0)
    return min(busiest, 8)


class OrderResolution:
    """The free resolution attached to a structure and an atom ordering:
    the cell complex itself.

    It enumerates its cells up to max_dim on construction (`cells`, one
    layer per dimension, empty layers included) and computes each boundary
    on first request (`differential`; `build_complex` computes them all).
    The recursion runs on the canonical nodes of the ordering's word kernel
    (see gaussian.py): every chain it takes or returns maps (node, cell) to
    a multiplicity, and `kernel.word` spells a node out.  All methods are
    deterministic functions of (structure, ordering); a resolution shares
    the word kernel its structure keeps for the ordering, so it must not be
    used from several threads at once.  It keeps per enumerated cell
    [a, C] its record (lcm, u, C) with u*lcm(C) = lcm (`_cells`), per cell
    below the top dimension the atoms above it and the cells they make
    (`_above`, both written by enumeration), differentials per cell (a
    reduction is read off the differential of the cell it leads), and per
    cell below the top dimension that a contraction steps onto, its
    boundary's tail as the rows that decide whether a multiple of a term is
    reducible and where its contraction steps (`_lower`, `_tail`).
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
        self._cells: dict[tuple[int, ...], tuple[int, int, Cell]] = {}  # atoms of [alpha, C] -> (lcm, u, C)
        # cell C below the top dimension -> (alpha, x, [alpha, C] or None) per atom
        # alpha below C's first atom with x*lcm(C) = lcm(alpha, lcm(C)), by rank
        self._above: dict[Cell, tuple[tuple[int, int, Optional[Cell]], ...]] = {}
        self._diff_cache: dict[Cell, Chain] = {}
        self._tails: dict[Cell, tuple] = {}
        if max_dim is None:
            max_dim = default_max_dim(struct)
        if max_dim < 0:
            raise PreconditionError(f"max_dim must be >= 0, got {max_dim}")
        self.max_dim = max_dim
        self.cells: list[list[Cell]] = self._enumerate(max_dim)

    def __repr__(self):
        return f"OrderResolution({self.struct!r}, {self.ordering!r}, max_dim={self.max_dim})"

    # -- cells ---------------------------------------------------------------

    def zero_cell(self, obj: int) -> Cell:
        return Cell((), obj)

    def make_cell(self, atoms) -> Cell:
        """The enumerated cell with these atoms; PreconditionError for a
        tuple that is not a cell of dimension at most max_dim."""
        atoms = tuple(atoms)
        if not atoms:
            raise PreconditionError("zero cells need an explicit object; use zero_cell")
        record = self._cells.get(atoms)
        if record is None:
            raise PreconditionError(f"{atoms} is not an enumerated cell")
        return Cell(atoms, self.kernel.src[record[0]])

    def _cell_lcm(self, cell: Cell) -> int:
        return self._cells[cell.atoms][0] if cell.atoms else cell.src

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
                above = []
                for alpha in kernel.candidates[self.cell_target(cell)]:
                    if ranks[alpha] >= bound:
                        break
                    xy = kernel.lcm(lcm, alpha)
                    if xy is None:
                        continue
                    # x*lcm = y*alpha; [alpha, cell] is a cell when alpha is
                    # least in it
                    x, y = xy
                    joined = kernel.mul(y, alpha)
                    new = None
                    if kernel.last[joined] == alpha:
                        new = Cell((alpha,) + cell.atoms, kernel.src[joined])
                        self._cells[new.atoms] = (joined, x, cell)
                        layer.append(new)
                    above.append((alpha, x, new))
                self._above[cell] = tuple(above)
            layer.sort(key=lambda c: tuple(ranks[a] for a in c.atoms))
            dims.append(layer)
        return dims

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]

    # -- the recursion ---------------------------------------------------------

    def _differential(self, cell: Cell) -> Chain:
        cached = self._diff_cache.get(cell)
        if cached is not None:
            return cached
        _, u, rest = self._cells[cell.atoms]
        out: Chain = {(u, rest): 1}
        if rest.atoms:
            # the boundary of rest leads with a term whose cell has rest's
            # first atom above it, so the tail's filter would not drop it
            w, facet = next(iter(self._differential(rest)))
            self._contract(u, ((1, self._lower(w, facet)),) + self._tail(rest), out, -1)
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

    def _lower(self, w: int, cell: Cell) -> tuple[tuple[int, int, Optional[Cell], tuple[int, ...]], ...]:
        """For a term w[cell], L its cell's lcm: one row (p, rank,
        new_cell, ys) per entry (alpha, x, new_cell) of the cell's `_above`
        whose x has a left-lcm with w, in increasing order of alpha, where
        p*w*L = lcm(alpha, w*L), y*x = p*w, ys are y's atoms and rank is
        the rank of p's last atom (-1 when p is an identity).  The first
        atom divides L, so g*w[cell] is reducible exactly when some p
        right-divides g (cancel w*L on the right); for the first one, g =
        h*p, its least divisor is alpha and g*w = h*y*x.  For a zero cell L
        is the identity and x = alpha, one row per atom at its object, so
        some p divides g exactly when g*w is not an identity.  Any common
        multiple of alpha and w*L is one of x*L, so lcm(alpha, w*L) =
        lcm(x, w)*L, and p*w = y*x = lcm(w, x) gives both p and y without
        forming w*L."""
        kernel = self.kernel
        parent, last, ranks, n_objects = kernel.parent, kernel.last, self.ordering.ranks, kernel.n_objects
        rows = []
        for _, x, new_cell in self._above[cell]:
            py = kernel.left_lcm(w, x)
            if py is None:
                continue
            p, y = py
            ys = []
            while y >= n_objects:
                ys.append(last[y])
                y = parent[y]
            rank = ranks[last[p]] if p >= n_objects else -1
            rows.append((p, rank, new_cell, tuple(reversed(ys))))
        return tuple(rows)

    def _tail(self, cell: Optional[Cell]) -> tuple[tuple[int, tuple], ...]:
        """The prepared tail of a cell of dimension >= 1 that a contraction
        steps onto: (multiplicity, rows of `_lower`) per term of its
        boundary after the leading one, leaving out the terms whose cell
        has no atom above it (no entry in `_above`: irreducible whatever
        multiplies them).  Built on the first step onto the cell.  A step
        onto a tuple that enumeration did not make a cell raises
        ConsistencyError."""
        tail = self._tails.get(cell)
        if tail is None:
            if cell is None:
                raise ConsistencyError("an lcm over a term is not a multiple of the cell's")
            above, lower = self._above, self._lower
            terms = itertools.islice(self._differential(cell).items(), 1, None)
            tail = self._tails[cell] = tuple((m, lower(w, c)) for (w, c), m in terms if above[c])
        return tail

    def _contract(self, g: int, entries: tuple, acc: Chain, mult: int) -> None:
        """Add mult times the contracting homotopy of g times a chain, given
        as prepared entries (see `_tail`), to acc, term by term; g*w is not
        formed.  A term contracts to 0 when no p of its rows right-divides
        g.  A p whose last atom ranks below g's cannot, so that row is
        skipped in place; an identity p divides every g.  With g = h*p for
        the first p that does, the term is (h*y*x)[C], alpha its least
        divisor: it contracts to (h*y)[alpha, C] plus the contraction of
        h*y times the reduction of x[C], which is x[C] minus the boundary
        of [alpha, C]: that cell's tail, negated.  Each (g, entries, mult)
        is one item of a work stack, and a step pushes (h*y, that tail,
        -step) rather than recursing, so the steps take no frames however
        long their chain; a step onto a cell with an empty tail pushes
        nothing."""
        kernel = self.kernel
        ranks, last, divide, mul, memo, n = kernel.ranks, kernel.last, kernel.divide, kernel.mul, kernel._mul, kernel.n_atoms
        tails = self._tails
        todo = [(g, entries, mult)]
        while todo:
            g, entries, mult = todo.pop()
            g_rank = ranks[last[g]]  # an identity g reads an arbitrary rank; divide then refuses
            quotients: dict[int, int] = {}  # p -> g/p or -1
            for m, rows in entries:
                for p, rank, cell, ys in rows:
                    if rank < g_rank:
                        if rank >= 0:
                            continue
                        h = g
                    else:
                        h = quotients.get(p)
                        if h is None:
                            h = quotients[p] = divide(g, p)
                        if h < 0:
                            continue
                    tail = tails.get(cell)
                    if tail is None:
                        tail = self._tail(cell)
                    for b in ys:
                        h = memo[h * n + b] or mul(h, b)
                    step = m * mult
                    key = (h, cell)
                    new = acc.get(key, 0) + step
                    if new:
                        acc[key] = new
                    else:
                        del acc[key]
                    if tail:
                        todo.append((h, tail, -step))
                    break

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


class TwoCellBounds(NamedTuple):
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
