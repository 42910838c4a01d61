"""Locally left-Gaussian categories presented by atoms and left-lcm tables.

A structure is a finite presentation of a right-cancellative, right-Noetherian
category with conditional left-lcms: its objects, its atoms (each with a
source, a target and a positive length), and, for every unordered pair of
atoms sharing a target, either a left-lcm witness or the fact that the pair
has no common left-multiple.

Morphisms are composable words of atoms.  Composition reads left to right:
the word (a, b) means "a then b", so target(a) = source(b).  All divisibility
below is on the right: g right-divides f when f = h*g for some h.  The word
problem is solved by reversing against the lcm table; to divide h*b by an
atom a one looks up lcm(a, b) = x*a = y*b, divides h by y atom by atom, and
appends x.  Left-lcms are reversed the same way: the lcm of u*c and an atom
b is lcm(u, y)*c, with y*c = x*b the table's lcm of b and c.

Inside, morphisms are canonical words: under an atom ordering, canon(f) =
canon(f/a)*a with a the least atom right-dividing f.  Canonical words are
closed under prefixes, so each ordering has a `WordKernel` holding them in a
prefix trie of int ids, where the last atom of a node is its least divisor.
Its three primitives, `div` (divide by an atom), `mul` (multiply by an atom)
and `lcm` (left-lcm with an atom), return canonical nodes; `mul` and `lcm`
are memoized, `div` is recomputed on every call.  Interning a word folds
`mul` over it, `join` folds `lcm` over a set of atoms, and `left_lcm`
folds it over the atoms of a second node.  The four
`Word` methods `quotient_atom`, `least_divisor`, `canonical_form` and
`lcm_with_atom` are adapters that intern their argument in
`kernel(ordering)` (declaration order when none is given) and spell out the
result, so `quotient_atom` returns the canonical quotient; everything else
works on the kernel's nodes.  The kernel's trie and memos grow for the
structure's lifetime and assign ids in insertion order, so a structure must
not be used from several threads at once.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence


class GaussianError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(GaussianError):
    """An operation was called on arguments violating its contract."""


class ConsistencyError(GaussianError):
    """The structure data contradicts itself (bad lcm table or ordering)."""


class Word(NamedTuple):
    """A composable sequence of atom ids, read left to right.

    The source object is stored explicitly so that empty words (identity
    morphisms) know where they live.
    """

    src: int
    atoms: tuple[int, ...]


class AtomOrdering:
    """A total order on atom ids, given by a rank for every atom.

    Restricting the order to the atoms at one target gives the linear
    ordering that cell enumeration and least-divisor extraction use.
    """

    __slots__ = ("ranks",)

    def __init__(self, ranks: Sequence[int]):
        ranks = tuple(ranks)
        if sorted(ranks) != list(range(len(ranks))):
            raise PreconditionError("ordering ranks must be a permutation of 0..n-1")
        self.ranks = ranks

    @classmethod
    def identity(cls, n_atoms: int) -> "AtomOrdering":
        return cls(range(n_atoms))

    @classmethod
    def from_sequence(cls, atoms_in_order: Sequence[int]) -> "AtomOrdering":
        n = len(atoms_in_order)
        if sorted(atoms_in_order) != list(range(n)):
            raise PreconditionError("ordering must list every atom exactly once")
        ranks = [0] * n
        for rank, atom in enumerate(atoms_in_order):
            ranks[atom] = rank
        return cls(ranks)

    def rank(self, atom: int) -> int:
        return self.ranks[atom]

    def sorted_atoms(self, atoms) -> list[int]:
        return sorted(atoms, key=self.ranks.__getitem__)

    def __eq__(self, other):
        return isinstance(other, AtomOrdering) and self.ranks == other.ranks

    def __hash__(self):
        return hash(self.ranks)

    def __repr__(self):
        order = sorted(range(len(self.ranks)), key=self.ranks.__getitem__)
        return f"AtomOrdering({order})"


class ValidationReport:
    """Outcome of the bounded structure sanity check."""

    def __init__(self, violations: list[str]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"ValidationReport({status})"


# Safety valve for lcm reversing on corrupted tables: it is guaranteed to
# terminate only for genuinely Gaussian input.  A kernel counts the lcms it
# computes (its memo misses) and gives up past this many.
_FOLD_STEP_LIMIT = 2_000_000


class GaussianStructure:
    """Immutable presentation data with word arithmetic on top.

    Construction takes name-based data (mirroring the interchange file
    format) and resolves it to dense integer ids.  Cheap structural checks
    (referential integrity, composability, table coverage) run here; the
    deeper semantic checks live in :meth:`validate`.
    """

    def __init__(
        self,
        objects: Sequence[str],
        atoms: Sequence[tuple[str, str, str, int]],
        lcms: Sequence[tuple],
        basepoint: Optional[str] = None,
        path_lengths: Optional[dict] = None,
        declared_order: Optional[Sequence[str]] = None,
        label: str = "",
    ):
        self.object_names = list(objects)
        if len(set(self.object_names)) != len(self.object_names):
            raise PreconditionError("duplicate object names")
        self.object_index = {name: i for i, name in enumerate(self.object_names)}

        self.atom_names: list[str] = []
        self.atom_source: list[int] = []
        self.atom_target: list[int] = []
        self.atom_length: list[int] = []
        seen_atom_names: set[str] = set()
        for name, src, tgt, length in atoms:
            if name in seen_atom_names:
                raise PreconditionError(f"duplicate atom name {name!r}")
            seen_atom_names.add(name)
            if src not in self.object_index:
                raise PreconditionError(f"atom {name!r} references unknown object {src!r}")
            if tgt not in self.object_index:
                raise PreconditionError(f"atom {name!r} references unknown object {tgt!r}")
            if length < 1:
                raise PreconditionError(f"atom {name!r} must have length >= 1")
            self.atom_names.append(name)
            self.atom_source.append(self.object_index[src])
            self.atom_target.append(self.object_index[tgt])
            self.atom_length.append(length)
        self.atom_index = {name: i for i, name in enumerate(self.atom_names)}
        self.n_atoms = len(self.atom_names)

        self.atoms_by_target: list[tuple[int, ...]] = [
            tuple(a for a in range(self.n_atoms) if self.atom_target[a] == x)
            for x in range(len(self.object_names))
        ]

        # _lcm_table[a * n_atoms + b], for distinct atoms a, b at one target,
        # is None (no common left-multiple) or the pair (comp_a, comp_b) of
        # words with comp_a*a = comp_b*b = lcm; both orientations are stored.
        n = self.n_atoms
        self._lcm_table: dict[int, Optional[tuple[Word, Word]]] = {}
        for item in lcms:
            a_name, b_name, comps = item
            if a_name not in self.atom_index or b_name not in self.atom_index:
                raise PreconditionError(f"lcm entry references unknown atom ({a_name!r}, {b_name!r})")
            a, b = self.atom_index[a_name], self.atom_index[b_name]
            if a == b:
                raise PreconditionError(f"lcm entry for atom {a_name!r} with itself")
            if self.atom_target[a] != self.atom_target[b]:
                raise PreconditionError(f"lcm entry for atoms with different targets ({a_name!r}, {b_name!r})")
            if a * n + b in self._lcm_table:
                raise PreconditionError(f"duplicate lcm entry for ({a_name!r}, {b_name!r})")
            if comps is None:
                self._lcm_table[a * n + b] = self._lcm_table[b * n + a] = None
                continue
            wa_names, wb_names = comps
            wa = self._resolve_word(wa_names, endpoint=a, context=f"LCM({a_name},{b_name})")
            wb = self._resolve_word(wb_names, endpoint=b, context=f"LCM({a_name},{b_name})")
            self._lcm_table[a * n + b] = (wa, wb)
            self._lcm_table[b * n + a] = (wb, wa)

        for x in range(len(self.object_names)):
            here = self.atoms_by_target[x]
            for i in range(len(here)):
                for j in range(i + 1, len(here)):
                    if here[i] * n + here[j] not in self._lcm_table:
                        raise PreconditionError(
                            "missing lcm entry for atoms "
                            f"({self.atom_names[here[i]]!r}, {self.atom_names[here[j]]!r})"
                        )

        self.basepoint: Optional[int] = None
        if basepoint is not None:
            if basepoint not in self.object_index:
                raise PreconditionError(f"unknown basepoint object {basepoint!r}")
            self.basepoint = self.object_index[basepoint]

        self.path_lengths: Optional[tuple[int, ...]] = None
        if path_lengths is not None:
            lengths = [None] * len(self.object_names)
            for obj, val in path_lengths.items():
                if obj not in self.object_index:
                    raise PreconditionError(f"path length for unknown object {obj!r}")
                lengths[self.object_index[obj]] = val
            if any(v is None for v in lengths):
                raise PreconditionError("path lengths must cover every object")
            if self.basepoint is None:
                raise PreconditionError("path lengths require a basepoint")
            if lengths[self.basepoint] != 0:
                raise PreconditionError("basepoint must have path length 0")
            self.path_lengths = tuple(lengths)

        self.declared_order: Optional[AtomOrdering] = None
        if declared_order is not None:
            ids = []
            for name in declared_order:
                if name not in self.atom_index:
                    raise PreconditionError(f"declared order references unknown atom {name!r}")
                ids.append(self.atom_index[name])
            self.declared_order = AtomOrdering.from_sequence(ids)

        self.label = label

        self.n_objects = len(self.object_names)
        self._kernels: dict[tuple, WordKernel] = {}  # ordering ranks -> kernel
        self._default_ordering = AtomOrdering.identity(self.n_atoms)

    def _resolve_word(self, names: Sequence[str], endpoint: int, context: str) -> Word:
        """Resolve a complement word; endpoint is the atom it gets composed with."""
        ids = []
        for name in names:
            if name not in self.atom_index:
                raise PreconditionError(f"{context}: unknown atom {name!r} in complement")
            ids.append(self.atom_index[name])
        src = self.atom_source[ids[0]] if ids else self.atom_source[endpoint]
        word = Word(src, tuple(ids))
        if self._check_word(word) != self.atom_source[endpoint]:
            raise PreconditionError(f"{context}: complement does not compose with its atom")
        return word

    def _check_word(self, w: Word) -> int:
        """The target of w; PreconditionError if it does not compose."""
        at = w.src
        for a in w.atoms:
            if self.atom_source[a] != at:
                raise PreconditionError(f"word {w} is not composable")
            at = self.atom_target[a]
        return at

    # -- basic word bookkeeping ------------------------------------------

    def identity(self, obj: int) -> Word:
        return Word(obj, ())

    def word(self, atoms: Sequence[int], src: Optional[int] = None) -> Word:
        atoms = tuple(atoms)
        if src is None:
            if not atoms:
                raise PreconditionError("empty word needs an explicit source object")
            src = self.atom_source[atoms[0]]
        w = Word(src, atoms)
        self._check_word(w)
        return w

    def word_from_names(self, names: Sequence[str], src_name: Optional[str] = None) -> Word:
        ids = [self.atom_index[n] for n in names]
        src = None if src_name is None else self.object_index[src_name]
        return self.word(ids, src)

    def word_length(self, w: Word) -> int:
        return sum(self.atom_length[a] for a in w.atoms)

    def word_names(self, w: Word) -> list[str]:
        return [self.atom_names[a] for a in w.atoms]

    def default_ordering(self) -> AtomOrdering:
        return self._default_ordering

    # -- division by reversing -------------------------------------------

    def _entry_violations(self) -> list[str]:
        """One message per lcm entry the word kernel refuses: one with an
        empty complement (comp_a empty says lcm(a, b) = a, so b divides the
        atom a), or one whose sides comp_a*a and comp_b*b have different
        lengths."""
        length = self.atom_length
        violations = []
        for a, b, pair in self.lcm_entries():
            if pair is None:
                continue
            entry = f"LCM({self.atom_names[a]},{self.atom_names[b]})"
            comp_a, comp_b = pair
            if not comp_a.atoms or not comp_b.atoms:
                violations.append(f"{entry}: empty complement, so one atom divides the other")
            elif self.word_length(comp_a) + length[a] != self.word_length(comp_b) + length[b]:
                violations.append(f"{entry}: sides have different lengths")
        return violations

    def lcm_entries(self) -> list[tuple[int, int, Optional[tuple[Word, Word]]]]:
        """The table as (a, b, entry) with a < b, sorted; entry is None (no
        common left-multiple) or the complements (comp_a, comp_b) with
        comp_a*a = comp_b*b the left-lcm."""
        n = self.n_atoms
        return sorted(
            (key // n, key % n, pair) for key, pair in self._lcm_table.items() if key // n < key % n
        )

    def quotient_atom(self, w: Word, a: int) -> Optional[Word]:
        """The canonical word g (default ordering) with g*a = w, or None when
        a does not right-divide w."""
        kernel = self.kernel()
        q = kernel.div(kernel.intern(w), a)
        return None if q < 0 else kernel.word(q)

    # -- lcms -----------------------------------------------------------------

    def lcm_with_atom(self, u: Word, b: int) -> Optional[tuple[Word, Word]]:
        """(x, y) with x*u = y*b the left-lcm of u and the atom b, as
        canonical words (declaration order); None when there is none."""
        kernel = self.kernel()
        node = kernel.intern(u)
        x = kernel.lcm(node, b)
        if x < 0:
            return None
        return kernel.word(x), kernel.word(kernel.exact_div(kernel.product(x, node), b))

    # -- canonical forms ----------------------------------------------------

    def kernel(self, ordering: Optional[AtomOrdering] = None) -> "WordKernel":
        """The canonical words and their arithmetic under an ordering
        (default: declaration order)."""
        ordering = ordering or self._default_ordering
        kernel = self._kernels.get(ordering.ranks)
        if kernel is None:
            kernel = self._kernels[ordering.ranks] = WordKernel(self, ordering)
        return kernel

    def least_divisor(self, f: Word, ordering: Optional[AtomOrdering] = None) -> int:
        """The least atom, in the ordering, right-dividing the nonempty word f."""
        if not f.atoms:
            raise PreconditionError("identity words have no atom divisors")
        kernel = self.kernel(ordering)
        return kernel.last[kernel.intern(f)]

    def canonical_form(self, f: Word, ordering: Optional[AtomOrdering] = None) -> Word:
        """Canonical representative: repeatedly strip the least right-divisor."""
        kernel = self.kernel(ordering)
        return kernel.word(kernel.intern(f))

    # -- validation ----------------------------------------------------------

    def validate(self, depth: int = 3) -> ValidationReport:
        """Bounded sanity check of the lcm table.

        Checks entry symmetry, nonempty complements and length homogeneity,
        then the consistency of lcm folds over all atom subsets of size up
        to `depth` at a common target: every fold order must succeed and
        give the same lcm.  Once one order has given an lcm L, the others
        stop as failed on reversing a node longer than L, which no fold of
        a Gaussian table does.  When the folds pass, it builds the complex
        under declaration order up to dimension `depth` (at most
        `default_max_dim`) and checks that every boundary stays on the
        enumerated cells and that d∘d = 0.  A passing report is evidence,
        not proof, that the structure is Gaussian.
        """
        if depth < 1:
            raise PreconditionError("depth must be positive")
        violations = self._entry_violations()
        if violations:  # the word kernel refuses such tables
            return ValidationReport(violations)
        kernel = self.kernel()
        for a, b, pair in self.lcm_entries():
            names = (self.atom_names[a], self.atom_names[b])
            if pair is None:
                continue
            comp_a, comp_b = pair
            wa = Word(comp_a.src, comp_a.atoms + (a,))
            wb = Word(comp_b.src, comp_b.atoms + (b,))
            try:
                if wa.src != wb.src or kernel.intern(wa) != kernel.intern(wb):
                    violations.append(f"LCM({names[0]},{names[1]}): sides are not equal as morphisms")
                    continue
                if kernel.div(kernel.intern(wa), b) < 0:
                    violations.append(f"LCM({names[0]},{names[1]}): {names[1]} does not divide the lcm")
            except (ConsistencyError, RecursionError):
                violations.append(f"LCM({names[0]},{names[1]}): word arithmetic failed on this entry")

        if violations:
            return ValidationReport(violations)

        for x in range(len(self.object_names)):
            here = self.atoms_by_target[x]
            for size in range(2, min(depth, len(here)) + 1):
                for subset in itertools.combinations(here, size):
                    results = []  # per rotation: the lcm node, -1, or None if failed
                    try:
                        for rot in range(size):
                            try:
                                node = kernel.join(subset[rot:] + subset[:rot])
                            except (ConsistencyError, RecursionError):
                                node = None
                            results.append(node)
                            if kernel.fold_bound is None and node is not None and node >= 0:
                                # on a Gaussian table every order reverses only
                                # nodes no longer than the subset's lcm
                                kernel.fold_bound = kernel.length[node]
                    finally:
                        kernel.fold_bound = None
                    if None in results:
                        violations.append(f"lcm fold of {subset} failed")
                    elif len({r < 0 for r in results}) > 1:
                        violations.append(f"lcm fold of {subset}: existence depends on fold order")
                    elif len(set(results)) > 1:
                        violations.append(f"lcm fold of {subset}: value depends on fold order")
        if violations:
            return ValidationReport(violations)

        from .resolution import build_complex, default_max_dim  # resolution imports this module

        dim = min(depth, default_max_dim(self))
        try:
            res = build_complex(self, self._default_ordering, dim)
        except (ConsistencyError, RecursionError) as exc:
            return ValidationReport([f"complex to dimension {dim} failed: {exc}"])
        for check in (res.check_facets, res.check_boundary_squared):
            try:
                check()
            except (ConsistencyError, RecursionError) as exc:
                violations.append(f"complex to dimension {dim}: {exc}")
        return ValidationReport(violations)

    def __repr__(self):
        name = self.label or "structure"
        return (
            f"GaussianStructure({name}: {len(self.object_names)} object(s), "
            f"{self.n_atoms} atom(s))"
        )


class WordKernel:
    """The canonical words of one structure under one atom ordering.

    Canonical words are closed under prefixes, so they are interned in a
    prefix trie: ids 0..n_objects-1 are the identities, and every other
    node stores its parent, its last atom, its source and its length (the
    sum of its atoms' lengths; identities have length 0).  A node is a
    morphism, and its last atom is its least right-divisor.  `_child` is
    the only place that creates nodes.  Two
    primitives, which call each other directly, make up the arithmetic:
    `div` divides a node by an atom and `mul` multiplies it by one, both
    returning canonical nodes.  Each nested call works on a strictly
    shorter morphism, so the recursion is at most as deep as the word is
    long.  A third, `lcm`, reverses a node against an atom on top of them;
    its nested calls work on strictly shorter lcms.  The kernel keeps two
    memos: `_mul`, which is also the trie's child table, and `_lcm`.
    Quotients and longer products are recomputed from them on each call.

    Most steps are trivial, so the loops of `div`, `mul`, `divide` and
    `product` take them in place and call `div` or `mul` only on the full
    path: a node whose last atom is d divided by d is its parent; one whose
    last atom ranks above d is not divisible by d (an identity's last atom
    is -1, so the rank test reads an arbitrary rank, but both of its
    branches give -1, as no atom divides an identity); a product in `_mul`
    is read from it (`_mul` holds no identity, so no node 0, and only a
    miss falls through `or` to the call).  The calls are direct, so
    division still nests one frame per atom.

    Obtain one through GaussianStructure.kernel(ordering).
    """

    def __init__(self, struct: GaussianStructure, ordering: AtomOrdering):
        # Lengths make the recursion well founded; on a table that does not
        # preserve them, division can grow the trie without bound.  An empty
        # complement makes one atom a multiple of another, which no atom is.
        bad = struct._entry_violations()
        if bad:
            raise ConsistencyError(bad[0])
        self.struct = struct
        self.n_objects = n_obj = struct.n_objects
        self.n_atoms = n = struct.n_atoms
        self.ranks = ranks = ordering.ranks
        # per target object, its atoms in increasing order
        self.candidates = [ordering.sorted_atoms(atoms) for atoms in struct.atoms_by_target]
        # _pairs[a * n + b] = (comp_a, reversed comp_b), comp_a*a = comp_b*b
        # the left-lcm of distinct atoms a, b at one target, or None
        self._pairs: dict[int, Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = {
            key: None if entry is None else (entry[0].atoms, entry[1].atoms[::-1])
            for key, entry in struct._lcm_table.items()
        }
        # per atom b, (a, comp_a, reversed comp_b) for the atoms a below b
        # that have a left-lcm with b, in increasing order
        self._below: list[list[tuple]] = [
            [
                (a,) + self._pairs[a * n + b]
                for a in self.candidates[struct.atom_target[b]]
                if ranks[a] < ranks[b] and self._pairs[a * n + b] is not None
            ]
            for b in range(n)
        ]
        self.parent: list[int] = [-1] * n_obj
        self.last: list[int] = [-1] * n_obj
        self.src: list[int] = list(range(n_obj))
        self.length: list[int] = [0] * n_obj
        # node * n_atoms + atom -> canonical node of the product; this is
        # also the trie's child table, since canon(x*b) is the child of x
        # when b is the least divisor of x*b
        self._mul: dict[int, int] = {}
        self._lcm: dict[int, int] = {}  # node * n_atoms + atom -> node or -1
        self._lcm_steps = 0  # memo misses of lcm, against _FOLD_STEP_LIMIT
        # when set, the longest node lcm may reverse (see validate)
        self.fold_bound: Optional[int] = None

    def _child(self, node: int, atom: int) -> int:
        """The trie node of node*atom, which the caller knows is canonical
        (atom is its least divisor); added if new."""
        key = node * self.n_atoms + atom
        child = self._mul.get(key)
        if child is None:
            child = self._mul[key] = len(self.last)
            self.parent.append(node)
            self.last.append(atom)
            self.src.append(self.src[node])
            self.length.append(self.length[node] + self.struct.atom_length[atom])
        return child

    def div(self, x: int, a: int) -> int:
        """The canonical node g with g*a = x, or -1 when a does not
        right-divide x.

        With c the last atom of x (its least divisor), a can divide x only
        if c <= a.  An atom a above c divides x exactly when the left-lcm
        comp_a*a = comp_c*c does, and then x/a = (parent/comp_c)*comp_a.
        """
        c = self.last[x]
        if c == a:
            return self.parent[x]
        if c < 0 or self.ranks[a] < self.ranks[c]:
            return -1
        entry = self._pairs.get(a * self.n_atoms + c)
        if entry is None:  # different targets, or no common multiple
            return -1
        comp_a, comp_c_rev = entry
        parent, last, ranks = self.parent, self.last, self.ranks
        res = parent[x]
        for d in comp_c_rev:
            c = last[res]
            if c == d:
                res = parent[res]
            elif ranks[d] < ranks[c]:
                return -1
            else:
                res = self.div(res, d)
                if res < 0:
                    return -1
        memo, n = self._mul, self.n_atoms
        for d in comp_a:
            res = memo.get(res * n + d) or self.mul(res, d)
        return res

    def mul(self, x: int, b: int) -> int:
        """The canonical node of x*b; the caller guarantees composability.

        The least divisor of x*b is the first atom a below b whose
        complement comp_b (comp_a*a = comp_b*b) divides x, and then
        canon(x*b) = canon((x/comp_b)*comp_a)*a; without one it is b.
        """
        key = x * self.n_atoms + b
        res = self._mul.get(key)
        if res is not None:
            return res
        parent, last, ranks, memo, n = self.parent, self.last, self.ranks, self._mul, self.n_atoms
        for a, comp_a, comp_b_rev in self._below[b]:
            h = x
            for d in comp_b_rev:
                c = last[h]
                if c == d:
                    h = parent[h]
                elif ranks[d] < ranks[c]:
                    break
                else:
                    h = self.div(h, d)
                    if h < 0:
                        break
            else:
                for d in comp_a:
                    h = memo.get(h * n + d) or self.mul(h, d)
                res = memo[key] = self._child(h, a)
                return res
        return self._child(x, b)

    def exact_div(self, x: int, a: int) -> int:
        """div for an atom a that must divide x by construction."""
        q = self.div(x, a)
        if q < 0:
            raise ConsistencyError("an lcm is not divisible by its atom; lcm table is inconsistent")
        return q

    def lcm(self, x: int, b: int) -> int:
        """The canonical node p with p*x the left-lcm of x and the atom b,
        or -1 when they have no common left-multiple.

        With x = u*c for c its last atom and comp_b*b = comp_c*c the table's
        lcm, lcm(x, b) = lcm(u, comp_c)*c.  That lcm is folded over comp_c
        from the right: p_d*cur = lcm(cur, d), then cur = p_d*cur/d.
        Every node reversed on the way is shorter than the lcm it serves,
        so when a fold's lcm is known to be no longer than `fold_bound`, a
        miss on a longer x raises ConsistencyError.
        """
        key = x * self.n_atoms + b
        res = self._lcm.get(key)
        if res is not None:
            return res
        self._lcm_steps += 1
        if self._lcm_steps > _FOLD_STEP_LIMIT:
            raise ConsistencyError("lcm reversing did not converge; lcm table is inconsistent")
        if self.fold_bound is not None and self.length[x] > self.fold_bound:
            raise ConsistencyError("lcm reversing outgrew the fold bound; lcm table is inconsistent")
        if self.div(x, b) >= 0:
            res = self.src[x]
        elif x < self.n_objects:
            struct = self.struct
            res = self.mul(struct.atom_source[b], b) if struct.atom_target[b] == x else -1
        else:
            entry = self._pairs.get(b * self.n_atoms + self.last[x])
            if entry is None:  # different targets, or no common multiple
                res = -1
            else:
                cur, res = self.parent[x], self.src[x]
                lcm, product, exact_div = self.lcm, self.product, self.exact_div
                for d in entry[1]:
                    p = lcm(cur, d)
                    if p < 0:
                        res = -1
                        break
                    cur = exact_div(product(p, cur), d)
                    res = product(p, res)
        self._lcm[key] = res
        return res

    def left_lcm(self, w: int, x: int) -> Optional[tuple[int, int]]:
        """The canonical nodes (p, y) with p*w = y*x the left-lcm of the
        nodes w and x, which share a target; None when they have no common
        left-multiple.

        w is reversed against the atoms of x from the last one up: with
        x = u*d and q*w = lcm(w, d), lcm(w, x) = lcm(q*w/d, u)*d.
        """
        parent, last, n_objects = self.parent, self.last, self.n_objects
        lcm, product, exact_div = self.lcm, self.product, self.exact_div
        p, y = self.src[w], w
        while x >= n_objects:
            d = last[x]
            q = lcm(y, d)
            if q < 0:
                return None
            y = exact_div(product(q, y), d)
            p = product(q, p)
            x = parent[x]
        return p, y

    def join(self, atoms: Sequence[int]) -> int:
        """The canonical node of the left-lcm of a nonempty family of atoms
        sharing one target, folded in the given order; -1 when none."""
        node = self.struct.atom_target[atoms[0]]
        lcm, product = self.lcm, self.product
        for b in atoms:
            p = lcm(node, b)
            if p < 0:
                return -1
            node = product(p, node)
        return node

    def intern(self, w: Word) -> int:
        """The canonical node of a word."""
        node = w.src
        atom_source, mul = self.struct.atom_source, self.mul
        for a in w.atoms:
            if atom_source[a] != self.target(node):
                raise PreconditionError(f"word {w} is not composable")
            node = mul(node, a)
        return node

    def word(self, node: int) -> Word:
        """Spell a node out as a Word."""
        parent, last = self.parent, self.last
        atoms = []
        while node >= self.n_objects:
            atoms.append(last[node])
            node = parent[node]
        atoms.reverse()
        return Word(node, tuple(atoms))

    def target(self, node: int) -> int:
        return node if node < self.n_objects else self.struct.atom_target[self.last[node]]

    def divide(self, w: int, u: int) -> int:
        """The canonical node g with g*u = w, or -1, dividing by the atoms
        of u from the right."""
        parent, last, ranks, n_objects = self.parent, self.last, self.ranks, self.n_objects
        while u >= n_objects:
            a, c = last[u], last[w]
            if c == a:
                w = parent[w]
            elif ranks[a] < ranks[c]:
                return -1
            else:
                w = self.div(w, a)
                if w < 0:
                    return -1
            u = parent[u]
        return w

    def product(self, g: int, w: int) -> int:
        """Canonical node of the composite g*w: mul folded over the atoms
        of w, read up the trie."""
        if g < self.n_objects:
            return w
        parent, last = self.parent, self.last
        atoms = []
        while w >= self.n_objects:
            atoms.append(last[w])
            w = parent[w]
        memo, n = self._mul, self.n_atoms
        for b in reversed(atoms):
            g = memo.get(g * n + b) or self.mul(g, b)
        return g
