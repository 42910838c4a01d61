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
The trie is stored flat, as a parent and a last atom per node, and the
product memo is a dense table of n_atoms slots per node.
Its three primitives, `div` (divide by an atom), `mul` (multiply by an atom)
and `lcm` (left-lcm with an atom, as both complements), return canonical
nodes; `mul` and `lcm` are memoized, `div` is recomputed on every call.
`mul` is the only place that creates nodes; `div`, `lcm` and the folds
create theirs through it.
Interning a word folds `mul` over it, `join` folds `lcm` over a set of
atoms, and `left_lcm` folds it over the atoms of a second node.  The four
`Word` methods `quotient_atom`, `least_divisor`, `canonical_form` and
`lcm_with_atom` are adapters that intern their argument in
`kernel(ordering)` (declaration order when none is given) and spell out the
result, so `quotient_atom` returns the canonical quotient; everything else
works on the kernel's nodes.  The kernel's trie and memos grow for the
structure's lifetime and assign ids in insertion order, so a structure must
not be used from several threads at once.

The table is checked once before any kernel is built on it:
`_entry_violations` asks for nonempty complements and lcm sides of equal
lengths, and `_cube_violations` for Dehornoy's cube condition on every
triple of atoms at a common target, by left reversing words over the table
itself.  A table that passes both is complete (Dehornoy, "Complete positive
group presentations", J. Algebra 268, 2003): it presents a right-cancellative
category with conditional left-lcms, and reversing computes them.  So the
complements one reversal gives are exact, and no lcm needs to be formed as
a word and divided.  `validate` returns the violations of these two
checks and nothing more.
"""

from __future__ import annotations

import itertools
from array import array
from typing import NamedTuple, Optional, Sequence


class GaussianError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(GaussianError):
    """An operation was called on arguments violating its contract.

    `record` names the record `GaussianStructure` refuses: ("object", i),
    ("atom", i) or ("lcm", i) for the i-th of that argument, ("basepoint",),
    ("path_length", object name) or ("order",); None for any other error,
    one about the records together (a missing lcm pair) included.
    """

    def __init__(self, message: str, record: Optional[tuple] = None):
        super().__init__(message)
        self.record = record


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


# Reversing a word whose letters have no common multiple can go on forever
# (the affine A2 relations do), so the cube check gives up on one word past
# this many steps and reports its triple.  The builtins take at most a few
# dozen.
_REVERSING_STEP_LIMIT = 10_000


# marks a missing memo entry where None is a value
_UNKNOWN = object()


class _ReversingLimit(Exception):
    """Left reversing ran past _REVERSING_STEP_LIMIT steps."""


def _reverse(table: dict, n: int, u: tuple, v: tuple) -> Optional[list[int]]:
    """Left-reverse the signed word u*v^-1, u and v atom tuples ending at
    one target, into p^-1*q with p*u = q*v.  Returns it as signed letters,
    ~a standing for the inverse of the atom a: p's atoms inverted, last
    first, then q's atoms; None when it meets a pair with no common
    left-multiple.  A step replaces a*b^-1 by comp_a^-1*comp_b, the lcm
    table entry `table[a * n + b]` being (comp_a, reversed comp_b), and
    a*a^-1 cancels.  `done` holds the reversed prefix (inverses, then
    atoms) and `todo` what is left, next letter last, so a step pushes
    comp_b last letter first, then comp_a's inverses.  Raises
    _ReversingLimit past _REVERSING_STEP_LIMIT steps."""
    done = list(u)
    todo = [~d for d in v]
    steps = 0
    while todo:
        s = todo.pop()
        if s >= 0 or not done or done[-1] < 0:
            done.append(s)
            continue
        a = done.pop()
        if a == ~s:
            continue
        pair = table[a * n + ~s]
        if pair is None:
            return None
        steps += 1
        if steps > _REVERSING_STEP_LIMIT:
            raise _ReversingLimit
        # comp_a^-1 is read first, so it goes on top
        todo += pair[1]
        todo += [~d for d in pair[0]]
    return done


def _add_name(index: dict, kind: str, name, i: int) -> None:
    """Give the i-th object or atom name its id, refusing a repeated name
    and one a structure file cannot spell: names are nonempty words without
    '#', and an atom's has no '.' and is not '-', which join a complement's
    atoms and spell the empty one."""
    atom = kind == "atom"
    if not isinstance(name, str) or name.split() != [name] or "#" in name or atom and ("." in name or name == "-"):
        rule = "nonempty, no whitespace, '#' or '.', not '-'" if atom else "nonempty, no whitespace or '#'"
        raise PreconditionError(f"{kind} name {name!r} cannot be written in a structure file ({rule})", (kind, i))
    if name in index:
        raise PreconditionError(f"duplicate {kind} name {name!r}", (kind, i))
    index[name] = i


class GaussianStructure:
    """Immutable presentation data with word arithmetic on top.

    Construction takes name-based data (mirroring the interchange file
    format) and resolves it to dense integer ids.  It holds every rule on
    what the records say, for builtins, library callers and structure files
    alike: names are unique and spellable (`_add_name`), every name a record
    uses is known, atoms have length >= 1, an lcm entry pairs two atoms at
    one target once and its complements compose with them, every such pair
    has an entry, and a declared order lists every atom once.  A refused
    record is named by the PreconditionError's `record`.  The entry and cube
    checks run when the first word kernel is built, and :meth:`validate`
    reports them.
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
        self.object_index: dict[str, int] = {}
        for i, name in enumerate(self.object_names):
            _add_name(self.object_index, "object", name, i)

        self.atom_names: list[str] = []
        self.atom_source: list[int] = []
        self.atom_target: list[int] = []
        self.atom_length: list[int] = []
        self.atom_index: dict[str, int] = {}
        for i, (name, src, tgt, length) in enumerate(atoms):
            _add_name(self.atom_index, "atom", name, i)
            for obj in (src, tgt):
                if obj not in self.object_index:
                    raise PreconditionError(f"atom {name!r} references unknown object {obj!r}", ("atom", i))
            if length < 1:
                raise PreconditionError(f"atom {name!r} must have length >= 1", ("atom", i))
            self.atom_names.append(name)
            self.atom_source.append(self.object_index[src])
            self.atom_target.append(self.object_index[tgt])
            self.atom_length.append(length)
        self.n_atoms = len(self.atom_names)

        self.atoms_by_target: list[tuple[int, ...]] = [
            tuple(a for a in range(self.n_atoms) if self.atom_target[a] == x)
            for x in range(len(self.object_names))
        ]

        # _lcm_table[a * n_atoms + b], for distinct atoms a, b at one target,
        # is None (no common left-multiple) or the pair (comp_a, reversed
        # comp_b) of atom tuples with comp_a*a = comp_b*b = lcm, the shape
        # both reversals read; both orientations are stored.
        n = self.n_atoms
        self._lcm_table: dict[int, Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for i, (a_name, b_name, comps) in enumerate(lcms):
            record = ("lcm", i)
            for name in (a_name, b_name):
                if name not in self.atom_index:
                    raise PreconditionError(f"lcm entry references unknown atom {name!r}", record)
            a, b = self.atom_index[a_name], self.atom_index[b_name]
            if a == b:
                raise PreconditionError(f"lcm entry for atom {a_name!r} with itself", record)
            if self.atom_target[a] != self.atom_target[b]:
                raise PreconditionError(f"lcm entry for atoms with different targets ({a_name!r}, {b_name!r})", record)
            if a * n + b in self._lcm_table:
                raise PreconditionError(f"duplicate lcm entry for ({a_name!r}, {b_name!r})", record)
            if comps is None:
                self._lcm_table[a * n + b] = self._lcm_table[b * n + a] = None
                continue
            context = f"LCM({a_name},{b_name})"
            wa = self._resolve_word(comps[0], a, context, record)
            wb = self._resolve_word(comps[1], b, context, record)
            self._lcm_table[a * n + b] = (wa, wb[::-1])
            self._lcm_table[b * n + a] = (wb, wa[::-1])

        for here in self.atoms_by_target:
            for a, b in itertools.combinations(here, 2):
                if a * n + b not in self._lcm_table:
                    missing = (self.atom_names[a], self.atom_names[b])
                    raise PreconditionError(f"missing lcm entry for atoms {missing!r}")

        self.basepoint: Optional[int] = None
        if basepoint is not None:
            if basepoint not in self.object_index:
                raise PreconditionError(f"unknown basepoint object {basepoint!r}", ("basepoint",))
            self.basepoint = self.object_index[basepoint]

        self.path_lengths: Optional[tuple[int, ...]] = None
        if path_lengths is not None:
            lengths = [None] * len(self.object_names)
            for obj, val in path_lengths.items():
                if obj not in self.object_index:
                    raise PreconditionError(f"path length for unknown object {obj!r}", ("path_length", obj))
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
            for name in declared_order:
                if name not in self.atom_index:
                    raise PreconditionError(f"declared order references unknown atom {name!r}", ("order",))
            ids = [self.atom_index[name] for name in declared_order]
            if sorted(ids) != list(range(n)):
                raise PreconditionError("declared order must list every atom exactly once", ("order",))
            self.declared_order = AtomOrdering.from_sequence(ids)

        self.label = label

        self.n_objects = len(self.object_names)
        self._kernels: dict[tuple, WordKernel] = {}  # ordering ranks -> kernel
        self._cube: Optional[list[str]] = None  # see _cube_violations
        self._default_ordering = AtomOrdering.identity(self.n_atoms)

    def _resolve_word(self, names: Sequence[str], endpoint: int, context: str, record: tuple) -> tuple[int, ...]:
        """The atoms of a complement word; endpoint is the atom it gets
        composed with, and record the lcm entry it belongs to."""
        ids = tuple([self.atom_index.get(name, -1) for name in names])
        if -1 in ids:
            raise PreconditionError(f"{context}: unknown atom {names[ids.index(-1)]!r} in complement", record)
        ends = ids + (endpoint,)
        if any(self.atom_target[x] != self.atom_source[y] for x, y in zip(ends, ends[1:])):
            raise PreconditionError(f"{context}: complement does not compose with its atom", record)
        return ids

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
        ids = [self.atom_index.get(n, -1) for n in names]
        if -1 in ids:
            raise PreconditionError(f"unknown atom {names[ids.index(-1)]!r}")
        src = None if src_name is None else self.object_index.get(src_name)
        if src_name is not None and src is None:
            raise PreconditionError(f"unknown object {src_name!r}")
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
            if not comp_a or not comp_b:
                violations.append(f"{entry}: empty complement, so one atom divides the other")
            elif sum(length[d] for d in comp_a + (a,)) != sum(length[d] for d in comp_b + (b,)):
                violations.append(f"{entry}: sides have different lengths")
        return violations

    def _cube_violations(self) -> list[str]:
        """One message per triple of atoms at a common target on which the
        table fails Dehornoy's cube condition; worked out on the table,
        never on a word kernel, on the first call and kept.

        Write L(u, v) for the word p with p*u = q*v the left-lcm, read off
        by left reversing u*v^-1 (`_reverse`); for two atoms it is the
        table's complement.  For atoms x, y, z, both L(L(x, y), L(x, z))
        and L(L(y, x), L(y, z)) spell lcm(x, y, z) over lcm(x, y), reversed
        from x and from y.  The condition asks, for each choice of z in the
        triple, that both are undefined, or that the first times the
        second's inverse reverses to the empty word.  A table whose lcm
        sides have equal lengths (`_entry_violations`) and that passes it
        on every triple is complete (Dehornoy 2003): reversing decides
        equality of words and computes left-lcms, and the category is
        right-cancellative.  A triple whose reversing runs past
        _REVERSING_STEP_LIMIT steps fails as well."""
        if self._cube is not None:
            return self._cube
        n, names, table = self.n_atoms, self.atom_names, self._lcm_table

        def complement(u, v):
            """L(u, v), None when undefined (also when u or v is)."""
            if u is None or v is None:
                return None
            if len(u) == 1 == len(v) and u != v:
                pair = table[u[0] * n + v[0]]
                return None if pair is None else pair[0]
            done = _reverse(table, n, u, v)
            return None if done is None else tuple([~d for d in reversed(done) if d < 0])

        violations = []
        for here in self.atoms_by_target:
            for triple in itertools.combinations(here, 3):
                a, b, c = triple
                try:
                    for x, y, z in (triple, (a, c, b), (b, c, a)):
                        from_x = complement(complement((x,), (y,)), complement((x,), (z,)))
                        from_y = complement(complement((y,), (x,)), complement((y,), (z,)))
                        if from_x == from_y:
                            continue
                        x, y, z = names[x], names[y], names[z]
                        if from_x is None or from_y is None:
                            side = x if from_y is None else y
                            reason = f"{z} has a common multiple with lcm({x},{y}) reversed from {side} only"
                            break
                        if _reverse(table, n, from_x, from_y) != []:
                            reason = f"lcm({x},{y},{z}) reversed from {x} and from {y} differ"
                            break
                    else:
                        continue
                except _ReversingLimit:
                    reason = f"reversing ran past {_REVERSING_STEP_LIMIT} steps"
                violations.append(f"cube condition fails on ({names[a]},{names[b]},{names[c]}): {reason}")
        self._cube = violations
        return violations

    def lcm_entries(self) -> list[tuple[int, int, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]]:
        """The table as (a, b, entry) with a < b, sorted; entry is None (no
        common left-multiple) or the complements (comp_a, comp_b) as atom
        tuples in reading order, with comp_a*a = comp_b*b the left-lcm."""
        n = self.n_atoms
        return sorted(
            (key // n, key % n, None if pair is None else (pair[0], pair[1][::-1]))
            for key, pair in self._lcm_table.items()
            if key // n < key % n
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
        xy = kernel.lcm(kernel.intern(u), b)
        if xy is None:
            return None
        return kernel.word(xy[0]), kernel.word(xy[1])

    # -- canonical forms ----------------------------------------------------

    def kernel(self, ordering: Optional[AtomOrdering] = None) -> "WordKernel":
        """The canonical words and their arithmetic under an ordering
        (default: declaration order); PreconditionError for an ordering of
        another number of atoms."""
        ordering = ordering or self._default_ordering
        kernel = self._kernels.get(ordering.ranks)
        if kernel is None:
            if len(ordering.ranks) != self.n_atoms:
                raise PreconditionError("ordering does not cover the atoms")
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

    def validate(self) -> list[str]:
        """The completeness check of the lcm table: its violations, one
        message each; an empty list proves the table complete.

        Checks nonempty complements and length homogeneity (one violation
        per entry), then Dehornoy's cube condition (one per failing triple
        of atoms, named by atom names; see `_cube_violations`).  A table
        that passes both is complete, so it presents a right-cancellative,
        right-Noetherian category with conditional left-lcms, which is what
        the word kernel and the resolution assume; the word kernel refuses
        any other table.  Reads the table alone: no kernel or complex is
        built.
        """
        return list(self._entry_violations() or self._cube_violations())

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
    node stores only its parent and its last atom, its least
    right-divisor.  A parent precedes its children, and the rest is read
    up the trie: `word` spells a node, `source` and `target` give its
    ends.  `mul` is the only place that creates nodes.

    The trie is stored flat.  `_mul`, the product memo and the trie's
    child table in one, is a dense `array('i')` of n_atoms slots per node:
    `_mul[x * n_atoms + b]` is the canonical node of x*b, or 0 while that
    product is unknown (no product is an identity, so node 0 is never
    one).  `parent` and `last` are lists: they are the hottest reads, and
    the interpreter reads a list faster than an array, which also boxes a
    new int for every node id it hands back.  A `parent` list pays for
    that with an int object kept for most nodes, about 30 B each; `last`
    holds atoms, small ints that Python shares, at one pointer per node.

    Two primitives, which call each other directly, make up the arithmetic:
    `div` divides a node by an atom and `mul` multiplies it by one, both
    returning canonical nodes.  Each nested call works on a strictly
    shorter morphism, so the recursion is at most as deep as the word is
    long.  A third, `lcm`, reverses a node x against an atom b on top of
    them and returns both complements (p, y), p*x = y*b; when that lcm
    exists, its nested calls work on strictly shorter lcms.  It is the one
    lcm primitive: `join`, `left_lcm`, cell enumeration and `lcm_with_atom`
    read the pair.  The kernel keeps two memos: the dense `_mul` and the
    dict `_lcm` of pairs, which holds far fewer entries.  Quotients and
    longer products are recomputed from them on each call.

    A kernel is built only on a table that `validate` passes; on any other
    the constructor raises ConsistencyError.  The structure runs the cube
    check once, and every kernel reads the structure's lcm table itself,
    so the kernels of several orderings share both.

    `ranks` is the ordering's ranks with n_atoms appended: an identity's
    last atom is -1, so it reads ranks[-1] and ranks above every atom.
    Most steps are trivial, so the loops of `div`, `mul`, `divide` and
    `product` take them in place and call `div` or `mul` only on the full
    path: a node whose last atom is d divided by d is its parent; one whose
    last atom ranks above d, an identity included, is not divisible by d;
    a product in `_mul` is read from it (an unknown one reads 0 and falls
    through `or` to the call).  The calls are direct, so division still
    nests one frame per atom.

    Obtain one through GaussianStructure.kernel(ordering).
    """

    def __init__(self, struct: GaussianStructure, ordering: AtomOrdering):
        # Lengths make the recursion well founded; on a table that does not
        # preserve them, division can grow the trie without bound.  An empty
        # complement makes one atom a multiple of another, which no atom is.
        # The cube condition makes the table complete, so an lcm's two
        # complements, as reversing gives them, are exact.
        bad = struct.validate()
        if bad:
            raise ConsistencyError(bad[0])
        self.struct = struct
        self.n_objects = n_obj = struct.n_objects
        self.n_atoms = n = struct.n_atoms
        self.ranks = ranks = ordering.ranks + (n,)
        # per target object, its atoms in increasing order
        self.candidates = [ordering.sorted_atoms(atoms) for atoms in struct.atoms_by_target]
        # the structure's table: (comp_a, reversed comp_b) or None per pair
        self._lcm_table = table = struct._lcm_table
        # per atom b, (a, comp_a, reversed comp_b) for the atoms a below b
        # that have a left-lcm with b, in increasing order
        self._below: list[list[tuple]] = [
            [
                (a,) + table[a * n + b]
                for a in self.candidates[struct.atom_target[b]]
                if ranks[a] < ranks[b] and table[a * n + b] is not None
            ]
            for b in range(n)
        ]
        self.parent: list[int] = [-1] * n_obj
        self.last: list[int] = [-1] * n_obj
        # one node's row of _mul: n_atoms products, none known yet
        self._no_products = array("i", [0]) * n
        self._mul = self._no_products * n_obj
        # node * n_atoms + atom -> (p, y) or None, see lcm
        self._lcm: dict[int, Optional[tuple[int, int]]] = {}

    def div(self, x: int, a: int) -> int:
        """The canonical node g with g*a = x, or -1 when a does not
        right-divide x.

        With c the last atom of x (its least divisor), a can divide x only
        if c <= a; no atom ranks above an identity's.  An atom a above c
        divides x exactly when the left-lcm comp_a*a = comp_c*c does, and
        then x/a = (parent/comp_c)*comp_a.
        """
        c = self.last[x]
        if c == a:
            return self.parent[x]
        if self.ranks[a] < self.ranks[c]:
            return -1
        entry = self._lcm_table.get(a * self.n_atoms + c)
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
            res = memo[res * n + d] or self.mul(res, d)
        return res

    def mul(self, x: int, b: int) -> int:
        """The canonical node of x*b; the caller guarantees composability.

        The least divisor of x*b is the first atom a below b whose
        complement comp_b (comp_a*a = comp_b*b) divides x, and then
        canon(x*b) = canon((x/comp_b)*comp_a)*a; without one it is b.
        Either way x*b is the trie child h*a of a node h, created here
        when new.
        """
        key = x * self.n_atoms + b
        res = self._mul[key]
        if res:
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
                    h = memo[h * n + d] or self.mul(h, d)
                child = h * n + a
                res = memo[child]
                break
        else:
            # b is the least divisor, and the slot of x*b was just read empty
            h, a, child = x, b, key
        if not res:
            res = memo[child] = len(last)
            memo.extend(self._no_products)
            parent.append(h)
            last.append(a)
        memo[key] = res
        return res

    def lcm(self, x: int, b: int) -> Optional[tuple[int, int]]:
        """The canonical nodes (p, y) with p*x = y*b the left-lcm of the
        node x and the atom b, or None when they have no common
        left-multiple.

        With x = u*c for c its last atom and comp_b*b = comp_c*c the table's
        lcm, lcm(x, b) = lcm(u, comp_c)*c.  That lcm is folded over comp_c
        from the right: q*cur = cur'*d = lcm(cur, d), so p collects the q
        and cur steps to cur', and at the end p*u = cur*comp_c, so y =
        cur*comp_b.  No lcm word is formed or divided: on a complete table
        (see `GaussianStructure._cube_violations`) the complements
        reversing gives are exact, and reversing ends whenever the lcm
        exists.  The memo entry reads None while its reversing runs, so a
        nested call on the same pair returns None: were that lcm defined,
        every nested lcm would be strictly shorter, and none could repeat.
        An exception removes the mark.  Reversing that grows words without
        repeating a pair still runs into the interpreter's recursion limit.
        """
        key = x * self.n_atoms + b
        res = self._lcm.get(key, _UNKNOWN)
        if res is not _UNKNOWN:
            return res
        q = self.div(x, b)
        res = None
        if q >= 0:
            res = (self.source(x), q)
        elif x < self.n_objects:
            struct = self.struct
            if struct.atom_target[b] == x:
                src = struct.atom_source[b]
                res = (self.mul(src, b), src)
        else:
            entry = self._lcm_table.get(b * self.n_atoms + self.last[x])
            if entry is not None:  # else different targets, or no common multiple
                comp_b, comp_c_rev = entry
                cur, p = self.parent[x], self.source(x)
                lcm, product = self.lcm, self.product
                self._lcm[key] = None  # in progress: a nested call that meets it reads None
                try:
                    for d in comp_c_rev:
                        step = lcm(cur, d)
                        if step is None:
                            break
                        q, cur = step
                        p = product(q, p)
                    else:
                        memo, n = self._mul, self.n_atoms
                        for d in comp_b:
                            cur = memo[cur * n + d] or self.mul(cur, d)
                        res = (p, cur)
                except BaseException:
                    del self._lcm[key]
                    raise
        self._lcm[key] = res
        return res

    def left_lcm(self, w: int, x: int) -> Optional[tuple[int, int]]:
        """The canonical nodes (p, y) with p*w = y*x the left-lcm of the
        nodes w and x, which share a target; None when they have no common
        left-multiple.

        w is reversed against the atoms of x from the last one up: with
        x = u*d and q*w = z*d = lcm(w, d), lcm(w, x) = lcm(z, u)*d, z read
        off `lcm`'s pair.
        """
        parent, last, n_objects, lcm, product = self.parent, self.last, self.n_objects, self.lcm, self.product
        p, y = self.source(w), w
        while x >= n_objects:
            step = lcm(y, last[x])
            if step is None:
                return None
            q, y = step
            p = product(q, p)
            x = parent[x]
        return p, y

    def join(self, atoms: Sequence[int]) -> int:
        """The canonical node of the left-lcm of a nonempty family of atoms
        sharing one target, folded in the given order; -1 when none.  Each
        step's lcm p*node = y*b is one product, y*b."""
        node = self.struct.atom_target[atoms[0]]
        for b in atoms:
            step = self.lcm(node, b)
            if step is None:
                return -1
            node = self.mul(step[1], b)
        return node

    def intern(self, w: Word) -> int:
        """The canonical node of a word; PreconditionError if it does not compose."""
        self.struct._check_word(w)
        node, mul = w.src, self.mul
        for a in w.atoms:
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

    def source(self, node: int) -> int:
        """The identity a node's trie path starts at: its source object."""
        parent, n_objects = self.parent, self.n_objects
        while node >= n_objects:
            node = parent[node]
        return node

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
        n_objects = self.n_objects
        if g < n_objects:
            return w
        parent, last = self.parent, self.last
        atoms = []
        while w >= n_objects:
            atoms.append(last[w])
            w = parent[w]
        memo, n = self._mul, self.n_atoms
        for b in reversed(atoms):
            g = memo[g * n + b] or self.mul(g, b)
        return g
