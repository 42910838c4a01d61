"""Built-in Gaussian structures and the plain-text interchange format.

Built-ins cover spherical Artin monoids given by a Coxeter matrix, the ad hoc
rank-two monoids for the exceptional braid groups G7/G11/G19, G12, G13, G15
and G22, and the dual braid monoid of type A at small rank (computed by brute
force over the symmetric group).  Anything else, multi-object categories in
particular, is loaded from a structure file.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .gaussian import GaussianError, GaussianStructure, PreconditionError


class ParseError(GaussianError):
    """Structure file error, carrying the offending line number (None for
    errors of the file as a whole, such as a missing lcm pair)."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# -- Coxeter data ------------------------------------------------------------


class CoxeterMatrix:
    """Symmetric matrix of m(s,t) values with 1 on the diagonal.

    No spherical-type check is performed; callers feeding a non-spherical
    matrix get a presentation whose pairwise lcms exist but whose larger
    folds may not.
    """

    def __init__(self, entries: Sequence[Sequence[int]]):
        n = len(entries)
        self.n = n
        self.m = [list(row) for row in entries]
        for i in range(n):
            if len(self.m[i]) != n:
                raise PreconditionError("Coxeter matrix must be square")
            if self.m[i][i] != 1:
                raise PreconditionError("Coxeter matrix needs 1 on the diagonal")
            for j in range(n):
                if i != j and (self.m[i][j] < 2 or self.m[i][j] != self.m[j][i]):
                    raise PreconditionError("Coxeter matrix must be symmetric with entries >= 2")

    @classmethod
    def from_graph(cls, n: int, edges: dict[tuple[int, int], int]) -> "CoxeterMatrix":
        m = [[2] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 1
        for (i, j), v in edges.items():
            m[i][j] = m[j][i] = v
        return cls(m)


_NAMED_DIAGRAMS = {
    "H3": (3, {(0, 1): 5, (1, 2): 3}),
    "H4": (4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}),
    "F4": (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),
    "E6": (6, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
    "E7": (7, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3}),
    "E8": (8, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3}),
}


def coxeter_matrix(name: str) -> CoxeterMatrix:
    """Coxeter matrix for a named spherical type: A5, B3, D4, H3, F4, I2(7), ..."""
    name = name.strip()
    if name in _NAMED_DIAGRAMS:
        n, edges = _NAMED_DIAGRAMS[name]
        return CoxeterMatrix.from_graph(n, edges)
    if name.startswith("I2(") and name.endswith(")") and name[3:-1].isdigit():
        m = int(name[3:-1])
        if m < 3:
            raise PreconditionError("I2(m) needs m >= 3")
        return CoxeterMatrix.from_graph(2, {(0, 1): m})
    kind, rank = name[:1], name[1:]
    if not rank.isdigit():
        raise PreconditionError(f"unknown Coxeter type {name!r}")
    n = int(rank)
    if kind == "A" and n >= 1:
        return CoxeterMatrix.from_graph(n, {(i, i + 1): 3 for i in range(n - 1)})
    if kind == "B" and n >= 2:
        edges = {(i, i + 1): 3 for i in range(n - 1)}
        edges[(n - 2, n - 1)] = 4
        return CoxeterMatrix.from_graph(n, edges)
    if kind == "D" and n >= 4:
        edges = {(i, i + 1): 3 for i in range(n - 2)}
        edges[(n - 3, n - 1)] = 3
        return CoxeterMatrix.from_graph(n, edges)
    raise PreconditionError(f"unknown Coxeter type {name!r}")


_GENERATOR_NAMES = "abcdefgh"


def _alternating(first: int, second: int, length: int, names) -> list[str]:
    """Alternating word over two atoms, of the given length, ending in `first`."""
    out = []
    cur = first
    for _ in range(length):
        out.append(names[cur])
        cur = second if cur == first else first
    out.reverse()
    return out


def artin_structure(matrix: CoxeterMatrix, label: str = "") -> GaussianStructure:
    """Artin monoid of a Coxeter matrix: one object, generators of length 1.

    The lcm of two generators s, t is the alternating word of length m(s,t);
    the complement of s is the alternating word of length m(s,t) - 1 ending
    in t, so that complement * s is the relation word ending in s.
    """
    n = matrix.n
    if n > len(_GENERATOR_NAMES):
        names = [f"s{i+1}" for i in range(n)]
    else:
        names = list(_GENERATOR_NAMES[:n])
    atoms = [(names[i], "*", "*", 1) for i in range(n)]
    lcms = []
    for i in range(n):
        for j in range(i + 1, n):
            m = matrix.m[i][j]
            comp_i = _alternating(j, i, m - 1, names)
            comp_j = _alternating(i, j, m - 1, names)
            lcms.append((names[i], names[j], (comp_i, comp_j)))
    return GaussianStructure(["*"], atoms, lcms, label=label)


def artin_named(name: str) -> GaussianStructure:
    return artin_structure(coxeter_matrix(name), label=f"artin:{name}")


# -- rank-two monoids for exceptional braid groups ---------------------------


def _circulating(word_length: int, label: str) -> GaussianStructure:
    """Monoid <a,b,c | w = rot(w) = rot2(w)> for the cyclic word abcabc..."""
    names = ["a", "b", "c"]
    rotations = [[names[(k + i) % 3] for i in range(word_length)] for k in range(3)]
    comp = {}
    for rot in rotations:
        comp[rot[-1]] = rot[:-1]
    atoms = [(x, "*", "*", 1) for x in names]
    lcms = [(x, y, (comp[x], comp[y])) for x, y in itertools.combinations(names, 2)]
    return GaussianStructure(["*"], atoms, lcms, label=label)


def _adhoc(entries, label: str) -> GaussianStructure:
    names = ["a", "b", "c"]
    atoms = [(x, "*", "*", 1) for x in names]
    lcms = [(x, y, (list(cx), list(cy))) for (x, y, cx, cy) in entries]
    return GaussianStructure(["*"], atoms, lcms, label=label)


def circulating_structure(family: str) -> GaussianStructure:
    """Garside monoid used for the rank-two exceptional braid group family.

    G7 also serves G11 and G19 (isomorphic braid groups).  The G13 and G15
    tables are transcribed from their defining presentations and verified by
    word arithmetic in the test suite, not re-derived by completion.
    """
    family = family.upper()
    if family in ("G7", "G11", "G19"):
        return _circulating(3, f"circ:{family}")
    if family == "G12":
        return _circulating(4, "circ:G12")
    if family == "G22":
        return _circulating(5, "circ:G22")
    if family == "G13":
        # relations: acabc = bcaba, bcab = cabc, cabca = abcab
        return _adhoc(
            [
                ("a", "b", "cabc", "abca"),
                ("a", "c", "cabc", "acab"),
                ("b", "c", "bca", "cab"),
            ],
            "circ:G13",
        )
    if family == "G15":
        # relations: abc = bca, cabcb = abcbc
        return _adhoc(
            [
                ("a", "b", "bcbc", "cabc"),
                ("a", "c", "bc", "ab"),
                ("b", "c", "cabc", "abcb"),
            ],
            "circ:G15",
        )
    raise PreconditionError(f"unknown rank-two family {family!r}")


# -- dual braid monoid of type A ----------------------------------------------


def _perm_mul(p, q):
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _cycle_count(p) -> int:
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def dual_typeA_structure(n: int) -> GaussianStructure:
    """Dual braid monoid of type A_n: atoms are the transpositions of S_{n+1}.

    The pairwise lcm table is found by exhaustive search over the interval
    below the Coxeter cycle (0 1 ... n) in the reflection-length order, so
    this is only meant for small rank.
    """
    if not 1 <= n <= 4:
        raise PreconditionError("dual type-A structure is built by brute force; need 1 <= n <= 4")
    size = n + 1
    cox = tuple((i + 1) % size for i in range(size))

    group = list(itertools.permutations(range(size)))
    refl_len = {p: size - _cycle_count(p) for p in group}.__getitem__
    inv = {p: tuple(sorted(range(size), key=p.__getitem__)) for p in group}
    interval = [p for p in group if refl_len(p) + refl_len(_perm_mul(inv[p], cox)) == n]

    transpositions = []
    for i in range(size):
        for j in range(i + 1, size):
            t = list(range(size))
            t[i], t[j] = j, i
            transpositions.append(((i, j), tuple(t)))
    names = {perm: f"t{i}{j}" for (i, j), perm in transpositions}
    atom_list = [perm for _, perm in transpositions]

    # per interval element, the transpositions dividing it on the right, in
    # atom order; the interval is closed under divisors, so these tables
    # cover every element met below
    right_divisors = {
        u: [t for t in atom_list if refl_len(_perm_mul(u, t)) == refl_len(u) - 1] for u in interval
    }

    def expand(u):
        """Write an interval element as a word of transpositions (smallest last factor first)."""
        word = []
        while refl_len(u) > 0:
            if not right_divisors[u]:
                raise PreconditionError("element admits no transposition divisor")
            t = right_divisors[u][0]
            word.append(names[t])
            u = _perm_mul(u, t)
        word.reverse()
        return word

    atoms = [(names[t], "*", "*", 1) for t in atom_list]
    lcms = []
    for a, b in itertools.combinations(atom_list, 2):
        common = [w for w in interval if a in right_divisors[w] and b in right_divisors[w]]
        least = min(refl_len(w) for w in common)
        minimal = [w for w in common if refl_len(w) == least]
        if len(minimal) != 1:
            raise PreconditionError("pairwise lcm is not unique in the interval")
        join = minimal[0]
        for w in common:
            if refl_len(_perm_mul(w, inv[join])) != refl_len(w) - least:
                raise PreconditionError("minimal common multiple is not an lcm")
        comp_a = expand(_perm_mul(join, a))
        comp_b = expand(_perm_mul(join, b))
        lcms.append((names[a], names[b], (comp_a, comp_b)))
    return GaussianStructure(["*"], atoms, lcms, label=f"dual:A{n}")


# -- interchange format -------------------------------------------------------


def _word_token(names: Sequence[str]) -> str:
    return ".".join(names) if names else "-"


def _split_word(token: str) -> list[str]:
    return [] if token == "-" else token.split(".")


def parse_structure(text: str) -> GaussianStructure:
    """Parse the line-oriented interchange format; see serialize_structure.

    The parser reads syntax: the header, each directive's fields, and a
    repeated BASEOBJECT, ORDER or PATHLEN for one object.  Records may come
    in any order after the header.  What they say is checked by
    GaussianStructure, and a record it refuses is reported at its line."""
    objects: list[str] = []
    atoms: list[tuple[str, str, str, int]] = []
    lcms: list[tuple] = []
    basepoint = order = None
    path_lengths: dict[str, int] = {}
    lines: dict[tuple, int] = {}  # PreconditionError.record -> line
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "GAUSSIAN-STRUCTURE v1":
                raise ParseError(lineno, "expected header 'GAUSSIAN-STRUCTURE v1'")
            header_seen = True
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "OBJECT":
            if len(fields) != 2:
                raise ParseError(lineno, "OBJECT takes exactly one name")
            lines["object", len(objects)] = lineno
            objects.append(fields[1])
        elif kind == "ATOM":
            if len(fields) != 5:
                raise ParseError(lineno, "ATOM takes name, source, target, length")
            lines["atom", len(atoms)] = lineno
            try:
                atoms.append((fields[1], fields[2], fields[3], int(fields[4])))
            except ValueError:
                raise ParseError(lineno, f"bad atom length {fields[4]!r}") from None
        elif kind in ("LCM", "NOLCM"):
            if kind == "NOLCM" and len(fields) != 3:
                raise ParseError(lineno, "NOLCM takes two atom names")
            if kind == "LCM" and (len(fields) != 6 or fields[3] != "COMPL"):
                raise ParseError(lineno, "LCM takes: atomA atomB COMPL word word")
            lines["lcm", len(lcms)] = lineno
            comps = (_split_word(fields[4]), _split_word(fields[5])) if kind == "LCM" else None
            lcms.append((fields[1], fields[2], comps))
        elif kind == "BASEOBJECT":
            if len(fields) != 2:
                raise ParseError(lineno, "BASEOBJECT takes one declared object")
            if basepoint is not None:
                raise ParseError(lineno, "BASEOBJECT given twice")
            basepoint, lines[("basepoint",)] = fields[1], lineno
        elif kind == "PATHLEN":
            if len(fields) != 3:
                raise ParseError(lineno, "PATHLEN takes a declared object and an integer")
            if fields[1] in path_lengths:
                raise ParseError(lineno, f"path length of object {fields[1]!r} given twice")
            try:
                path_lengths[fields[1]] = int(fields[2])
            except ValueError:
                raise ParseError(lineno, f"bad path length {fields[2]!r}") from None
            lines["path_length", fields[1]] = lineno
        elif kind == "ORDER":
            if order is not None:
                raise ParseError(lineno, "ORDER given twice")
            order, lines[("order",)] = fields[1:], lineno
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    if not header_seen:
        raise ParseError(1, "empty input; expected header 'GAUSSIAN-STRUCTURE v1'")
    try:
        return GaussianStructure(
            objects,
            atoms,
            lcms,
            basepoint=basepoint,
            path_lengths=path_lengths or None,
            declared_order=order,
        )
    except PreconditionError as exc:
        raise ParseError(lines.get(exc.record), str(exc)) from exc


def serialize_structure(struct: GaussianStructure) -> str:
    """Emit the interchange format; parse_structure(serialize_structure(s)) == s."""
    lines = ["GAUSSIAN-STRUCTURE v1"]
    for name in struct.object_names:
        lines.append(f"OBJECT {name}")
    for a in range(struct.n_atoms):
        lines.append(
            "ATOM {} {} {} {}".format(
                struct.atom_names[a],
                struct.object_names[struct.atom_source[a]],
                struct.object_names[struct.atom_target[a]],
                struct.atom_length[a],
            )
        )
    for a, b, pair in struct.lcm_entries():
        names = (struct.atom_names[a], struct.atom_names[b])
        if pair is None:
            lines.append(f"NOLCM {names[0]} {names[1]}")
        else:
            comp_a, comp_b = pair
            lines.append(
                "LCM {} {} COMPL {} {}".format(
                    names[0],
                    names[1],
                    _word_token([struct.atom_names[d] for d in comp_a]),
                    _word_token([struct.atom_names[d] for d in comp_b]),
                )
            )
    if struct.basepoint is not None:
        lines.append(f"BASEOBJECT {struct.object_names[struct.basepoint]}")
    if struct.path_lengths is not None:
        for x, val in enumerate(struct.path_lengths):
            lines.append(f"PATHLEN {struct.object_names[x]} {val}")
    if struct.declared_order is not None:
        ranks = struct.declared_order.ranks
        in_order = sorted(range(struct.n_atoms), key=ranks.__getitem__)
        lines.append("ORDER " + " ".join(struct.atom_names[a] for a in in_order))
    return "\n".join(lines) + "\n"


# -- builtin registry ----------------------------------------------------------


def builtin_structure(spec: str) -> GaussianStructure:
    """Resolve a builtin spec: artin:<type>, circ:<family>, dual:A<n>."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise PreconditionError(f"bad builtin spec {spec!r}; expected kind:name")
    kind, name = parts
    if kind == "artin":
        return artin_named(name)
    if kind == "circ":
        return circulating_structure(name)
    if kind == "dual":
        if not name.upper().startswith("A") or not name[1:].isdigit():
            raise PreconditionError("only dual type-A structures, dual:A<n>, are built in")
        return dual_typeA_structure(int(name[1:]))
    raise PreconditionError(f"unknown builtin kind {kind!r}")
