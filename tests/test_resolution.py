"""Cell enumeration, ordering optimization, and the recursion's contracts."""

import itertools
import math
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rewriting
from test_cli import INCONSISTENT_TABLES
from garside_homology import gaussian
from garside_homology import (
    AtomOrdering,
    ConsistencyError,
    PreconditionError,
    Word,
    artin_named,
    circulating_structure,
    compute_homology,
    coxeter_matrix,
    dual_typeA_structure,
    make_system,
    parse_structure,
    specialize,
)
from garside_homology.resolution import (
    Cell,
    OrderResolution,
    build_complex,
    optimize_ordering,
    resolve_ordering,
    two_cell_bounds,
)


def ordering_by_names(struct, names):
    return AtomOrdering.from_sequence([struct.atom_index[n] for n in names])


def is_cell(res, atoms):
    """The cell condition, checked post hoc on an atom tuple: one target,
    increasing ranks, and each atom the least divisor (the last atom of the
    node) of the lcm of itself and the atoms after it."""
    atoms = tuple(atoms)
    if not atoms:
        return True
    struct, kernel, ranks = res.struct, res.kernel, res.ordering.ranks
    if any(struct.atom_target[a] != struct.atom_target[atoms[0]] for a in atoms):
        return False
    if any(ranks[atoms[i]] >= ranks[atoms[i + 1]] for i in range(len(atoms) - 1)):
        return False
    for i in range(len(atoms)):
        lcm = kernel.join(atoms[i:])
        if lcm < 0 or kernel.last[lcm] != atoms[i]:
            return False
    return True


def chain_iadd(acc, other, mult=1):
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


def chain_sub(a, b):
    return chain_iadd(chain_iadd({}, a), b, -1)


def act(res, g, chain):
    """The node g times a node-keyed chain, term by term."""
    out = {}
    for (w, cell), m in chain.items():
        chain_iadd(out, {(res.kernel.product(g, w), cell): m})
    return out


def boundary_chain(res, chain):
    """The differential extended linearly over the category to a chain of
    dimension >= 1."""
    acc = {}
    for (w, cell), m in chain.items():
        chain_iadd(acc, act(res, w, res.differential(cell)), m)
    return acc


def check_boundary_squared(res):
    """Raise if the composite of two differentials is nonzero anywhere, or
    the augmentation of a 1-cell's boundary is."""
    for n in range(2, len(res.cells)):
        for cell in res.cells[n]:
            if boundary_chain(res, res.differential(cell)):
                raise ConsistencyError(f"boundary of boundary is nonzero on {cell}")
    for cell in res.cells[1] if len(res.cells) > 1 else []:
        if sum(res.differential(cell).values()):  # the augmentation maps 0-cells to 1
            raise ConsistencyError(f"augmented boundary is nonzero on {cell}")


# -- enumeration ------------------------------------------------------------


def test_artin_cell_counts_are_binomial():
    for name, n in [("A2", 2), ("A3", 3), ("B3", 3), ("H3", 3), ("F4", 4)]:
        struct = artin_named(name)
        for ordering in (None, optimize_ordering(struct)):
            res = OrderResolution(struct, ordering, max_dim=n)
            assert res.cell_counts() == [math.comb(n, k) for k in range(n + 1)], name


def test_artin_counts_under_random_orderings():
    rng = random.Random(11)
    struct = artin_named("A3")
    perm = list(range(3))
    for _ in range(4):
        rng.shuffle(perm)
        res = OrderResolution(struct, AtomOrdering.from_sequence(list(perm)), max_dim=3)
        assert res.cell_counts() == [1, 3, 3, 1]


def test_circulating_cell_counts():
    for family in ["G7", "G12", "G22"]:
        res = OrderResolution(circulating_structure(family), max_dim=3)
        assert res.cell_counts() == [1, 3, 2, 0]


def test_g13_counts_depend_on_ordering():
    struct = circulating_structure("G13")
    plain = OrderResolution(struct, ordering_by_names(struct, "abc"), max_dim=3)
    assert plain.cell_counts() == [1, 3, 3, 1]
    c_first = OrderResolution(struct, ordering_by_names(struct, "cab"), max_dim=3)
    assert c_first.cell_counts() == [1, 3, 2, 0]


def test_g15_counts_via_oracle():
    # independent count through the rewriting oracle, for two orders
    struct = circulating_structure("G15")
    for order in ["abc", "bac", "cab"]:
        expected = len(rewriting.two_cells("G15", order))
        res = OrderResolution(struct, ordering_by_names(struct, order), max_dim=2)
        assert res.cell_counts()[2] == expected, order
    # frozen values: the identity order already reaches the minimum here
    assert len(rewriting.two_cells("G15", "abc")) == 2
    assert len(rewriting.two_cells("G15", "bac")) == 3


def test_enumerated_cells_satisfy_condition_posthoc():
    for struct in [artin_named("A3"), circulating_structure("G13"), dual_typeA_structure(2)]:
        res = OrderResolution(struct, optimize_ordering(struct))
        for layer in res.cells[1:]:
            for cell in layer:
                assert is_cell(res, cell.atoms)
                # facets of a cell are cells
                assert is_cell(res, cell.atoms[1:])


def test_enumeration_is_complete_against_brute_force():
    # every tuple satisfying the condition shows up, checked exhaustively
    # for every possible total ordering of the three atoms
    for family in ["G7", "G13", "G15"]:
        struct = circulating_structure(family)
        for perm in itertools.permutations(range(struct.n_atoms)):
            res = OrderResolution(struct, AtomOrdering.from_sequence(list(perm)), max_dim=3)
            ranks = res.ordering.ranks
            for dim in (2, 3):
                found = {cell.atoms for cell in res.cells[dim]}
                expected = set()
                for combo in itertools.permutations(range(struct.n_atoms), dim):
                    if all(ranks[combo[i]] < ranks[combo[i + 1]] for i in range(dim - 1)):
                        if is_cell(res, combo):
                            expected.add(combo)
                assert found == expected, (family, perm, dim)


def test_zero_and_one_cells(two_cycle_category):
    res = OrderResolution(two_cycle_category, max_dim=2)
    assert res.cell_counts() == [2, 2, 0]
    # one-cells live at the source of their atom
    for cell in res.cells[1]:
        assert cell.src == two_cycle_category.atom_source[cell.atoms[0]]


def test_cospan_has_no_two_cells(cospan_category):
    res = OrderResolution(cospan_category, max_dim=2)
    assert res.cell_counts() == [3, 2, 0]


def test_make_cell_returns_only_enumerated_cells():
    # a tuple whose atoms have a common multiple is not a cell by that
    # alone: a decreasing tuple, and a cell above max_dim, are refused,
    # and so is a boundary asked for either
    struct = artin_named("A3")
    res = OrderResolution(struct, max_dim=2)
    for cell in res.cells[1] + res.cells[2]:
        assert res.make_cell(cell.atoms) == cell
    assert (0, 1, 2) in (cell.atoms for cell in OrderResolution(struct, max_dim=3).cells[3])
    for atoms in [(1, 0), (0, 1, 2)]:
        with pytest.raises(PreconditionError, match="not an enumerated cell"):
            res.make_cell(atoms)
        with pytest.raises(PreconditionError, match="not an enumerated cell"):
            res.differential(Cell(atoms, 0))


# -- bounds and optimization ---------------------------------------------------


def test_two_cell_bounds_examples():
    a2 = two_cell_bounds(artin_named("A2"))
    assert (a2.lower, a2.upper) == (1, 1)
    g13 = circulating_structure("G13")
    bounds = two_cell_bounds(g13)
    assert (bounds.lower, bounds.upper) == (2, 3)
    by_word = {
        "".join(g13.word_names(lcm)): {g13.atom_names[a]: n for a, n in counts.items()}
        for _, lcm, counts in bounds.lcm_stats
    }
    # the two lcm morphisms with their partner counts (canonical spellings)
    assert sorted(len(w) for w in by_word) == [4, 5]
    big = by_word[[w for w in by_word if len(w) == 5][0]]
    assert big == {"a": 2, "b": 1, "c": 1}
    small = by_word[[w for w in by_word if len(w) == 4][0]]
    assert small == {"b": 1, "c": 1}


def test_two_cell_bounds_single_atom():
    from garside_homology import GaussianStructure

    toy = GaussianStructure(["*"], [("a", "*", "*", 1)], [])
    bounds = two_cell_bounds(toy)
    assert (bounds.lower, bounds.upper) == (0, 0)
    assert OrderResolution(toy, max_dim=2).cell_counts() == [1, 1, 0]


def test_optimizer_reaches_two_cells_on_g13():
    struct = circulating_structure("G13")
    res = OrderResolution(struct, optimize_ordering(struct), max_dim=3)
    assert res.cell_counts()[2] == 2
    assert res.cell_counts()[3] == 0
    plain = OrderResolution(struct, ordering_by_names(struct, "abc"), max_dim=3)
    assert plain.cell_counts()[2] == 3


def test_optimized_counts_within_bounds(builtins):
    for name, struct in builtins.items():
        bounds = two_cell_bounds(struct)
        res = OrderResolution(struct, optimize_ordering(struct), max_dim=2)
        assert bounds.lower <= res.cell_counts()[2] <= bounds.upper, name


def test_artin_bounds_collapse():
    # both bounds agree for Artin monoids: ordering cannot matter
    for name in ["A3", "B3", "H3", "F4"]:
        bounds = two_cell_bounds(artin_named(name))
        assert bounds.lower == bounds.upper


def test_resolve_ordering_modes():
    struct = circulating_structure("G13")
    assert resolve_ordering(struct, "identity") == struct.default_ordering()
    assert resolve_ordering(struct, "auto") == optimize_ordering(struct)
    with pytest.raises(PreconditionError):
        resolve_ordering(struct, "declared")
    with pytest.raises(PreconditionError):
        resolve_ordering(struct, "sideways")


# -- the recursion ---------------------------------------------------------------


def random_coefficient(rng, res, target_obj, max_atoms):
    """Node of a random composable word with the given target object."""
    struct = res.struct
    atoms = []
    at = target_obj
    for _ in range(rng.randint(0, max_atoms)):
        options = struct.atoms_by_target[at]
        if not options:
            break
        a = rng.choice(options)
        atoms.append(a)
        at = struct.atom_source[a]
    atoms.reverse()
    return res.kernel.intern(Word(at, tuple(atoms)))


def random_elementary(rng, res, max_dim=None, max_atoms=3):
    dims = [n for n in range(len(res.cells)) if res.cells[n]]
    if max_dim is not None:
        dims = [n for n in dims if n <= max_dim]
    cell = rng.choice(res.cells[rng.choice(dims)])
    return random_coefficient(rng, res, cell.src, max_atoms), cell


def reduce_chain(res, chain):
    """The reduction map, term by term."""
    acc = {}
    for (f, cell), m in chain.items():
        chain_iadd(acc, reduce_elem(res, f, cell), m)
    return acc


def least_over(res, f, cell):
    """(alpha, x, g) for the least atom alpha right-dividing f*lcm(cell),
    with x*lcm(cell) = lcm(alpha, lcm(cell)) (x = alpha on a zero cell,
    whose lcm is an identity) and g*x = f: the least-divisor search of
    Dehornoy and Lafont, read off kernel.lcm and kernel.divide."""
    kernel = res.kernel
    lcm = res._cell_lcm(cell)
    for alpha in kernel.candidates[res.cell_target(cell)]:
        xy = kernel.lcm(lcm, alpha)
        if xy is not None:
            x = xy[0]
            g = kernel.divide(f, x)
            if g >= 0:
                return alpha, x, g
    raise AssertionError(f"no atom divides {f}*lcm({cell})")


def prepared(res, cell):
    """The boundary of a cell of dimension >= 1 as the engine's contraction
    reads it: (multiplicity, rows of _lower) per term, leaving out the
    terms whose cell has no atom above it (an empty _above)."""
    return tuple((m, res._lower(w, c)) for (w, c), m in res._differential(cell).items() if res._above[c])


def walked_rows(res):
    """The rows of _lower that building the complex walked, per term (w, C):
    those held in the tails, and for each rest of a cell of dimension >= 2,
    read off the cell's record, the rows of its boundary's leading term,
    which _differential reads without a tail."""
    rows = {}
    for cell, tail in res._tails.items():
        terms = [term for term in itertools.islice(res._differential(cell), 1, None) if res._above[term[1]]]
        assert len(terms) == len(tail), cell
        rows.update((term, term_rows) for term, (_, term_rows) in zip(terms, tail))
    for layer in res.cells[2:]:
        for cell in layer:
            w, facet = next(iter(res._differential(res._cells[cell.atoms][2])))
            rows[(w, facet)] = res._lower(w, facet)
    return rows


def reduce_elem(res, f, cell):
    """The engine's reduction of the elementary chain f[cell]: the class of
    f's source on a zero cell, otherwise its contraction of f times the
    boundary of the cell."""
    if not cell.atoms:
        src = res.kernel.src[f]
        return {(src, Cell((), src)): 1}
    acc = {}
    res._contract(f, prepared(res, cell), acc, 1)
    return acc


def contracting_chain(res, chain):
    """The reference contracting homotopy, term by term: a term f[C] on a
    zero cell telescopes f down its canonical decomposition; otherwise,
    with alpha the least divisor of f*lcm(C) and f = g*x, it is 0 when
    alpha is C's first atom and g[alpha, C] + s(g * reduction(x[C]))
    when it is not.  The engine's reduction reduce_elem(res, f, C) must be
    this contraction of f times the boundary of C."""
    kernel = res.kernel
    acc = {}
    for (f, cell), m in chain.items():
        term = {}
        if not cell.atoms:
            while f >= kernel.n_objects:
                alpha, f = kernel.last[f], kernel.parent[f]
                term[(f, Cell((alpha,), res.struct.atom_source[alpha]))] = 1
        else:
            alpha, x, g = least_over(res, f, cell)
            if alpha == cell.atoms[0]:
                continue
            term[(g, Cell((alpha,) + cell.atoms, kernel.src[x]))] = 1
            chain_iadd(term, contracting_chain(res, act(res, g, reduce_elem(res, x, cell))))
        chain_iadd(acc, term, m)
    return acc


def irreducible(res, f, cell):
    """Whether f[cell] is irreducible: f*lcm(cell) has the cell's first atom
    as its least divisor, or f is an identity on a zero cell."""
    if not cell.atoms:
        return f < res.kernel.n_objects
    return least_over(res, f, cell)[0] == cell.atoms[0]


# -- the termination order (the reference for ACCEPTANCE 7) ----------------------


def node_length(kernel, node):
    return kernel.struct.word_length(kernel.word(node))


def left_divides(kernel, u, w):
    """Whether some h satisfies u*h = w, for nodes u and w of one kernel.

    Decided by stripping right-divisors of w down to the length of u.  This
    is a search, meant for checks and small structures.
    """
    lu = node_length(kernel, u)
    if kernel.src[u] != kernel.src[w] or lu > node_length(kernel, w):
        return False
    struct = kernel.struct
    seen = {w}
    stack = [(w, node_length(kernel, w))]
    while stack:
        node, length = stack.pop()
        if length == lu:
            if node == u:
                return True
            continue
        for a in struct.atoms_by_target[kernel.target(node)]:
            q = kernel.div(node, a)
            if q >= 0 and q not in seen:
                seen.add(q)
                stack.append((q, length - struct.atom_length[a]))
    return False


def precedes(res, term1, term2):
    """The well-founded comparison on elementary chains f[cell]: compare
    the composites f*lcm(cell) by proper left-divisibility, then first
    atoms."""
    (f, a_cell), (g, b_cell) = term1, term2
    wa = res.kernel.product(f, res._cell_lcm(a_cell))
    wb = res.kernel.product(g, res._cell_lcm(b_cell))
    if wa == wb:
        if not a_cell.atoms or not b_cell.atoms:
            return False
        return res.ordering.rank(a_cell.atoms[0]) < res.ordering.rank(b_cell.atoms[0])
    return left_divides(res.kernel, wa, wb)


def test_left_divides_matches_oracle():
    rng = random.Random(404)
    for name in ["A2", "G7", "G12", "G13", "G15", "G22"]:
        struct = artin_named(name) if name.startswith("A") else circulating_structure(name)
        kernel = struct.kernel()
        for _ in range(50):
            u = rewriting.random_word(rng, name, 3)
            w = rewriting.random_word(rng, name, 5)
            if not u or not w:
                continue
            expected = any(
                rewriting.equal(name, rep[: len(u)], u)
                for rep in rewriting.closure(name, w)
                if len(rep) >= len(u)
            )
            u_node, w_node = (kernel.intern(struct.word_from_names(x)) for x in (u, w))
            assert left_divides(kernel, u_node, w_node) == expected, (name, u, w)


# -- the recursion ---------------------------------------------------------------


def test_differential_on_one_cells(builtins):
    for struct in builtins.values():
        res = OrderResolution(struct, max_dim=1)
        for cell in res.cells[1]:
            d = res.differential(cell)
            a = cell.atoms[0]
            expected = {}
            atom = res.kernel.intern(Word(struct.atom_source[a], (a,)))
            chain_iadd(expected, {(atom, Cell((), struct.atom_target[a])): 1})
            chain_iadd(expected, {(struct.atom_source[a], Cell((), struct.atom_source[a])): 1}, -1)
            assert d == expected


def test_boundary_squared_zero_everywhere(builtins):
    for name, struct in builtins.items():
        for ordering in (None, optimize_ordering(struct)):
            res = OrderResolution(struct, ordering)
            check_boundary_squared(res)


def test_boundary_squared_zero_on_categories(two_cycle_category, cospan_category):
    check_boundary_squared(OrderResolution(two_cycle_category))
    check_boundary_squared(OrderResolution(cospan_category))


def test_all_orderings_of_rank_two_monoids():
    # exhaust the six total orderings: the complex must square to zero and
    # satisfy the homotopy identity under each, and homology must not depend
    # on the ordering
    rng = random.Random(1618)
    for family in ["G7", "G12", "G13", "G15", "G22"]:
        struct = circulating_structure(family)
        rows = set()
        for perm in itertools.permutations(range(3)):
            ordering = AtomOrdering.from_sequence(list(perm))
            res = OrderResolution(struct, ordering, max_dim=3)
            check_boundary_squared(res)
            for _ in range(25):
                word, cell = random_elementary(rng, res, max_dim=2, max_atoms=2)
                chain = {(word, cell): 1}
                s_of = contracting_chain(res, chain)
                lhs = boundary_chain(res, s_of) if s_of else {}
                assert lhs == chain_sub(chain, reduce_chain(res, chain))
            result = compute_homology(struct, make_system("trivial"), ordering, max_dim=3)
            rows.add(tuple((g.free_rank, tuple(g.torsion)) for g in result.groups))
        assert len(rows) == 1, family


def test_reduction_of_zero_chains():
    struct = artin_named("A2")
    res = OrderResolution(struct)
    x = struct.object_index["*"]
    empty = Cell((), x)
    # the identity chain is irreducible and fixed
    assert reduce_chain(res, {(x, empty): 1}) == {(x, empty): 1}
    # any other 0-chain reduces to the class of its source object
    f = res.kernel.intern(struct.word_from_names(["a", "b"]))
    assert reduce_chain(res, {(f, empty): 1}) == {(x, empty): 1}


def test_homotopy_identity_bulk(builtins):
    # boundary(contraction(c)) == c - reduction(c) on random elementary
    # chains, in every dimension below the top computed one
    rng = random.Random(777)
    for name, struct in builtins.items():
        res = OrderResolution(struct)
        top = len(res.cells) - 2
        for _ in range(200):
            word, cell = random_elementary(rng, res, max_dim=top, max_atoms=2)
            chain = {(word, cell): 1}
            s_of = contracting_chain(res, chain)
            lhs = boundary_chain(res, s_of) if s_of else {}
            rhs = chain_sub(chain, reduce_chain(res, chain))
            assert lhs == rhs, (name, word, cell)


def test_contraction_of_irreducible_is_zero(builtins):
    for struct in builtins.values():
        res = OrderResolution(struct)
        for n in range(len(res.cells)):
            for cell in res.cells[n][:4]:
                one = cell.src
                assert irreducible(res, one, cell)
                assert contracting_chain(res, {(one, cell): 1}) == {}


def test_reduction_fixes_irreducible_and_lowers_reducible():
    # (Q_n) on a sample: irreducible chains are fixed; reducible chains drop
    # strictly in the termination order
    rng = random.Random(424242)
    for name in ["A2", "A3", "G7", "G13", "G15"]:
        struct = artin_named(name) if name.startswith("A") else circulating_structure(name)
        res = OrderResolution(struct)
        checked_reducible = 0
        for _ in range(60):
            word, cell = random_elementary(rng, res, max_dim=len(res.cells) - 2, max_atoms=2)
            chain = {(word, cell): 1}
            reduced = reduce_chain(res, chain)
            if irreducible(res, word, cell):
                assert reduced == chain
            else:
                checked_reducible += 1
                for term in reduced:
                    assert precedes(res, term, (word, cell)), (name, word, cell, term)
        assert checked_reducible > 0


def test_reduction_preserves_boundary():
    # (P_n) on a sample: boundary(reduce(c)) == boundary(c)
    rng = random.Random(5150)
    for name in ["A2", "G7", "G12", "G13"]:
        struct = circulating_structure(name) if name.startswith("G") else artin_named(name)
        res = OrderResolution(struct)
        for _ in range(40):
            word, cell = random_elementary(rng, res, max_dim=len(res.cells) - 2, max_atoms=2)
            if not cell.atoms:
                continue
            chain = {(word, cell): 1}
            assert boundary_chain(res, reduce_chain(res, chain)) == boundary_chain(res, chain)


def test_reduction_is_idempotent_on_samples():
    rng = random.Random(8080)
    for name in ["A2", "G7", "G13"]:
        struct = circulating_structure(name) if name.startswith("G") else artin_named(name)
        res = OrderResolution(struct)
        for _ in range(40):
            word, cell = random_elementary(rng, res, max_dim=len(res.cells) - 2, max_atoms=2)
            once = reduce_chain(res, {(word, cell): 1})
            assert reduce_chain(res, once) == once


def test_specific_reducible_example():
    # (ba)[b] in the two-generator braid monoid is reducible: ba*b = bab
    # equals aba, whose least divisor is a, not b; (ab)[b] is irreducible
    # since nothing rewrites abb
    struct = artin_named("A2")
    res = OrderResolution(struct)
    b_cell = res.make_cell((struct.atom_index["b"],))
    ab = res.kernel.intern(struct.word_from_names(["a", "b"]))
    assert irreducible(res, ab, b_cell)
    ba = res.kernel.intern(struct.word_from_names(["b", "a"]))
    assert not irreducible(res, ba, b_cell)
    reduced = reduce_chain(res, {(ba, b_cell): 1})
    assert reduced
    for term in reduced:
        assert precedes(res, term, (ba, b_cell))


# -- skipping irreducible terms before forming g*w ------------------------------

LOWER_STRUCTS = {
    "A3": lambda: artin_named("A3"),
    "H3": lambda: artin_named("H3"),
    "G13": lambda: circulating_structure("G13"),
    "dualA3": lambda: dual_typeA_structure(3),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data(), st.randoms(use_true_random=False))
def test_lower_table_skips_exactly_the_irreducible_terms(name, data, rng):
    # the contracting homotopy drops a term g*w[C] of a reduction without
    # forming g*w when no p of _lower(w, C) right-divides g; that must
    # happen exactly when g*w[C] is irreducible, decided by least_over.
    # Otherwise the first p that does, g = h*p, gives the least divisor
    # and the quotient by its complement as least_over does.  A row whose
    # p has a last atom ranking below g's, which the contraction skips
    # without dividing, must be one that p does not divide
    struct = LOWER_STRUCTS[name]()  # cold kernels, so every example draws alike
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering)
    kernel, ranks = res.kernel, res.ordering.ranks
    by_target: dict[int, list[int]] = {x: [x] for x in range(kernel.n_objects)}
    for node in range(kernel.n_objects, len(kernel.last)):
        by_target[kernel.target(node)].append(node)
    # the terms of the reductions the recursion met: every boundary of a
    # cell of dimension >= 2 after its leading term, and both zero-cell
    # terms of each 1-cell's boundary (2-cell boundaries walk its leading
    # term, and every step onto a 1-cell its tail)
    terms = sorted({
        term
        for n in range(1, len(res.cells))
        for cell in res.cells[n]
        for term in itertools.islice(res._differential(cell), 0 if n == 1 else 1, None)
    })
    assert terms
    for w, cell in terms:
        for g in rng.sample(by_target[kernel.src[w]], min(4, len(by_target[kernel.src[w]]))):
            gw = kernel.product(g, w)
            hits = []
            for p, rank, new_cell, ys in res._lower(w, cell):
                assert rank == (ranks[kernel.last[p]] if p >= kernel.n_objects else -1)
                h = kernel.divide(g, p)
                if 0 <= rank < ranks[kernel.last[g]]:
                    assert h < 0, (name, w, cell, g, p)
                if h >= 0:
                    hits.append((new_cell, kernel.product(h, kernel.intern(Word(kernel.src[p], ys)))))
            assert (not hits) == irreducible(res, gw, cell), (name, w, cell, g)
            if hits:
                # only the first hit is a step, so only its [alpha, C] must be a cell
                alpha, x, quotient = least_over(res, gw, cell)
                assert hits[0] == (Cell((alpha,) + cell.atoms, kernel.src[x]), quotient), (name, w, cell, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data())
def test_reductions_match_the_reference_contraction(name, data):
    # the engine's contraction against the least-divisor definition, which
    # telescopes zero-cell terms down the trie: the boundary of every cell
    # c = [a, C] leads with u[C], u*lcm(C) = lcm(c), u being the one
    # enumeration recorded, and the rest of it is minus the reduction of
    # u[C]: the class of u's source when C is a zero cell, else the
    # contraction of u times the boundary of C
    struct = LOWER_STRUCTS[name]()
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering)
    cells = [cell for n in range(1, len(res.cells)) for cell in res.cells[n]]
    assert any(cell.dim >= 2 for cell in cells)
    for cell in cells:
        d = res._differential(cell)
        (u, rest), m = next(iter(d.items()))
        assert m == 1 and rest.atoms == cell.atoms[1:], (name, cell)
        assert res.cell_target(rest) == res.cell_target(cell), (name, cell)
        assert res.kernel.product(u, res._cell_lcm(rest)) == res._cell_lcm(cell), (name, cell)
        if rest.atoms:
            expected = contracting_chain(res, act(res, u, res._differential(rest)))
        else:
            src = res.kernel.src[u]
            expected = {(src, Cell((), src)): 1}
        assert chain_sub({(u, rest): 1}, d) == expected, (name, cell)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data())
def test_contraction_adds_into_the_given_chain(name, data):
    # _contract(g, entries, acc, m) adds m times the contraction of g
    # times a chain to acc in place: acc ends as a copy of it plus m times
    # the contraction into {}, and entries that cancel are deleted.  The
    # chain is a drawn boundary of dimension >= 1, so the contraction's
    # steps are met
    struct = LOWER_STRUCTS[name]()
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering)
    kernel = res.kernel
    cell = data.draw(st.sampled_from([cell for layer in res.cells[1:] for cell in layer]))
    g = data.draw(st.sampled_from([node for node in range(len(kernel.last)) if kernel.target(node) == cell.src]))
    m = data.draw(st.sampled_from([1, -1, 2, -3]))
    entries = prepared(res, cell)
    fresh = {}
    res._contract(g, entries, fresh, 1)
    # the start cancels some terms of m times the contraction, shifts
    # others, and holds one term the contraction cannot reach
    acc = {(kernel.src[g], Cell((), kernel.src[g])): 7}
    for key, k in fresh.items():
        start = data.draw(st.sampled_from([-m * k, 0, 1]))
        if start:
            acc[key] = start
    expected = chain_iadd(dict(acc), fresh, m)
    res._contract(g, entries, acc, m)
    assert acc == expected, (name, cell, g, m)
    assert all(acc.values()), (name, cell, g, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data())
def test_prepared_tails_match_their_definition(name, data):
    # a cell's tail, built on the first step onto it, is (multiplicity,
    # _lower rows) per term of its boundary after the leading one, minus
    # the terms whose cell has an empty _above.  The top enumerated degree
    # is terminal: nothing steps onto its cells, so none of them has a
    # tail
    struct = LOWER_STRUCTS[name]()
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering)
    # each boundary of dimension >= 2 walks its rest's tail
    assert {cell.atoms[1:] for layer in res.cells[2:] for cell in layer} <= {cell.atoms for cell in res._tails}
    for cell, tail in res._tails.items():
        assert 1 <= cell.dim < len(res.cells) - 1, (name, cell)
        assert tail == prepared(res, cell)[1:], (name, cell)


def test_contraction_divides_by_an_identity_p():
    # a row of _lower whose p is an identity (alpha already divides w*L)
    # divides every g, so the contraction must never skip it, whatever
    # rank g's last atom has.  The boundary of a cell of dimension >= 2
    # meets such rows in the leading term of its rest's boundary.  Under
    # the reversed ordering ranks[-1], the rank an identity's last atom
    # (-1) would read, is the lowest, so every g taken here ranks above it
    checked = 0
    for struct in [artin_named("A3"), artin_named("H3"), dual_typeA_structure(3)]:
        n = struct.n_atoms
        res = build_complex(struct, AtomOrdering.from_sequence(range(n)[::-1]))
        kernel, ranks = res.kernel, res.ordering.ranks
        for (w, cell), rows in walked_rows(res).items():
            identity_row = next((row for row in rows if row[0] < kernel.n_objects), None)
            if identity_row is None:
                continue
            for g in range(kernel.n_objects, min(len(kernel.last), 300)):
                if kernel.target(g) != kernel.src[w] or ranks[kernel.last[g]] <= ranks[n - 1]:
                    continue
                # g*w[cell] contracts through the identity row when its alpha is least
                gw = kernel.product(g, w)
                if least_over(res, gw, cell)[0] != identity_row[2].atoms[0]:
                    continue
                acc = {}
                res._contract(g, ((1, rows),), acc, 1)
                assert acc and acc == contracting_chain(res, {(gw, cell): 1}), (w, cell, g)
                checked += 1
    assert checked


def lower_rows(res, w, cell):
    """The reference for res._lower(w, cell), L the cell's lcm: for each
    atom alpha below the cell's first one (every atom at a zero cell's
    target, where L is the identity), reverse w*L against alpha for p
    with p*w*L = lcm(alpha, w*L), then y = p*w/x with x*L = lcm(alpha, L);
    the row holds p, the rank of p's last atom (-1 for an identity), the
    cell [alpha, C] when it is one, and y spelled."""
    kernel = res.kernel
    lcm = res._cell_lcm(cell)
    wl = kernel.product(w, lcm)
    rows = []
    for alpha in kernel.candidates[res.cell_target(cell)]:
        if cell.atoms and alpha == cell.atoms[0]:
            break
        pq = kernel.lcm(wl, alpha)
        if pq is not None:
            p, x = pq[0], kernel.lcm(lcm, alpha)[0]
            y = kernel.divide(kernel.product(p, w), x)
            atoms = (alpha,) + cell.atoms
            new_cell = res.make_cell(atoms) if is_cell(res, atoms) else None
            rank = res.ordering.rank(kernel.word(p).atoms[-1]) if p >= kernel.n_objects else -1
            rows.append((p, rank, new_cell, kernel.word(y).atoms))
    return tuple(rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data())
def test_lower_rows_match_the_reference(name, data):
    # _lower reads each row off the left-lcm of w and x and never forms
    # w*L: every row that build_complex walked must be the one reversing
    # w*L against alpha gives, and no walked term's cell has an empty
    # _above (such terms are never reducible)
    struct = LOWER_STRUCTS[name]()
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering)
    walked = walked_rows(res)
    assert walked or not any(res.cells[2:]), name
    for (w, cell), rows in walked.items():
        assert rows == lower_rows(res, w, cell), (name, w, cell)
        assert res._above[cell], (name, w, cell)


def cells_above(res, cell):
    """The reference for res._above[cell], L the cell's lcm: for each atom
    alpha at the cell's target ranking below its first atom (every atom
    there, for a zero cell), in increasing rank, with x*L = lcm(alpha, L)
    when that lcm exists: alpha, x and the cell [alpha, C] when the cell
    condition holds, else None."""
    kernel, ranks, struct = res.kernel, res.ordering.ranks, res.struct
    target, bound = res.cell_target(cell), ranks[cell.atoms[0]] if cell.atoms else len(ranks)
    lcm = res._cell_lcm(cell)
    above = []
    for alpha in sorted(range(struct.n_atoms), key=ranks.__getitem__):
        if struct.atom_target[alpha] != target or ranks[alpha] >= bound:
            continue
        xy = kernel.lcm(lcm, alpha)
        if xy is not None:
            x = xy[0]
            atoms = (alpha,) + cell.atoms
            above.append((alpha, x, res.make_cell(atoms) if is_cell(res, atoms) else None))
    return tuple(above)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LOWER_STRUCTS)), st.data())
def test_cells_above_match_their_definition(name, data):
    # enumeration decides once, per cell C below the top dimension, which
    # atoms alpha below C's first one have an lcm over C and whether
    # [alpha, C] is a cell; _lower and _tail only read that record
    struct = LOWER_STRUCTS[name]()
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = OrderResolution(struct, ordering)
    below_top = [cell for layer in res.cells[:-1] for cell in layer]
    assert sorted(res._above) == sorted(below_top), name
    for cell in below_top:
        assert res._above[cell] == cells_above(res, cell), (name, cell)


def test_term_lcm_off_the_cell_lcm_is_refused():
    # dual A3 with one complement changed: every lcm fold agrees, but past
    # the word kernel the contraction would meet a cell [alpha, C] whose lcm
    # x*lcm(C) does not end in alpha, the least divisor of the term it came
    # from.  The table fails the cube condition, so no kernel is built on it
    struct = parse_structure(INCONSISTENT_TABLES["term lcm not a multiple"])
    with pytest.raises(ConsistencyError, match=r"^cube condition fails on \(t01,t02,t23\): "):
        build_complex(struct, max_dim=3)


def test_e6_complex_work_bound():
    # the trie count is deterministic: 7,010 nodes when each cell keeps the
    # complement u enumeration found; 7,237 when each boundary divided the
    # cell lcm by its rest's lcm to get u again; 9,873 when each lcm step
    # formed the lcm word and divided it again, before it read both
    # complements off one reversal; 14,454 when each row of _lower formed
    # w*L and reversed it against every lower atom; 15,820 when reductions
    # formed f*w through _act and found least divisors over per-cell
    # complements
    struct = artin_named("E6")
    res = build_complex(struct, optimize_ordering(struct))
    assert len(res.kernel.last) <= 7_073
    # terms whose cell has an empty _above, the only ones with no rows on
    # E6, are never walked
    assert all(walked_rows(res).values())


def test_e6_word_kernel_bytes():
    # what the word kernel allocates while E6's complex is built, measured
    # when each boundary still divided out its leading complement: 855,260 B
    # at 7,237 trie nodes with _mul and src arrays, 879,396 with src a list,
    # 1,286,720 with _mul a dict and every field a list.  About 271 KB of
    # them are the _lcm memo's keys, dict and pairs, which do not scale with
    # the trie, so the bytes are bounded, not bytes per node, and a smaller
    # trie does not tighten the test.  The bound, 120 B for each of those
    # 7,237 nodes, sits between the flat layout and the dict one; traced
    # bytes include spare capacity, which follows the interpreter's growth
    # policy, so the types are checked on their own
    struct = artin_named("E6")
    ordering = optimize_ordering(struct)
    tracemalloc.start()
    try:
        res = build_complex(struct, ordering)
        snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, gaussian.__file__)])
    finally:
        tracemalloc.stop()
    traced = sum(stat.size for stat in snapshot.statistics("filename"))
    assert traced <= 868_440
    assert isinstance(res.kernel._mul, array) and isinstance(res.kernel.src, array)


def test_e7_complex_work_bound():
    # 9,182 trie nodes to dimension 6 when each cell keeps the complement
    # u enumeration found; 9,777 when each boundary divided it out again;
    # 13,432 with rows from lcm(w, x) before each lcm step read both
    # complements off one reversal; 21,714 when each row formed w*L
    struct = artin_named("E7")
    res = build_complex(struct, optimize_ordering(struct), max_dim=6)
    assert len(res.kernel.last) <= 13_405


def test_h4_complex_work_bound():
    # 12,471 trie nodes under the auto ordering when each cell keeps the
    # complement u enumeration found; 12,539 when each boundary divided it
    # out again; 12,667 before each lcm step read both complements off one
    # reversal.  The word kernel takes its trivial steps (a quotient by the
    # last atom, an early refusal, a product already in the memo) in place,
    # and must not create nodes that the calls would not
    struct = artin_named("H4")
    res = build_complex(struct, optimize_ordering(struct), max_dim=5)
    assert len(res.kernel.last) <= 12_632


def test_kernel_lengths_match_spelled_words(builtins, two_cycle_category):
    # every node the kernel creates carries its length, which atom lengths
    # other than 1 (the two-cycle category's are 2 and 1) set apart from
    # its depth in the trie
    for name, struct in [*builtins.items(), ("two-cycle", two_cycle_category)]:
        kernel = build_complex(struct).kernel
        assert len(kernel.length) == len(kernel.last), name
        for node in range(len(kernel.last)):
            assert kernel.length[node] == struct.word_length(kernel.word(node)), (name, node)


def rewriting_euler(name):
    """Sum over the subsets X of the atoms a, b, c of (-1)^|X| t^|lcm X|,
    each lcm found by rewriting the presentation in tests/rewriting.py:
    the pairs' by `rewriting.lcm`, the triple's as the shortest common
    left-multiple of lcm(a, b) and c."""
    atoms = rewriting.PRESENTATIONS[name][0]
    assert atoms == "abc"
    out = {0: 1, 1: -3}
    for a, b in itertools.combinations(atoms, 2):
        e = len(rewriting.lcm(name, a, b))
        out[e] = out.get(e, 0) + 1
    multiples = rewriting.common_left_multiples(name, rewriting.lcm(name, "a", "b"), ("c",), 6)
    e = min(len(w) for w in multiples)
    out[e] = out.get(e, 0) - 1
    return {e: c for e, c in out.items() if c}


def test_cells_satisfy_the_graded_euler_identity():
    # sum over n-cells c of (-1)^n t^|lcm c| is the inverse growth series
    # of the monoid, so under any ordering it equals the same sum over the
    # subsets of the atoms: for Artin types from the degrees
    # (tests/oracles.py), for the rank-two monoids of the complex braid
    # groups from their presentations alone, for the dual braid monoids of
    # type A from noncrossing partitions
    rng = random.Random(4242)
    cases = (
        [
            (name, artin_named(name), oracles.graded_euler(coxeter_matrix(name)))
            for name in ["A2", "A3", "B3", "B4", "D4", "D5", "I2(7)", "F4", "H3", "H4", "E6", "E7"]
        ]
        + [(name, circulating_structure(name), rewriting_euler(name)) for name in ["G7", "G12", "G13", "G15", "G22"]]
        + [(f"dual A{n}", dual_typeA_structure(n), oracles.dual_graded_euler(n)) for n in (2, 3, 4)]
    )
    for name, struct, expected in cases:
        for _ in range(3):
            order = rng.sample(range(struct.n_atoms), struct.n_atoms)
            res = OrderResolution(struct, AtomOrdering.from_sequence(order))
            series = {}
            for n, layer in enumerate(res.cells):
                for cell in layer:
                    e = res.kernel.length[res._cell_lcm(cell)]
                    series[e] = series.get(e, 0) + (-1) ** n
            assert {e: c for e, c in series.items() if c} == expected, (name, order)


def spelled(res):
    """Each boundary of dimension >= 1, its coefficients spelled as Words."""
    word = res.kernel.word
    return {
        cell: {(word(w), facet): m for (w, facet), m in res.differential(cell).items()}
        for layer in res.cells[1:]
        for cell in layer
    }


def test_build_complex_shape():
    # build_complex returns the resolution with one cached chain per
    # enumerated cell of dimension >= 1; compute_homology keeps it
    struct = artin_named("A3")
    res = build_complex(struct, max_dim=3)
    assert isinstance(res, OrderResolution)
    assert res.cell_counts() == [1, 3, 3, 1]
    assert sorted(res._diff_cache) == sorted(cell for layer in res.cells[1:] for cell in layer)
    chains = spelled(res)
    assert {cell for cell in chains if cell.dim == 2} == set(res.cells[2])
    assert all(isinstance(w, Word) for chain in chains.values() for w, _ in chain)
    with pytest.raises(PreconditionError):
        res.differential(res.cells[0][0])
    assert compute_homology(struct, make_system("trivial")).resolution.struct is struct


def test_dual_a3_counts():
    struct = dual_typeA_structure(3)
    bounds = two_cell_bounds(struct)
    res = OrderResolution(struct, optimize_ordering(struct), max_dim=3)
    assert bounds.lower <= res.cell_counts()[2] <= bounds.upper
    check_boundary_squared(res)


def test_checks_flag_a_tampered_complex():
    # specialize's facet check and the test-owned d∘d check, each on a
    # built A3 complex with one boundary edited
    res = build_complex(artin_named("A3"))
    top = res.cells[3][0]
    boundary = res.differential(top)
    (node, facet), m = next(iter(boundary.items()))
    off = Cell(facet.atoms[::-1], facet.src)
    assert off not in res.cells[2]
    res._diff_cache[top] = {**boundary, (node, off): m}
    with pytest.raises(ConsistencyError, match="which is not a cell"):
        specialize(res, make_system("trivial"))

    res = build_complex(artin_named("A3"))
    cell = res.cells[2][0]
    boundary = res._differential(cell)
    res._diff_cache[cell] = chain_iadd(dict(boundary), dict([next(iter(boundary.items()))]))
    with pytest.raises(ConsistencyError, match="boundary of boundary is nonzero"):
        check_boundary_squared(res)


# -- pinned differentials ---------------------------------------------------------

# Boundaries of build_complex under the auto ordering, recorded with the
# Word-keyed kernel that preceded interned word ids.  Cell -> its boundary's
# terms "multiplicity coefficient[cell]", sorted; "1" is the identity and
# "[]" the zero cell.
BOUNDARIES_AT_AUTO_ORDERING = {
    "A3": {
        "a": "+1 a[]  -1 1[]",
        "b": "+1 b[]  -1 1[]",
        "c": "+1 c[]  -1 1[]",
        "ab": "+1 1[b]  +1 b[a]  +1 ba[b]  -1 1[a]  -1 a[b]  -1 ab[a]",
        "ac": "+1 1[a]  +1 a[c]  -1 1[c]  -1 c[a]",
        "bc": "+1 1[c]  +1 c[b]  +1 cb[c]  -1 1[b]  -1 b[c]  -1 bc[b]",
        "abc": (
            "+1 a[bc]  +1 abc[ab]  +1 b[ac]  +1 c[ab]  +1 cab[ac]  +1 cba[bc]  -1 1[ab]  "
            "-1 1[ac]  -1 1[bc]  -1 ab[ac]  -1 ba[bc]  -1 bc[ab]  -1 bcab[ac]  -1 cb[ac]"
        ),
    },
    "G13": {
        "b": "+1 b[]  -1 1[]",
        "a": "+1 a[]  -1 1[]",
        "c": "+1 c[]  -1 1[]",
        "ba": (
            "+1 1[b]  +1 b[c]  +1 bc[a]  +1 bca[b]  +1 bcab[a]  -1 1[a]  -1 a[b]  "
            "-1 ab[c]  -1 abc[a]  -1 abca[b]"
        ),
        "bc": "+1 1[c]  +1 c[a]  +1 ca[b]  +1 cab[c]  -1 1[b]  -1 b[c]  -1 bc[a]  -1 bca[b]",
    },
    "H3": {
        "a": "+1 a[]  -1 1[]",
        "b": "+1 b[]  -1 1[]",
        "c": "+1 c[]  -1 1[]",
        "ab": (
            "+1 1[b]  +1 b[a]  +1 ba[b]  +1 bab[a]  +1 baba[b]  -1 1[a]  -1 a[b]  "
            "-1 ab[a]  -1 aba[b]  -1 abab[a]"
        ),
        "ac": "+1 1[a]  +1 a[c]  -1 1[c]  -1 c[a]",
        "bc": "+1 1[c]  +1 c[b]  +1 cb[c]  -1 1[b]  -1 b[c]  -1 bc[b]",
        "abc": (
            "+1 1[ab]  +1 1[ac]  +1 1[bc]  +1 ab[ac]  +1 abab[ac]  +1 ababcbab[ac]  "
            "+1 abcaba[bc]  +1 abcababc[ab]  +1 abcababcabab[ac]  +1 abcababcbaba[bc]  "
            "+1 abcbab[ac]  +1 ba[bc]  +1 baba[bc]  +1 babc[ab]  +1 babcab[ac]  "
            "+1 babcabab[ac]  +1 babcbaba[bc]  +1 bc[ab]  +1 bcab[ac]  +1 bcabab[ac]  "
            "+1 bcababcbab[ac]  +1 bcbaba[bc]  +1 caba[bc]  +1 cababc[ab]  "
            "+1 cababcabab[ac]  +1 cababcbaba[bc]  +1 cb[ac]  +1 cbab[ac]  "
            "+1 cbabcaba[bc]  +1 cbabcababc[ab]  +1 cbabcbab[ac]  -1 a[bc]  -1 aba[bc]  "
            "-1 ababc[ab]  -1 ababcabab[ac]  -1 ababcbaba[bc]  -1 abc[ab]  -1 abcab[ac]  "
            "-1 abcabab[ac]  -1 abcababcbab[ac]  -1 abcbaba[bc]  -1 b[ac]  -1 bab[ac]  "
            "-1 babcaba[bc]  -1 babcababc[ab]  -1 babcababcabab[ac]  -1 babcbab[ac]  "
            "-1 bcaba[bc]  -1 bcababc[ab]  -1 bcababcabab[ac]  -1 bcababcbaba[bc]  "
            "-1 bcbab[ac]  -1 c[ab]  -1 cab[ac]  -1 cabab[ac]  -1 cababcbab[ac]  "
            "-1 cba[bc]  -1 cbaba[bc]  -1 cbabc[ab]  -1 cbabcab[ac]  -1 cbabcabab[ac]  "
            "-1 cbabcbaba[bc]"
        ),
    },
}


def spell_boundaries(struct, res):
    def spell(atoms):
        return "".join(struct.atom_names[a] for a in atoms)

    return {
        spell(cell.atoms): "  ".join(
            sorted(f"{m:+d} {spell(w.atoms) or '1'}[{spell(c.atoms)}]" for (w, c), m in chain.items())
        )
        for cell, chain in spelled(res).items()
    }


def test_differentials_match_recorded():
    for name, struct in [
        ("A3", artin_named("A3")),
        ("G13", circulating_structure("G13")),
        ("H3", artin_named("H3")),
    ]:
        spelled = spell_boundaries(struct, build_complex(struct, optimize_ordering(struct)))
        expected = BOUNDARIES_AT_AUTO_ORDERING[name]
        assert list(spelled) == list(expected), name
        assert spelled == expected, name


def test_orderings_on_one_structure_keep_their_own_ids():
    # each ordering interns its canonical words in a trie of its own, so
    # building under one ordering leaves the other's ids and results alone
    # (the `cells --compare-orderings` path); on H3 the auto ordering is
    # the identity, so the reversed one stands in for it
    for name, make, second in [
        ("G13", circulating_structure, optimize_ordering),
        ("H3", artin_named, lambda s: AtomOrdering.from_sequence(range(s.n_atoms)[::-1])),
    ]:
        shared = make(name)
        identity, other = shared.default_ordering(), second(shared)
        assert identity != other
        first = spelled(build_complex(shared, identity))
        then = spelled(build_complex(shared, other))
        assert shared.kernel(identity) is not shared.kernel(other)
        assert first == spelled(build_complex(make(name), identity))
        assert then == spelled(build_complex(make(name), other))
        assert first != then


def stack_depth():
    depth = 0
    frame = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_e8_cells_enumerate_within_depth_bound():
    # enumeration reverses lcms of atom sets, each a divisor of E8's Delta
    # (120 atoms), nesting once per atom at most; it takes about 115
    # frames under the optimized ordering, so 160 leave room to spare
    struct = artin_named("E8")
    ordering = optimize_ordering(struct)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 160)
    try:
        res = OrderResolution(struct, ordering)
    finally:
        sys.setrecursionlimit(limit)
    assert res.cell_counts() == [math.comb(8, k) for k in range(9)]


def test_h4_complex_builds_within_depth_bound():
    # the contraction steps run off an explicit stack, so a boundary nests
    # once per dimension, and the deepest frames are enumeration's lcm
    # folds: under the optimized ordering the H4 build takes 54 frames
    # and its enumeration alone 53, so 60 hold it
    struct = artin_named("H4")
    ordering = optimize_ordering(struct)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        res = build_complex(struct, ordering)
    finally:
        sys.setrecursionlimit(limit)
    assert res.cell_counts() == [1, 4, 6, 4, 1]


def test_long_two_cell_boundaries_build_within_depth_bound():
    # the boundary of I2(300)'s 2-cell contracts its zero-cell terms one
    # atom at a time, about 300 steps deep; they run off an explicit
    # stack, so the Laurent-Q row computed 40 frames above the caller
    # equals the row computed without that limit
    system = make_system("laurent", "Q")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        guarded = compute_homology(artin_named("I2(300)"), system)
    finally:
        sys.setrecursionlimit(limit)
    free = compute_homology(artin_named("I2(300)"), system)
    assert [(g.free_rank, g.torsion) for g in guarded.groups] == [(g.free_rank, g.torsion) for g in free.groups]
