"""Cell enumeration, ordering optimization, and the recursion's contracts."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewriting
from garside_homology import (
    AtomOrdering,
    PreconditionError,
    Word,
    artin_named,
    circulating_structure,
    dual_typeA_structure,
)
from garside_homology.resolution import (
    Cell,
    OrderResolution,
    build_complex,
    chain_iadd,
    chain_sub,
    optimize_ordering,
    resolve_ordering,
    two_cell_bounds,
)


def ordering_by_names(struct, names):
    return AtomOrdering.from_sequence([struct.atom_index[n] for n in names])


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
                assert res.is_cell(cell.atoms)
                # facets of a cell are cells
                assert res.is_cell(cell.atoms[1:])


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
                        if res.is_cell(combo):
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
        chain_iadd(acc, res._reduce_elem(f, cell), m)
    return acc


def irreducible(res, f, cell):
    """Whether f[cell] is irreducible: f*lcm(cell) has the cell's first atom
    as its least divisor, or f is an identity on a zero cell."""
    if not cell.atoms:
        return f < res.kernel.n_objects
    return res._least_over(f, cell)[0] == cell.atoms[0]


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
            res.check_boundary_squared()


def test_boundary_squared_zero_on_categories(two_cycle_category, cospan_category):
    OrderResolution(two_cycle_category).check_boundary_squared()
    OrderResolution(cospan_category).check_boundary_squared()


def test_all_orderings_of_rank_two_monoids():
    # exhaust the six total orderings: the complex must square to zero and
    # satisfy the homotopy identity under each, and homology must not depend
    # on the ordering
    from garside_homology.coefficients import make_system
    from garside_homology.homology import compute_homology

    rng = random.Random(1618)
    for family in ["G7", "G12", "G13", "G15", "G22"]:
        struct = circulating_structure(family)
        rows = set()
        for perm in itertools.permutations(range(3)):
            ordering = AtomOrdering.from_sequence(list(perm))
            res = OrderResolution(struct, ordering, max_dim=3)
            res.check_boundary_squared()
            for _ in range(25):
                word, cell = random_elementary(rng, res, max_dim=2, max_atoms=2)
                chain = {(word, cell): 1}
                s_of = res._contracting_chain(chain)
                lhs = res._boundary_chain(s_of) if s_of else {}
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
            s_of = res._contracting_chain(chain)
            lhs = res._boundary_chain(s_of) if s_of else {}
            rhs = chain_sub(chain, reduce_chain(res, chain))
            assert lhs == rhs, (name, word, cell)


def test_contraction_of_irreducible_is_zero(builtins):
    for struct in builtins.values():
        res = OrderResolution(struct)
        for n in range(len(res.cells)):
            for cell in res.cells[n][:4]:
                one = cell.src
                assert irreducible(res, one, cell)
                assert res._contracting_chain({(one, cell): 1}) == {}


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
            assert res._boundary_chain(reduce_chain(res, chain)) == res._boundary_chain(chain)


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


def test_memoized_and_plain_differentials_agree(builtins):
    for name, struct in builtins.items():
        fast = OrderResolution(struct, memo=True)
        slow = OrderResolution(struct, memo=False)
        for n in range(1, len(fast.cells)):
            for cell in fast.cells[n]:
                assert fast.differential(cell) == slow.differential(cell), (name, cell)


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
    # happen exactly when g*w[C] is irreducible, decided by _least_over.
    # Otherwise the first p that does, g = h*p, gives the least divisor
    # and the quotient by its complement as _least_over does
    struct = LOWER_STRUCTS[name]()  # cold kernels, so every example draws alike
    ordering = AtomOrdering.from_sequence(data.draw(st.permutations(range(struct.n_atoms))))
    res = build_complex(struct, ordering).resolution
    kernel = res.kernel
    by_target: dict[int, list[int]] = {x: [x] for x in range(kernel.n_objects)}
    for node in range(kernel.n_objects, len(kernel.last)):
        by_target[kernel.target(node)].append(node)
    terms = sorted({term for chain in res._reduce_cache.values() for term in chain})
    assert terms
    for w, cell in terms:
        for g in rng.sample(by_target[kernel.src[w]], min(4, len(by_target[kernel.src[w]]))):
            gw = kernel.product(g, w)
            hits = [(kernel.divide(g, p), alpha, x, y) for p, alpha, x, y in res._lower(w, cell)]
            hits = [(alpha, x, kernel.product(h, y)) for h, alpha, x, y in hits if h >= 0]
            assert (not hits) == irreducible(res, gw, cell), (name, w, cell, g)
            if hits:
                assert hits[0] == res._least_over(gw, cell), (name, w, cell, g)


def test_e6_complex_work_bound():
    # the trie count is deterministic: 15,820 nodes when contractions form
    # no g*w, 20,052 when they form it for the reducible terms only, and
    # 33,948 when they form it for every term
    struct = artin_named("E6")
    res = build_complex(struct, optimize_ordering(struct)).resolution
    assert len(res.kernel.last) <= 17_000


def test_build_complex_shape():
    cx = build_complex(artin_named("A3"), max_dim=3)
    assert cx.cell_counts() == [1, 3, 3, 1]
    assert set(cx.boundaries[2]) == set(cx.cells[2])
    with pytest.raises(PreconditionError):
        cx.resolution.differential(cx.cells[0][0])


def test_dual_a3_counts():
    struct = dual_typeA_structure(3)
    bounds = two_cell_bounds(struct)
    res = OrderResolution(struct, optimize_ordering(struct), max_dim=3)
    assert bounds.lower <= res.cell_counts()[2] <= bounds.upper
    res.check_boundary_squared()


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


def spell_boundaries(struct, cx):
    def spell(atoms):
        return "".join(struct.atom_names[a] for a in atoms)

    out = {}
    for n in range(1, len(cx.boundaries)):
        for cell in cx.cells[n]:
            terms = sorted(
                f"{m:+d} {spell(w.atoms) or '1'}[{spell(c.atoms)}]"
                for (w, c), m in cx.boundaries[n][cell].items()
            )
            out[spell(cell.atoms)] = "  ".join(terms)
    return out


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
        first = build_complex(shared, identity).boundaries
        then = build_complex(shared, other).boundaries
        assert shared.kernel(identity) is not shared.kernel(other)
        assert first == build_complex(make(name), identity).boundaries
        assert then == build_complex(make(name), other).boundaries
        assert first != then


def test_e8_cells_enumerate_within_depth_bound():
    # enumeration reverses lcms of atom sets, each a divisor of E8's Delta
    # (120 atoms), nesting once per atom at most; it takes about 115
    # frames under the optimized ordering, so 160 leave room to spare
    struct = artin_named("E8")
    ordering = optimize_ordering(struct)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 160)
    try:
        res = OrderResolution(struct, ordering)
    finally:
        sys.setrecursionlimit(limit)
    assert res.cell_counts() == [math.comb(8, k) for k in range(9)]
