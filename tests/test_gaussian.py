"""Core word arithmetic checked against the raw presentations."""

import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewriting
from garside_homology import (
    AtomOrdering,
    ConsistencyError,
    GaussianStructure,
    PreconditionError,
    Word,
    artin_named,
    build_complex,
    builtin_structure,
    circulating_structure,
    optimize_ordering,
    parse_structure,
    serialize_structure,
)
from garside_homology import gaussian

ORACLE_STRUCTS = {
    "A2": artin_named("A2"),
    "G7": circulating_structure("G7"),
    "G12": circulating_structure("G12"),
    "G13": circulating_structure("G13"),
    "G15": circulating_structure("G15"),
    "G22": circulating_structure("G22"),
}


def wordify(struct, letters):
    return struct.word_from_names(list(letters), "*" if not letters else None)


def same_morphism(struct, u, v):
    return struct.canonical_form(u) == struct.canonical_form(v)


def stack_depth():
    """The number of frames on the caller's stack, itself included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def left_lcm(struct, atoms):
    """The left-lcm of atoms sharing a target, as a canonical word, with the
    word c_a such that c_a*a = lcm for each atom a; None without one."""
    kernel = struct.kernel()
    node = kernel.join(atoms)
    if node < 0:
        return None
    lcm = kernel.word(node)
    return lcm, {a: struct.quotient_atom(lcm, a) for a in atoms}


def test_right_divides_spec_examples():
    a2 = ORACLE_STRUCTS["A2"]
    sts = wordify(a2, "aba")
    assert a2.quotient_atom(sts, a2.atom_index["a"]) is not None  # suffix
    # the braid relation makes the other generator divide too
    assert "b" in rewriting.right_divisors("A2", "aba")
    assert a2.quotient_atom(sts, a2.atom_index["b"]) is not None
    g12 = ORACLE_STRUCTS["G12"]
    ab = wordify(g12, "ab")
    assert rewriting.right_divisors("G12", "ab") == {"b"}
    assert g12.quotient_atom(ab, g12.atom_index["a"]) is None


def test_right_divides_target_mismatch(cospan_category):
    s = cospan_category
    p = s.word_from_names(["p"])
    # same target, no division
    assert s.quotient_atom(p, s.atom_index["q"]) is None
    # an atom whose target differs from the word's divides nothing
    assert s.quotient_atom(s.identity(s.object_index["y"]), s.atom_index["p"]) is None


def test_right_divides_matches_oracle():
    rng = random.Random(20240811)
    for name, struct in ORACLE_STRUCTS.items():
        for _ in range(120):
            letters = rewriting.random_word(rng, name, 5)
            if not letters:
                continue
            w = wordify(struct, letters)
            divisors = rewriting.right_divisors(name, letters)
            for atom_name in rewriting.PRESENTATIONS[name][0]:
                got = struct.quotient_atom(w, struct.atom_index[atom_name]) is not None
                assert got == (atom_name in divisors), (name, letters, atom_name)


def test_left_quotient_spec_examples():
    a2 = ORACLE_STRUCTS["A2"]
    sts = wordify(a2, "aba")
    assert a2.word_names(a2.quotient_atom(sts, a2.atom_index["a"])) == ["a", "b"]
    quotient_by_b = a2.quotient_atom(sts, a2.atom_index["b"])
    assert same_morphism(a2, quotient_by_b, wordify(a2, "ba"))
    # oracle cross-check: some representative of aba ends in b and strips to ba
    assert rewriting.equal("A2", rewriting.left_quotient("A2", "aba", "b"), "ba")
    one = a2.quotient_atom(wordify(a2, "a"), a2.atom_index["a"])
    assert one == a2.identity(a2.atom_source[a2.atom_index["a"]])
    assert ORACLE_STRUCTS["G12"].quotient_atom(wordify(ORACLE_STRUCTS["G12"], "ab"), 0) is None


def test_left_quotient_reassembles():
    rng = random.Random(99)
    for name, struct in ORACLE_STRUCTS.items():
        for _ in range(80):
            letters = rewriting.random_word(rng, name, 5)
            if not letters:
                continue
            w = wordify(struct, letters)
            for atom_name in rewriting.PRESENTATIONS[name][0]:
                a = struct.atom_index[atom_name]
                g = struct.quotient_atom(w, a)
                if g is not None:
                    back = Word(g.src, g.atoms + (a,))
                    assert same_morphism(struct, back, w)


def test_word_equal_matches_oracle():
    rng = random.Random(7)
    for name, struct in ORACLE_STRUCTS.items():
        for _ in range(100):
            u = rewriting.random_word(rng, name, 5)
            v = rewriting.random_word(rng, name, 5)
            if not u or not v:
                continue
            expected = rewriting.equal(name, u, v)
            assert same_morphism(struct, wordify(struct, u), wordify(struct, v)) == expected


def test_word_equal_defining_relations():
    a2 = ORACLE_STRUCTS["A2"]
    assert same_morphism(a2, wordify(a2, "aba"), wordify(a2, "bab"))
    g12 = ORACLE_STRUCTS["G12"]
    assert same_morphism(g12, wordify(g12, "abca"), wordify(g12, "bcab"))
    assert same_morphism(g12, wordify(g12, "abca"), wordify(g12, "cabc"))


def test_identity_words_at_distinct_objects_differ(two_cycle_category):
    s = two_cycle_category
    assert not same_morphism(s, s.identity(0), s.identity(1))


def test_canonical_form_idempotent_and_sound():
    rng = random.Random(123)
    for name, struct in ORACLE_STRUCTS.items():
        for _ in range(170):
            letters = rewriting.random_word(rng, name, 6)
            w = wordify(struct, letters) if letters else struct.identity(0)
            canon = struct.canonical_form(w)
            assert struct.canonical_form(canon) == canon
            assert rewriting.equal(name, "".join(struct.word_names(canon)), letters)
            assert struct.word_length(canon) == struct.word_length(w)


def test_canonical_form_identity():
    s = ORACLE_STRUCTS["G7"]
    assert s.canonical_form(s.identity(0)) == s.identity(0)


def test_canonical_form_separates_classes():
    # words are equal iff their canonical forms are identical sequences
    rng = random.Random(5)
    for name, struct in ORACLE_STRUCTS.items():
        for _ in range(60):
            u = rewriting.random_word(rng, name, 5)
            v = rewriting.random_word(rng, name, 5)
            if not u or not v:
                continue
            cu = struct.canonical_form(wordify(struct, u))
            cv = struct.canonical_form(wordify(struct, v))
            assert (cu == cv) == rewriting.equal(name, u, v)


def test_least_divisor_examples():
    a2 = ORACLE_STRUCTS["A2"]
    sts = wordify(a2, "aba")
    assert rewriting.right_divisors("A2", "aba") == {"a", "b"}
    assert a2.atom_names[a2.least_divisor(sts)] == "a"
    # a single atom is its own least divisor
    assert a2.least_divisor(wordify(a2, "b")) == a2.atom_index["b"]
    # G13 under c < a < b: all three atoms divide abcab, c is least
    g13 = ORACLE_STRUCTS["G13"]
    order = AtomOrdering.from_sequence(
        [g13.atom_index["c"], g13.atom_index["a"], g13.atom_index["b"]]
    )
    w = wordify(g13, "abcab")
    assert rewriting.right_divisors("G13", "abcab") == {"a", "b", "c"}
    assert g13.atom_names[g13.least_divisor(w, order)] == "c"


def test_least_divisor_matches_oracle():
    rng = random.Random(31337)
    for name, struct in ORACLE_STRUCTS.items():
        atoms = rewriting.PRESENTATIONS[name][0]
        orders = [atoms, atoms[::-1]]
        for _ in range(60):
            letters = rewriting.random_word(rng, name, 5)
            if not letters:
                continue
            w = wordify(struct, letters)
            for order in orders:
                ordering = AtomOrdering.from_sequence([struct.atom_index[x] for x in order])
                got = struct.atom_names[struct.least_divisor(w, ordering)]
                assert got == rewriting.md(name, letters, order)


def test_left_lcm_known_joins():
    g7 = ORACLE_STRUCTS["G7"]
    lcm, comps = left_lcm(g7, [g7.atom_index["a"], g7.atom_index["b"]])
    assert same_morphism(g7, lcm, wordify(g7, "abc"))
    assert g7.word_names(comps[g7.atom_index["a"]]) == ["b", "c"]
    assert g7.word_names(comps[g7.atom_index["b"]]) == ["c", "a"]
    # single atom: the lcm is the atom with identity complement
    lcm1, comps1 = left_lcm(g7, [g7.atom_index["a"]])
    assert lcm1.atoms == (g7.atom_index["a"],)
    assert comps1[g7.atom_index["a"]].atoms == ()
    # G13: lcm(b, c) = bcab
    g13 = ORACLE_STRUCTS["G13"]
    lcm_bc, _ = left_lcm(g13, [g13.atom_index["b"], g13.atom_index["c"]])
    assert same_morphism(g13, lcm_bc, wordify(g13, "bcab"))


def test_left_lcm_is_minimal_common_multiple():
    # against the oracle: the fold result equals the brute-force lcm, and it
    # right-divides every common multiple of length <= 6
    for name in ["A2", "G7", "G12", "G13", "G15", "G22"]:
        struct = ORACLE_STRUCTS[name]
        atoms = rewriting.PRESENTATIONS[name][0]
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                oracle_lcm = rewriting.lcm(name, atoms[i], atoms[j])
                lcm, comps = left_lcm(struct, [struct.atom_index[atoms[i]], struct.atom_index[atoms[j]]])
                assert same_morphism(struct, lcm, wordify(struct, oracle_lcm))
                for atom_name in (atoms[i], atoms[j]):
                    a = struct.atom_index[atom_name]
                    back = Word(comps[a].src, comps[a].atoms + (a,))
                    assert same_morphism(struct, back, lcm)
                kernel = struct.kernel()
                for multiple in rewriting.common_left_multiples(name, atoms[i], atoms[j], 6):
                    assert kernel.divide(kernel.intern(wordify(struct, multiple)), kernel.intern(lcm)) >= 0


def test_lcm_with_atom_matches_oracle():
    # x*u = y*b for every word u of length <= 3 and atom b, and it
    # right-divides every common multiple of length <= 6; the kernel of the
    # reversed ordering agrees
    for name in ["A2", "G7", "G12", "G13", "G15", "G22"]:
        struct = ORACLE_STRUCTS[name]
        atoms = rewriting.PRESENTATIONS[name][0]
        kernel = struct.kernel(AtomOrdering.from_sequence(range(len(atoms))[::-1]))
        for u in itertools.chain.from_iterable(itertools.product(atoms, repeat=n) for n in range(4)):
            for b in atoms:
                w = wordify(struct, u)
                x, y = struct.lcm_with_atom(w, struct.atom_index[b])
                lcm = tuple(struct.word_names(x)) + u
                assert rewriting.equal(name, lcm, tuple(struct.word_names(y)) + (b,))
                for multiple in rewriting.common_left_multiples(name, u, b, 6):
                    assert rewriting.word_right_divides(name, lcm, multiple), (name, u, b)
                node = kernel.intern(w)
                p, q = kernel.lcm(node, struct.atom_index[b])
                assert kernel.product(p, node) == kernel.mul(q, struct.atom_index[b])
                assert same_morphism(struct, kernel.word(kernel.product(p, node)), wordify(struct, lcm))


def test_left_lcm_absent(cospan_category):
    s = cospan_category
    assert left_lcm(s, [s.atom_index["p"], s.atom_index["q"]]) is None


def test_length_is_a_morphism():
    # canonical-form collisions preserve length (lengths checked at collisions)
    rng = random.Random(2)
    for name, struct in ORACLE_STRUCTS.items():
        buckets = {}
        for _ in range(120):
            letters = rewriting.random_word(rng, name, 5)
            if not letters:
                continue
            w = wordify(struct, letters)
            canon = struct.canonical_form(w)
            buckets.setdefault(canon, []).append(struct.word_length(w))
        for lengths in buckets.values():
            assert len(set(lengths)) == 1


def test_validate_positive_controls(builtins):
    for name, struct in builtins.items():
        violations = struct.validate()
        assert violations == [], (name, violations)


def test_identities_rank_above_every_atom_and_kernels_share_the_table(builtins, two_cycle_category, cospan_category):
    # an identity's last atom is -1, so kernel.ranks[-1] is its rank: above
    # every atom's, so no atom divides it; and every ordering's kernel
    # reads the structure's one lcm table
    structs = dict(builtins, two_cycle=two_cycle_category, cospan=cospan_category)
    for name, struct in structs.items():
        reverse = AtomOrdering.from_sequence(range(struct.n_atoms)[::-1])
        kernels = [struct.kernel(), struct.kernel(reverse)]
        for kernel in kernels:
            assert all(kernel.ranks[-1] > kernel.ranks[a] for a in range(struct.n_atoms)), name
            assert all(
                kernel.div(obj, a) == -1 for obj in range(struct.n_objects) for a in range(struct.n_atoms)
            ), name
        assert kernels[0] is not kernels[1], name
        assert all(kernel._lcm_table is struct._lcm_table for kernel in kernels), name


def test_validate_reads_the_table_alone(two_cycle_category, cospan_category):
    # validate runs the entry and cube checks on the parsed table and
    # builds no word kernel, and so no complex, on the way
    for struct in (builtin_structure("artin:E8"), two_cycle_category, cospan_category):
        assert struct.validate() == [], struct
        assert struct._kernels == {}, struct


def test_validate_flags_swapped_complement():
    # corrupt one G7 entry by swapping its complement words; the other two
    # entries pin the word problem down enough to expose it
    bad = GaussianStructure(
        ["*"],
        [("a", "*", "*", 1), ("b", "*", "*", 1), ("c", "*", "*", 1)],
        [
            ("a", "b", (["c", "a"], ["b", "c"])),  # swapped: should be (bc, ca)
            ("a", "c", (["b", "c"], ["a", "b"])),
            ("b", "c", (["c", "a"], ["a", "b"])),
        ],
    )
    assert bad.validate() != []


def test_validate_flags_length_violation():
    bad = GaussianStructure(
        ["*"],
        [("a", "*", "*", 1), ("b", "*", "*", 2)],
        [("a", "b", (["b", "a"], ["a", "b"]))],
    )
    assert any("length" in v for v in bad.validate())


CUBE_BUILTINS = [
    "artin:A3", "artin:B5", "artin:D4", "artin:D6", "artin:F4", "artin:H3", "artin:H4", "artin:A6",
    "artin:E6", "artin:E7", "artin:E8", "artin:I2(5)", "artin:I2(12)",
    "circ:G7", "circ:G11", "circ:G12", "circ:G13", "circ:G15", "circ:G19", "circ:G22",
    "dual:A3", "dual:A4",
]


def test_cube_condition_holds_on_the_builtins(builtins, two_cycle_category, cospan_category):
    structs = dict(builtins, two_cycle=two_cycle_category, cospan=cospan_category)
    structs.update((spec, builtin_structure(spec)) for spec in CUBE_BUILTINS)
    for name, struct in structs.items():
        assert struct._cube_violations() == [], name


def _one_complement_off(spec, line):
    """The builtin's table with the lcm row of line's pair replaced by line."""
    pair = " ".join(line.split()[:3]) + " "
    lines = serialize_structure(builtin_structure(spec)).splitlines()
    return parse_structure("\n".join(line if row.startswith(pair) else row for row in lines) + "\n")


@pytest.mark.parametrize(
    "spec, line, first",
    [
        # bca = cab = abc and bca = aac, so abc = aac but bc != ac: not
        # cancellative, and reversing the triple runs past the step bound
        ("circ:G7", "LCM a c COMPL b.c a.a", "cube condition fails on (a,b,c): reversing ran past 10000 steps"),
        (
            "dual:A3",
            "LCM t13 t23 COMPL t12 t12",
            "cube condition fails on (t01,t03,t23): lcm(t01,t23,t03) reversed from t01 and from t23 differ",
        ),
    ],
)
def test_cube_condition_fails_on_tables_validate_used_to_pass(spec, line, first):
    # both tables have lcm sides of equal lengths and nonempty complements,
    # and homology printed an H_1 that Fox calculus on their relations
    # rejects; the cube check names a failing triple, validate reports
    # every one, and no word kernel is built on them
    struct = _one_complement_off(spec, line)
    assert struct._entry_violations() == []
    violations = struct._cube_violations()
    assert violations[0] == first
    assert struct.validate() == violations
    with pytest.raises(ConsistencyError, match=f"^{re.escape(first)}$"):
        struct.kernel()


AFFINE_A2_ARGS = (
    ["*"],
    [("a", "*", "*", 1), ("b", "*", "*", 1), ("c", "*", "*", 1)],
    [("a", "b", (["a", "b"], ["b", "a"])), ("a", "c", (["a", "c"], ["c", "a"])), ("b", "c", (["b", "c"], ["c", "b"]))],
)


def test_cube_check_stops_a_diverging_table_at_its_step_bound(monkeypatch):
    # every pair of the affine A2 relations has an lcm, the triple has no
    # common multiple, and reversing it never ends.  The check runs off a
    # work list, not the call stack, under a few frames more than the
    # caller's, and gives up at the step bound
    message = "cube condition fails on (a,b,c): reversing ran past {} steps"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        violations = GaussianStructure(*AFFINE_A2_ARGS)._cube_violations()
    finally:
        sys.setrecursionlimit(limit)
    assert violations == [message.format(10_000)]
    monkeypatch.setattr(gaussian, "_REVERSING_STEP_LIMIT", 50)
    assert GaussianStructure(*AFFINE_A2_ARGS)._cube_violations() == [message.format(50)]


def test_cube_check_runs_once_per_structure():
    # the kernels of two orderings share one check
    struct = artin_named("A3")
    struct.kernel()
    checked = struct._cube
    struct.kernel(AtomOrdering.from_sequence([2, 1, 0]))
    assert checked == [] and struct._cube is checked


def test_lcm_complements_are_exact(two_cycle_category, cospan_category):
    # lcm reads y off its reversal; on every memoized lcm (x, b) -> (p, y)
    # it is the quotient of p*x by b, so p*x = y*b
    resolutions = [build_complex(s, optimize_ordering(s)) for s in (artin_named("E6"), artin_named("H4"))]
    for struct in (two_cycle_category, cospan_category):
        reverse = AtomOrdering.from_sequence(range(struct.n_atoms)[::-1])
        resolutions += [build_complex(struct), build_complex(struct, reverse)]
    for res in resolutions:
        kernel = res.kernel
        checked = 0
        for key, pair in kernel._lcm.items():
            if pair is None:
                continue
            (x, b), (p, y) = divmod(key, kernel.n_atoms), pair
            assert kernel.mul(y, b) == kernel.product(p, x), (res.struct, x, b)
            assert kernel.div(kernel.product(p, x), b) == y, (res.struct, x, b)
            checked += 1
        assert checked or not any(res.cells[1:]), res.struct


def test_lcm_is_none_where_reversing_meets_its_own_pair():
    # A3 with c.c.b = b.c.c for the lcm of b and c passes the cube check,
    # but b.c and b have no common left-multiple: lcm(b.c, b) folds over
    # c.b, and its second step is lcm(b.c, b) again, which reads the mark
    # of the call in progress
    struct = _one_complement_off("artin:A3", "LCM b c COMPL c.c b.c")
    assert struct.validate() == []
    kernel = struct.kernel()
    b = struct.atom_index["b"]
    x = kernel.intern(struct.word_from_names(["b", "c"]))
    assert kernel.lcm(x, b) is None
    assert kernel._lcm[x * kernel.n_atoms + b] is None
    assert kernel.left_lcm(x, kernel.intern(struct.word([b]))) is None


def test_an_interrupted_lcm_leaves_no_mark():
    # E8, c^7 for the Coxeter element c = a0...a7 (56 atoms) against atom
    # 0, which does not divide it: a legitimate lcm whose reversing nests
    # about 55 frames.  Interrupted under 40 frames, every entry it marked
    # in progress is gone again (every lcm of E8 exists, so any None is a
    # leftover mark), and the rerun gives the fresh kernel's pair
    atoms = list(range(8)) * 7
    fresh = artin_named("E8").kernel()
    expected = [fresh.word(node) for node in fresh.lcm(fresh.intern(fresh.struct.word(atoms)), 0)]
    kernel = artin_named("E8").kernel()
    x = kernel.intern(kernel.struct.word(atoms))
    assert kernel.div(x, 0) < 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        with pytest.raises(RecursionError):
            kernel.lcm(x, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert None not in kernel._lcm.values()
    assert [kernel.word(node) for node in kernel.lcm(x, 0)] == expected


def test_structure_precondition_errors():
    with pytest.raises(PreconditionError):
        GaussianStructure(["*"], [("a", "*", "*", 0)], [])
    with pytest.raises(PreconditionError):
        GaussianStructure(["*"], [("a", "*", "no", 1)], [])
    with pytest.raises(PreconditionError):
        GaussianStructure(["*"], [("a", "*", "*", 1), ("a", "*", "*", 1)], [])
    with pytest.raises(PreconditionError):
        # missing lcm entry for a pair with common target
        GaussianStructure(["*"], [("a", "*", "*", 1), ("b", "*", "*", 1)], [])


def test_ordering_validation():
    with pytest.raises(PreconditionError):
        AtomOrdering([0, 0, 1])
    with pytest.raises(PreconditionError):
        AtomOrdering.from_sequence([0, 2])
    assert AtomOrdering.identity(3).sorted_atoms([2, 0, 1]) == [0, 1, 2]


# -- the interned word kernel against the rewriting oracle --------------------

KERNEL_STRUCTS = {**ORACLE_STRUCTS, "B2": artin_named("B2")}


@st.composite
def oracle_case(draw):
    """(presentation name, word, second word, atom order); the second word
    is half the time a rewriting of the first, else an independent word."""
    name = draw(st.sampled_from(sorted(KERNEL_STRUCTS)))
    letters = rewriting.PRESENTATIONS[name][0]
    u = draw(st.text(alphabet=letters, max_size=7))
    if draw(st.booleans()):
        v = "".join(draw(st.sampled_from(sorted(rewriting.closure(name, u)))))
    else:
        v = draw(st.text(alphabet=letters, max_size=7))
    order = "".join(draw(st.permutations(letters)))
    return name, u, v, order


@settings(max_examples=300, deadline=None)
@given(oracle_case())
def test_canonical_form_decides_oracle_equivalence(case):
    name, u, v, order = case
    struct = KERNEL_STRUCTS[name]
    ordering = AtomOrdering.from_sequence([struct.atom_index[x] for x in order])
    cu = struct.canonical_form(wordify(struct, u), ordering)
    cv = struct.canonical_form(wordify(struct, v), ordering)
    assert (cu == cv) == rewriting.equal(name, u, v)
    assert rewriting.equal(name, "".join(struct.word_names(cu)), u)
    kernel = struct.kernel(ordering)
    uv = kernel.product(kernel.intern(wordify(struct, u)), kernel.intern(wordify(struct, v)))
    assert uv == kernel.intern(wordify(struct, u + v))


@settings(max_examples=300, deadline=None)
@given(oracle_case())
def test_quotient_atom_matches_oracle(case):
    name, w, _, order = case
    struct = KERNEL_STRUCTS[name]
    ordering = AtomOrdering.from_sequence([struct.atom_index[x] for x in order])
    divisors = rewriting.right_divisors(name, w)
    for atom_name in rewriting.PRESENTATIONS[name][0]:
        atom = struct.atom_index[atom_name]
        q = struct.quotient_atom(wordify(struct, w), atom)
        assert (q is not None) == (atom_name in divisors)
        kernel = struct.kernel(ordering)
        node = kernel.div(kernel.intern(wordify(struct, w)), atom)
        assert (node >= 0) == (q is not None)
        if q is not None:
            assert rewriting.equal(name, "".join(struct.word_names(q)) + atom_name, w)
            q = kernel.word(node)
            assert rewriting.equal(name, "".join(struct.word_names(q)) + atom_name, w)
            assert struct.canonical_form(q, ordering) == q


@settings(max_examples=200, deadline=None)
@given(oracle_case(), st.data())
def test_kernel_trie_holds_canonical_words_only(case, data):
    # every node of a kernel's trie is a canonical word: its last atom is
    # the least right-divisor, in the kernel's ordering, of the word it
    # spells (and so of each prefix, since the prefixes are nodes too)
    name, u, v, order = case
    letters = rewriting.PRESENTATIONS[name][0]
    struct = parse_structure(serialize_structure(KERNEL_STRUCTS[name]))  # cold kernels
    ordering = AtomOrdering.from_sequence([struct.atom_index[x] for x in order])
    calls = data.draw(
        st.lists(
            st.tuples(st.booleans(), st.text(alphabet=letters, max_size=7), st.sampled_from(letters)),
            max_size=6,
        )
    )
    for canonical, w, atom_name in [(True, u, ""), (False, v, order[-1])] + calls:
        if canonical:
            struct.canonical_form(wordify(struct, w), ordering)
        else:
            struct.quotient_atom(wordify(struct, w), struct.atom_index[atom_name])
    for kernel_order in (order, "".join(struct.atom_names)):
        kernel = struct.kernel(AtomOrdering.from_sequence([struct.atom_index[x] for x in kernel_order]))
        for node in range(kernel.n_objects, len(kernel.last)):
            spelled = "".join(struct.word_names(kernel.word(node)))
            assert spelled[-1] == rewriting.md(name, spelled, kernel_order)


def test_dense_product_table_matches_oracle(two_cycle_category, cospan_category):
    # _mul holds n_atoms slots per node, 0 for a product not yet known;
    # after a full build under the declaration order and its reverse, and
    # every product of a node shorter than 5 with an atom, every filled
    # slot _mul[x * n + b] is a node spelling a word equal to x*b.  mul,
    # the only place that creates nodes, files each new node x under its
    # parent's slot for last[x] and gives it its parent's source and its
    # parent's length plus its last atom's
    for struct in [artin_named("E6"), two_cycle_category, cospan_category]:
        kernel = build_complex(struct, optimize_ordering(struct)).kernel
        n, parent, last = kernel.n_atoms, kernel.parent, kernel.last
        assert len(kernel._mul) == n * len(last), struct
        for x in range(kernel.n_objects, len(last)):
            assert kernel._mul[parent[x] * n + last[x]] == x, (struct, x)
            assert kernel.src[x] == kernel.src[parent[x]], (struct, x)
            assert kernel.length[x] == kernel.length[parent[x]] + struct.atom_length[last[x]], (struct, x)
    for name, struct in KERNEL_STRUCTS.items():
        letters = rewriting.PRESENTATIONS[name][0]
        struct = parse_structure(serialize_structure(struct))  # cold kernels
        for order in (letters, letters[::-1]):
            ordering = AtomOrdering.from_sequence([struct.atom_index[a] for a in order])
            kernel = build_complex(struct, ordering).kernel
            n = kernel.n_atoms
            x = 0
            while x < len(kernel.last):  # the trie grows under the loop
                if kernel.length[x] < 5:
                    for b in range(n):
                        kernel.mul(x, b)
                x += 1
            assert len(kernel._mul) == n * len(kernel.last), (name, order)
            spelled = ["".join(struct.word_names(kernel.word(node))) for node in range(len(kernel.last))]
            for key, node in enumerate(kernel._mul):
                if node:
                    x, b = divmod(key, n)
                    assert rewriting.equal(name, spelled[x] + struct.atom_names[b], spelled[node]), (name, order, key)


def test_left_lcm_of_nodes_matches_oracle():
    # for every pair of distinct words of length <= 2, under the
    # declaration order and its reverse: p*w = y*x, and p*w is the
    # brute-force lcm, or longer than 6 when no common multiple is that short
    for name, struct in KERNEL_STRUCTS.items():
        letters = rewriting.PRESENTATIONS[name][0]
        kernels = [
            struct.kernel(AtomOrdering.from_sequence([struct.atom_index[a] for a in order]))
            for order in (letters, letters[::-1])
        ]
        words = [w for n in (1, 2) for w in itertools.product(letters, repeat=n)]
        for u, v in itertools.combinations(words, 2):
            short = rewriting.common_left_multiples(name, u, v, 6)
            oracle = rewriting.lcm(name, u, v) if short else None
            for kernel in kernels:
                w, x = (kernel.intern(wordify(struct, s)) for s in (u, v))
                p, y = kernel.left_lcm(w, x)
                lcm = kernel.product(p, w)
                assert lcm == kernel.product(y, x), (name, u, v)
                spelled = tuple(struct.word_names(kernel.word(lcm)))
                if oracle is None:
                    assert len(spelled) > 6, (name, u, v)
                else:
                    assert rewriting.equal(name, spelled, oracle), (name, u, v)


def test_left_lcm_absent_between_nodes(cospan_category):
    s = cospan_category
    kernel = s.kernel()
    p, q = (kernel.intern(s.word_from_names([n])) for n in ("p", "q"))
    assert kernel.left_lcm(p, q) is None
    assert kernel.left_lcm(p, kernel.target(p)) == (kernel.src[p], p)


def test_e8_delta_squared_canonicalizes_within_depth_bound():
    # every Coxeter element c of E8 has c^15 = w0 (the exponents are all
    # odd), so c^30 spells Delta^2, 240 atoms, through two Coxeter elements.
    # Division nests at most once per atom of the word, so 240 frames and a
    # few for the callers must do.
    atoms = list(range(8))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 240 + 40)
    try:
        for order in (atoms, atoms[::-1]):
            struct = artin_named("E8")  # cold caches for each ordering
            ordering = AtomOrdering.from_sequence(order)
            forward = struct.word(atoms * 30)
            backward = struct.word(atoms[::-1] * 30)
            canon = struct.canonical_form(forward, ordering)
            assert len(canon.atoms) == 240
            assert struct.canonical_form(backward, ordering) == canon
            assert struct.canonical_form(canon, ordering) == canon
            # Delta^2 is divisible by every atom, least first
            assert struct.least_divisor(canon, ordering) == order[0]
            assert all(struct.quotient_atom(canon, a) is not None for a in atoms)
    finally:
        sys.setrecursionlimit(limit)
