"""Core word arithmetic checked against the raw presentations."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rewriting
from garside_homology import (
    AtomOrdering,
    GaussianStructure,
    PreconditionError,
    Word,
    artin_named,
    circulating_structure,
    parse_structure,
    serialize_structure,
)

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
                p = kernel.lcm(node, struct.atom_index[b])
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
        report = struct.validate(depth=3)
        assert report.ok, (name, report.violations)


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
    assert not bad.validate().ok


def test_validate_flags_length_violation():
    bad = GaussianStructure(
        ["*"],
        [("a", "*", "*", 1), ("b", "*", "*", 2)],
        [("a", "b", (["b", "a"], ["a", "b"]))],
    )
    report = bad.validate()
    assert any("length" in v for v in report.violations)


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


def test_e8_delta_squared_canonicalizes_within_depth_bound():
    # every Coxeter element c of E8 has c^15 = w0 (the exponents are all
    # odd), so c^30 spells Delta^2, 240 atoms, through two Coxeter elements.
    # Division nests at most once per atom of the word, so 240 frames and a
    # few for the callers must do.
    atoms = list(range(8))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 240 + 40)
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
