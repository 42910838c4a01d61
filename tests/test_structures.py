"""Built-in generators and the interchange format."""

import io
import itertools
import sys

import pytest

import rewriting
from garside_homology import (
    CoxeterMatrix,
    GaussianStructure,
    ParseError,
    PreconditionError,
    Word,
    artin_named,
    artin_structure,
    builtin_structure,
    circulating_structure,
    coxeter_matrix,
    dual_typeA_structure,
    parse_structure,
    serialize_structure,
)
from garside_homology.cli import main
from test_gaussian import left_lcm, same_morphism


def test_coxeter_matrix_validation():
    with pytest.raises(PreconditionError):
        CoxeterMatrix([[1, 3], [4, 1]])  # not symmetric
    with pytest.raises(PreconditionError):
        CoxeterMatrix([[2, 3], [3, 1]])  # bad diagonal
    m = coxeter_matrix("H3")
    assert (m.m[0][1], m.m[1][2], m.m[0][2]) == (5, 3, 2)
    assert coxeter_matrix("I2(4)").m[0][1] == 4
    assert coxeter_matrix("F4").m[1][2] == 4
    assert coxeter_matrix("A4").n == 4
    assert coxeter_matrix("B3").m[1][2] == 4
    with pytest.raises(PreconditionError):
        coxeter_matrix("Z9")


def test_artin_relation_words():
    a2 = artin_named("A2")
    [(_, _, (comp_a, comp_b))] = a2.lcm_entries()
    # complement * atom reproduces the braid relation word on both sides
    side_a = a2.word(comp_a + (0,))
    side_b = a2.word(comp_b + (1,))
    assert a2.word_names(side_a) == ["a", "b", "a"]
    assert a2.word_names(side_b) == ["b", "a", "b"]
    assert same_morphism(a2, side_a, side_b)
    # I2(4): the lcm is the length-4 alternating word
    i24 = artin_named("I2(4)")
    lcm, _ = left_lcm(i24, [0, 1])
    assert i24.word_length(lcm) == 4
    assert same_morphism(i24, lcm, i24.word_from_names(["a", "b", "a", "b"]))


def test_artin_commuting_pair():
    a3 = artin_named("A3")
    lcm, comps = left_lcm(a3, [a3.atom_index["a"], a3.atom_index["c"]])
    assert a3.word_length(lcm) == 2
    assert a3.word_names(comps[a3.atom_index["a"]]) == ["c"]


def test_circulating_presentations_match_oracle():
    # every pairwise lcm of a circulating monoid is the relation word
    for family, length in [("G7", 3), ("G12", 4), ("G22", 5)]:
        struct = circulating_structure(family)
        for i in range(3):
            for j in range(i + 1, 3):
                lcm, comps = left_lcm(struct, [i, j])
                assert struct.word_length(lcm) == length
                oracle = rewriting.lcm(family, struct.atom_names[i], struct.atom_names[j])
                assert same_morphism(struct, lcm, struct.word_from_names(list(oracle)))


def test_g13_g15_tables_verified_by_word_arithmetic():
    for family, expected in [
        ("G13", {("b", "c"): "bcab", ("a", "b"): "abcab", ("a", "c"): "abcab"}),
        ("G15", {("a", "c"): "abc", ("b", "c"): "abcbc", ("a", "b"): "abcbc"}),
    ]:
        struct = circulating_structure(family)
        for (x, y), word in expected.items():
            lcm, comps = left_lcm(struct, [struct.atom_index[x], struct.atom_index[y]])
            assert same_morphism(struct, lcm, struct.word_from_names(list(word)))
            oracle = rewriting.lcm(family, x, y)
            assert same_morphism(struct, lcm, struct.word_from_names(list(oracle)))
            for atom_name in (x, y):
                a = struct.atom_index[atom_name]
                back = Word(comps[a].src, comps[a].atoms + (a,))
                assert same_morphism(struct, back, lcm)


def test_g7_serves_isomorphic_groups():
    assert circulating_structure("G11").label == "circ:G11"
    assert circulating_structure("G19").n_atoms == 3
    with pytest.raises(PreconditionError):
        circulating_structure("G99")


def test_dual_typeA_small():
    d2 = dual_typeA_structure(2)
    assert d2.n_atoms == 3
    # every pairwise lcm is the Coxeter element, of reflection length 2
    for i in range(3):
        for j in range(i + 1, 3):
            lcm, _ = left_lcm(d2, [i, j])
            assert d2.word_length(lcm) == 2
    d3 = dual_typeA_structure(3)
    assert d3.n_atoms == 6
    assert d3.validate() == []
    with pytest.raises(PreconditionError):
        dual_typeA_structure(9)


def dual_typeA_reference(n):
    """The dual type-A_n table by a search per pair and per element: an
    atom t right-divides u when u*t^-1 = u*t has reflection length one
    less, asked again for every pair and every interval element."""
    size = n + 1
    cox = tuple((i + 1) % size for i in range(size))

    def mul(p, q):  # apply p, then q
        return tuple(q[p[i]] for i in range(size))

    def refl_len(p):
        seen, cycles = set(), 0
        for i in range(size):
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = p[i]
        return size - cycles

    def inverse(p):
        return tuple(sorted(range(size), key=p.__getitem__))

    group = list(itertools.permutations(range(size)))
    interval = [p for p in group if refl_len(p) + refl_len(mul(inverse(p), cox)) == n]
    atom_list, names = [], {}
    for i, j in itertools.combinations(range(size), 2):
        t = list(range(size))
        t[i], t[j] = j, i
        atom_list.append(tuple(t))
        names[tuple(t)] = f"t{i}{j}"

    def divides_on_right(t, u):
        return refl_len(mul(u, t)) == refl_len(u) - 1

    def expand(u):
        word = []
        while refl_len(u) > 0:
            t = next(t for t in atom_list if divides_on_right(t, u))
            word.append(names[t])
            u = mul(u, t)
        return word[::-1]

    lcms = []
    for a, b in itertools.combinations(atom_list, 2):
        common = [w for w in interval if divides_on_right(a, w) and divides_on_right(b, w)]
        least = min(refl_len(w) for w in common)
        (join,) = [w for w in common if refl_len(w) == least]
        lcms.append((names[a], names[b], (expand(mul(join, a)), expand(mul(join, b)))))
    atoms = [(names[t], "*", "*", 1) for t in atom_list]
    return GaussianStructure(["*"], atoms, lcms, label=f"dual:A{n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_typeA_table_matches_the_per_pair_search(n):
    # the generator reads right divisors off one table per interval element
    assert serialize_structure(dual_typeA_structure(n)) == serialize_structure(dual_typeA_reference(n))


def test_builtin_registry():
    assert builtin_structure("artin:F4").n_atoms == 4
    assert builtin_structure("circ:G22").n_atoms == 3
    assert builtin_structure("dual:A2").n_atoms == 3
    with pytest.raises(PreconditionError):
        builtin_structure("nope:G7")
    with pytest.raises(PreconditionError):
        builtin_structure("artin")


def test_roundtrip_on_builtins(builtins):
    for name, struct in builtins.items():
        text = serialize_structure(struct)
        again = parse_structure(text)
        assert serialize_structure(again) == text, name


def test_roundtrip_preserves_optionals(two_cycle_category):
    text = serialize_structure(two_cycle_category)
    again = parse_structure(text)
    assert again.basepoint == two_cycle_category.basepoint
    assert again.path_lengths == two_cycle_category.path_lengths
    assert serialize_structure(again) == text


def test_roundtrip_with_order_line():
    text = (
        "GAUSSIAN-STRUCTURE v1\n"
        "OBJECT *\n"
        "ATOM a * * 1\n"
        "ATOM b * * 1\n"
        "LCM a b COMPL a.b b.a\n"
        "ORDER b a\n"
    )
    struct = parse_structure(text)
    assert struct.declared_order is not None
    assert struct.declared_order.rank(struct.atom_index["b"]) == 0
    assert serialize_structure(struct).endswith("ORDER b a\n")


def test_parse_errors_carry_line_numbers():
    bad = "GAUSSIAN-STRUCTURE v1\nOBJECT x\nATOM u x nowhere 1\n"
    with pytest.raises(ParseError) as err:
        parse_structure(bad)
    assert err.value.line == 3
    assert "nowhere" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_structure("OBJECT x\n")
    assert err.value.line == 1

    dup = (
        "GAUSSIAN-STRUCTURE v1\nOBJECT *\nATOM a * * 1\nATOM b * * 1\n"
        "LCM a b COMPL a.b b.a\nLCM b a COMPL b.a a.b\n"
    )
    with pytest.raises(ParseError) as err:
        parse_structure(dup)
    assert err.value.line == 6

    with pytest.raises(ParseError):
        parse_structure("GAUSSIAN-STRUCTURE v1\nOBJECT *\nATOM a * * one\n")
    with pytest.raises(ParseError):
        parse_structure("GAUSSIAN-STRUCTURE v1\nWHAT is this\n")


def test_parse_checks_complement_composability():
    # first complement would need w*u composable, but w ends at y and u
    # starts at x
    bad = (
        "GAUSSIAN-STRUCTURE v1\n"
        "OBJECT x\nOBJECT y\n"
        "ATOM u x y 1\n"
        "ATOM w y y 1\n"
        "LCM u w COMPL w.u u\n"
    )
    with pytest.raises(ParseError):
        parse_structure(bad)


def test_comments_and_blank_lines():
    text = (
        "GAUSSIAN-STRUCTURE v1\n"
        "# a comment\n"
        "\n"
        "OBJECT * # trailing comment\n"
        "ATOM a * * 1\n"
    )
    struct = parse_structure(text)
    assert struct.n_atoms == 1
    assert struct.object_names == ["*"]


def test_nolcm_roundtrip(cospan_category):
    text = serialize_structure(cospan_category)
    assert "NOLCM p q" in text
    assert parse_structure(text).lcm_entries() == [(0, 1, None)]


def test_artin_generic_matrix():
    # a rank-3 matrix with an m=2 pair builds and validates
    struct = artin_structure(CoxeterMatrix([[1, 4, 2], [4, 1, 3], [2, 3, 1]]))
    assert struct.validate() == []


def _cli_errors(tmp_path, text):
    """(exit code, stderr) of `cells` on a structure file."""
    path = tmp_path / "bad.gs"
    path.write_text(text)
    err = io.StringIO()
    old, sys.stderr = sys.stderr, err
    try:
        code = main(["cells", "--structure", str(path)])
    finally:
        sys.stderr = old
    return code, err.getvalue()


def test_parse_reports_the_lcm_line_of_a_bad_complement(tmp_path):
    # c ends at y, so it cannot come before a or b, which start at x
    text = (
        "GAUSSIAN-STRUCTURE v1\n"
        "OBJECT x\nOBJECT y\n"
        "ATOM a x x 1\nATOM b x x 1\nATOM c x y 1\n"
        "LCM a b COMPL c c\n"
    )
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 7
    assert str(err.value) == "line 7: LCM(a,b): complement does not compose with its atom"
    code, stderr = _cli_errors(tmp_path, text)
    assert code == 2
    assert stderr == "error: line 7: LCM(a,b): complement does not compose with its atom\n"


def test_parse_whole_file_errors_carry_no_line(tmp_path):
    text = "GAUSSIAN-STRUCTURE v1\nOBJECT *\nATOM a * * 1\nATOM b * * 1\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line is None
    assert str(err.value) == "missing lcm entry for atoms ('a', 'b')"
    code, stderr = _cli_errors(tmp_path, text)
    assert code == 2
    assert stderr == "error: missing lcm entry for atoms ('a', 'b')\n"


def test_parse_reports_the_order_line():
    text = (
        "GAUSSIAN-STRUCTURE v1\nOBJECT *\nATOM a * * 1\nATOM b * * 1\n"
        "LCM a b COMPL b.a a.b\nORDER a a\n"
    )
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 6


_RECORDS = (
    "GAUSSIAN-STRUCTURE v1\nOBJECT x\nOBJECT y\n"
    "ATOM a x x 1\nATOM b x x 1\nATOM c x y 1\n"
    "LCM a b COMPL b.a a.b\n"
)


@pytest.mark.parametrize(
    "extra, line, message",
    [
        ("ORDER a b c\nORDER b a c\n", 9, "ORDER given twice"),
        ("BASEOBJECT x\nBASEOBJECT y\n", 9, "BASEOBJECT given twice"),
        ("PATHLEN x 0\nPATHLEN y 1\nPATHLEN x 2\n", 10, "path length of object 'x' given twice"),
    ],
)
def test_parse_rejects_repeated_directives(extra, line, message):
    # each would otherwise silently take the last value
    text = _RECORDS + extra
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_keeps_single_directives():
    text = (
        "GAUSSIAN-STRUCTURE v1\nOBJECT x\nOBJECT y\n"
        "ATOM a x x 1\nATOM b x x 1\nATOM c x y 1\n"
        "LCM a b COMPL b.a a.b\nBASEOBJECT x\nPATHLEN x 0\nPATHLEN y 1\nORDER c b a\n"
    )
    struct = parse_structure(text)
    assert struct.object_names[struct.basepoint] == "x"
    assert list(struct.path_lengths) == [0, 1]
    assert serialize_structure(struct).endswith("ORDER c b a\n")


@pytest.mark.parametrize(
    "extra, line, message",
    [
        ("OBJECT x\n", 8, "duplicate object name 'x'"),
        ("ATOM a x x 1\n", 8, "duplicate atom name 'a'"),
        ("LCM b a COMPL a.b b.a\n", 8, "duplicate lcm entry for ('b', 'a')"),
        ("ATOM d x z 1\n", 8, "atom 'd' references unknown object 'z'"),
        ("LCM a z COMPL b.a a.b\n", 8, "lcm entry references unknown atom 'z'"),
        ("ATOM d x x 1\nLCM a d COMPL z d\n", 9, "LCM(a,d): unknown atom 'z' in complement"),
        ("BASEOBJECT z\n", 8, "unknown basepoint object 'z'"),
        ("BASEOBJECT x\nPATHLEN x 0\nPATHLEN z 1\nPATHLEN y 1\n", 10, "path length for unknown object 'z'"),
        ("ATOM d x y 0\n", 8, "atom 'd' must have length >= 1"),
        ("LCM a a COMPL b b\n", 8, "lcm entry for atom 'a' with itself"),
        ("LCM a c COMPL c a\n", 8, "lcm entry for atoms with different targets ('a', 'c')"),
        ("ATOM d x x 1\nLCM a d COMPL c c\n", 9, "LCM(a,d): complement does not compose with its atom"),
        ("ORDER a b z\n", 8, "declared order references unknown atom 'z'"),
        ("ORDER a b\n", 8, "declared order must list every atom exactly once"),
        ("ORDER a c a\n", 8, "declared order must list every atom exactly once"),
    ],
)
def test_record_rules_report_the_record_line(tmp_path, extra, line, message):
    # unlike a repeated directive, these are GaussianStructure's refusals:
    # it names the record, and the parser reports that record's line
    text = _RECORDS + extra
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.__cause__.record is not None
    assert _cli_errors(tmp_path, text) == (2, f"error: line {line}: {message}\n")


def test_records_parse_in_any_order():
    in_order = _RECORDS + "BASEOBJECT x\nPATHLEN x 0\nPATHLEN y 1\nORDER c b a\n"
    shuffled = (
        "GAUSSIAN-STRUCTURE v1\nORDER c b a\nATOM a x x 1\nPATHLEN y 1\nLCM a b COMPL b.a a.b\n"
        "ATOM b x x 1\nOBJECT x\nBASEOBJECT x\nATOM c x y 1\nPATHLEN x 0\nOBJECT y\n"
    )
    assert serialize_structure(parse_structure(in_order)) == in_order
    assert serialize_structure(parse_structure(shuffled)) == in_order


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a#b", "#"])
def test_object_names_a_file_cannot_spell_are_refused(name):
    with pytest.raises(PreconditionError, match="cannot be written in a structure file") as err:
        GaussianStructure(["x", name], [], [])
    assert err.value.record == ("object", 1)


@pytest.mark.parametrize("name", ["", "a b", "a\nb", "a#b", "a.b", ".", "-"])
def test_atom_names_a_file_cannot_spell_are_refused(name):
    with pytest.raises(PreconditionError, match="cannot be written in a structure file") as err:
        GaussianStructure(["*"], [("c", "*", "*", 1), (name, "*", "*", 1)], [])
    assert err.value.record == ("atom", 1)


def test_spellable_names_round_trip(tmp_path, two_cycle_category, cospan_category):
    # an object may be named '-' or 'x.y': no word spells objects
    struct = GaussianStructure(["-", "x.y"], [("a-b", "-", "x.y", 1), ("c", "x.y", "-", 1)], [])
    text = serialize_structure(struct)
    assert serialize_structure(parse_structure(text)) == text
    # the atom '-' with 'LCM - c COMPL c -' would read back with an empty
    # complement, and 'a.b' as two atoms, so neither gets in from a file
    for atom, line in (("-", 3), ("a.b", 3)):
        bad = f"GAUSSIAN-STRUCTURE v1\nOBJECT *\nATOM {atom} * * 1\nATOM c * * 1\nLCM {atom} c COMPL c {atom}\n"
        with pytest.raises(ParseError) as err:
            parse_structure(bad)
        assert err.value.line == line
        code, stderr = _cli_errors(tmp_path, bad)
        assert code == 2 and stderr.startswith(f"error: line {line}: atom name {atom!r} cannot be written")
    specs = [f"artin:{name}" for name in ["A2", "A3", "A5", "B3", "B5", "D4", "D6", "E6", "E8", "F4", "H3", "H4"]]
    specs += ["artin:I2(5)", "artin:I2(12)"] + [f"circ:G{k}" for k in (7, 11, 12, 13, 15, 19, 22)]
    specs += [f"dual:A{n}" for n in (1, 2, 3, 4)]
    structs = [builtin_structure(spec) for spec in specs] + [two_cycle_category, cospan_category]
    for struct in structs:
        text = serialize_structure(struct)
        assert serialize_structure(parse_structure(text)) == text, struct
