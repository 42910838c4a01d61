"""Built-in generators and the interchange format."""

import io
import sys

import pytest

import rewriting
from garside_homology import (
    CoxeterMatrix,
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
    [(_, _, pair)] = a2.lcm_entries()
    # complement * atom reproduces the braid relation word on both sides
    side_a = Word(pair[0].src, pair[0].atoms + (0,))
    side_b = Word(pair[1].src, pair[1].atoms + (1,))
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
    assert d3.validate(depth=3).ok
    with pytest.raises(PreconditionError):
        dual_typeA_structure(9)


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
    assert struct.validate(depth=3).ok


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
    text = (
        "GAUSSIAN-STRUCTURE v1\nOBJECT x\nOBJECT y\n"
        "ATOM a x x 1\nATOM b x x 1\nATOM c x y 1\n"
        "LCM a b COMPL b.a a.b\n" + extra
    )
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
