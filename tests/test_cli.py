"""Command-line behavior: outputs, exit codes, determinism."""

import collections
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutations
from garside_homology import ConsistencyError, GaussianError, builtin_structure, parse_structure, serialize_structure
from garside_homology.cli import main


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_cells_artin_h3():
    code, out, _ = run_cli(["cells", "--structure", "builtin:artin:H3"])
    assert code == 0
    assert out.strip() == "1 3 3 1"


def test_cells_compare_orderings():
    code, out, _ = run_cli(
        ["cells", "--structure", "builtin:circ:G13", "--compare-orderings"]
    )
    assert code == 0
    assert "identity: 1 3 3 1" in out
    assert "optimized: 1 3 2 0" in out


def test_cells_csv():
    code, out, _ = run_cli(
        ["cells", "--structure", "builtin:circ:G12", "--format", "csv", "--max-dim", "3"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dimension,cells"
    assert lines[1:] == ["0,1", "1,3", "2,2", "3,0"]


def test_bounds_command():
    code, out, _ = run_cli(["bounds", "--structure", "builtin:circ:G13"])
    assert code == 0
    assert "(2, 3)" in out


def test_order_command():
    code, out, _ = run_cli(["order", "--structure", "builtin:circ:G13"])
    assert code == 0
    assert "cells: 1 3 2 0" in out


# the optimized ordering of each builtin, atom names from least to greatest
OPTIMIZED_ORDERS = {
    "artin:I2(4)": "a b",
    "artin:I2(5)": "a b",
    "artin:I2(6)": "a b",
    "artin:I2(8)": "a b",
    "artin:I2(10)": "a b",
    "circ:G7": "a b c",
    "circ:G11": "a b c",
    "circ:G12": "a b c",
    "circ:G13": "b a c",
    "circ:G15": "a b c",
    "circ:G19": "a b c",
    "circ:G22": "a b c",
    "artin:A3": "a b c",
    "artin:B3": "a b c",
    "artin:H3": "a b c",
    "artin:F4": "a b c d",
    "artin:A4": "a b c d",
    "artin:B4": "a b c d",
    "artin:D4": "a b c d",
    "dual:A3": "t01 t02 t03 t12 t13 t23",
    "artin:A1": "a",
    "artin:A2": "a b",
    "artin:A5": "a b c d e",
    "artin:A6": "a b c d e f",
    "artin:B5": "a b c d e",
    "artin:D5": "a b c d e",
    "artin:D6": "a b c d e f",
    "artin:H4": "a b c d",
    "artin:E6": "a b c d e f",
    "artin:E7": "a b c d e f g",
    "artin:E8": "a b c d e f g h",
    "dual:A2": "t01 t02 t12",
    "dual:A4": "t01 t02 t03 t04 t12 t13 t14 t23 t24 t34",
}


@pytest.mark.parametrize("spec", OPTIMIZED_ORDERS)
def test_order_command_pins_optimized_ordering(spec):
    code, out, _ = run_cli(["order", "--structure", f"builtin:{spec}", "--max-dim", "1"])
    assert code == 0
    assert out.splitlines()[0] == "order: " + " < ".join(OPTIMIZED_ORDERS[spec].split())


def test_order_command_turns_down_conditions_closing_a_cycle(tmp_path):
    # with dual A3's atoms declared in this order, the greedy search meets
    # conditions that would close a cycle among the chosen ones
    lines = serialize_structure(builtin_structure("dual:A3")).splitlines(keepends=True)
    atoms = {line.split()[1]: line for line in lines if line.startswith("ATOM ")}
    names = iter(["t13", "t03", "t02", "t01", "t23", "t12"])
    path = tmp_path / "dual_a3.gs"
    path.write_text("".join(atoms[next(names)] if line.startswith("ATOM ") else line for line in lines))
    code, out, _ = run_cli(["order", "--structure", str(path)])
    assert code == 0
    assert out == "order: t13 < t03 < t02 < t01 < t23 < t12\ncells: 1 6 11 6 0 0 0\n"


def test_homology_text_and_csv_agree():
    code, text_out, _ = run_cli(
        ["homology", "--structure", "builtin:circ:G7", "--coeffs", "trivial"]
    )
    assert code == 0
    assert "H_0 = Z" in text_out
    assert "H_1 = Z^3" in text_out
    assert "H_2 = Z^2" in text_out
    code, csv_out, _ = run_cli(
        ["homology", "--structure", "builtin:circ:G7", "--coeffs", "trivial", "--format", "csv"]
    )
    assert code == 0
    lines = csv_out.strip().splitlines()
    assert lines[0] == "degree,free_rank,torsion,cyclotomic"
    assert lines[1] == "0,1,,"
    assert lines[2] == "1,3,,"
    assert lines[3] == "2,2,,"


def test_homology_laurent_f2():
    args = [
        "homology",
        "--structure",
        "builtin:circ:G12",
        "--coeffs",
        "laurent",
        "--field",
        "Fp",
        "--p",
        "2",
    ]
    code, out, _ = run_cli(args)
    assert code == 0
    assert "t^6+t^5+t^3+t+1" in out
    assert "Phi_3^3" in out
    code, csv_out, _ = run_cli(args + ["--format", "csv"])
    assert code == 0
    lines = csv_out.strip().splitlines()
    assert lines[1] == "0,0,t+1,Phi_1"
    assert lines[2] == "1,0,t^6+t^5+t^3+t+1,Phi_3^3"


def test_determinism():
    args = ["homology", "--structure", "builtin:circ:G13", "--coeffs", "sign"]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second


def test_validate_ok_and_failure(tmp_path):
    code, out, _ = run_cli(["validate", "--structure", "builtin:artin:F4"])
    assert code == 0
    assert out.strip() == "ok"
    bad = tmp_path / "bad.gs"
    bad.write_text(
        "GAUSSIAN-STRUCTURE v1\n"
        "OBJECT *\n"
        "ATOM a * * 1\n"
        "ATOM b * * 2\n"
        "LCM a b COMPL b.a a.b\n"
    )
    code, out, _ = run_cli(["validate", "--structure", str(bad)])
    assert code == 3
    assert "violation" in out


def test_builtin_roundtrip(tmp_path):
    code, out, _ = run_cli(["builtin", "--structure", "builtin:circ:G13"])
    assert code == 0
    path = tmp_path / "g13.gs"
    path.write_text(out)
    code, cells, _ = run_cli(["cells", "--structure", str(path), "--order", "auto"])
    assert code == 0
    assert cells.strip() == "1 3 2 0"


def test_config_errors_exit_2(tmp_path):
    assert run_cli(["cells", "--structure", "builtin:artin:Z9"])[0] == 2
    assert run_cli(["cells", "--structure", str(tmp_path / "missing.gs")])[0] == 2
    assert run_cli(["homology", "--structure", "builtin:artin:A2", "--coeffs", "laurent",
                    "--field", "Fp"])[0] == 2
    # p without Fp, and a composite p
    assert run_cli(["homology", "--structure", "builtin:artin:A2", "--coeffs", "laurent",
                    "--field", "Q", "--p", "5"])[0] == 2
    assert run_cli(["homology", "--structure", "builtin:artin:A2", "--coeffs", "laurent",
                    "--field", "Fp", "--p", "6"])[0] == 2
    broken = tmp_path / "broken.gs"
    broken.write_text("GAUSSIAN-STRUCTURE v1\nATOM a nowhere nowhere 1\n")
    code, _, err = run_cli(["cells", "--structure", str(broken)])
    assert code == 2
    assert "line 2" in err
    # declared ordering requested but absent
    assert run_cli(["cells", "--structure", "builtin:artin:A2", "--order", "declared"])[0] == 2


# each command takes only the options it reads; the others are refused
REFUSED_OPTIONS = (
    [(command, ["--no-memo"]) for command in ("cells", "bounds", "order", "homology", "validate", "builtin")]
    + [(command, ["--order", "auto"]) for command in ("bounds", "order", "validate", "builtin")]
    + [(command, ["--max-dim", "3"]) for command in ("bounds", "validate", "builtin")]
    + [(command, ["--format", "text"]) for command in ("validate", "builtin")]
    + [("validate", ["--depth", "3"])]
)


@pytest.mark.parametrize("command, option", REFUSED_OPTIONS, ids=lambda x: x if isinstance(x, str) else x[0])
def test_options_a_command_does_not_read_exit_2(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "--structure", "builtin:artin:A2", *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: " + " ".join(option) in err


@pytest.mark.parametrize("order", ["auto", "declared", "identity"])
@pytest.mark.parametrize("first", [True, False])
def test_compare_orderings_excludes_order(capsys, order, first):
    # --compare-orderings prints its own two orderings, so an --order next
    # to it would go unread
    options = ["--compare-orderings", "--order", order] if first else ["--order", order, "--compare-orderings"]
    with pytest.raises(SystemExit) as exc:
        main(["cells", "--structure", "builtin:artin:A3", *options])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument" in err


def test_cells_order_defaults_to_auto():
    # G13 has fewer cells under auto than under declaration order
    for options in ([], ["--order", "auto"]):
        assert run_cli(["cells", "--structure", "builtin:circ:G13", *options]) == (0, "1 3 2 0\n", "")
    assert run_cli(["cells", "--structure", "builtin:circ:G13", "--order", "identity"]) == (0, "1 3 3 1\n", "")
    code, out, _ = run_cli(["cells", "--structure", "builtin:circ:G13", "--compare-orderings"])
    assert (code, out) == (0, "identity: 1 3 3 1\noptimized: 1 3 2 0\n")


def test_declared_order_from_file(tmp_path):
    code, text, _ = run_cli(["builtin", "--structure", "builtin:circ:G13"])
    path = tmp_path / "g13.gs"
    path.write_text(text + "ORDER c a b\n")
    code, out, _ = run_cli(["cells", "--structure", str(path), "--order", "declared"])
    assert code == 0
    assert out.strip() == "1 3 2 0"
    code, out, _ = run_cli(["cells", "--structure", str(path), "--order", "identity"])
    assert code == 0
    assert out.strip() == "1 3 3 1"


def test_repeated_order_line_exits_2(tmp_path):
    _, text, _ = run_cli(["builtin", "--structure", "builtin:circ:G13"])
    path = tmp_path / "g13.gs"
    path.write_text(text + "ORDER c a b\nORDER a b c\n")
    n = len(text.splitlines()) + 2
    code, out, err = run_cli(["cells", "--structure", str(path), "--order", "declared"])
    assert (code, out) == (2, "")
    assert err == f"error: line {n}: ORDER given twice\n"


def test_escaping_recursion_error_exits_4(monkeypatch):
    from garside_homology import cli

    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_cells", too_deep)
    code, out, err = run_cli(["cells", "--structure", "builtin:artin:A2"])
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "recursion" in err


def test_recursion_too_deep_for_a_structure_exits_4():
    # nothing patched: the H4 run nests deeper than 40 frames below the
    # caller (enumeration's lcm folds take 53), and main reports the
    # RecursionError as one line and exits 4
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        code, out, err = run_cli(["homology", "--structure", "builtin:artin:H4"])
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (4, "")
    assert err == "internal error: recursion too deep for this structure\n"


A3_TRIVIAL = "# artin:A3, coefficients Z (trivial action)\nH_0 = Z\nH_1 = Z\nH_2 = Z_2\nH_3 = 0\n"


def test_a_reused_parser_keeps_nothing_between_calls():
    # main builds its parser once per process; no call may see the options,
    # defaults or exits of an earlier one
    a3 = ["homology", "--structure", "builtin:artin:A3"]
    assert run_cli(a3 + ["--coeffs", "sign", "--format", "csv"])[:2] == (
        0, "degree,free_rank,torsion,cyclotomic\n0,0,2,\n1,0,3,\n2,0,2,\n3,0,,\n"
    )
    assert run_cli(a3)[:2] == (0, A3_TRIVIAL)
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", "--structure", "builtin:artin:A2", "--max-dim", "3"])
    assert exc.value.code == 2
    assert run_cli(["cells", "--structure", "builtin:artin:H3"]) == (0, "1 3 3 1\n", "")
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    assert run_cli(a3) == (0, A3_TRIVIAL, "")


def test_parser_is_built_once_per_process(monkeypatch):
    import argparse
    import subprocess

    from garside_homology import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(10):
        assert run_cli(["cells", "--structure", "builtin:artin:A2"])[0] == 0
        assert run_cli(["bounds", "--structure", "builtin:artin:A2"])[0] == 0
    assert 0 < len(built) <= 7  # one root parser and its six subcommands
    # importing the module builds nothing
    probe = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting_init
        import garside_homology.cli
        print(len(built))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=env, timeout=60)
    assert out.stdout == "0\n"


def test_negative_max_dim_exits_2():
    for command in ("homology", "cells", "order"):
        for max_dim in ("-1", "-3"):
            code, out, err = run_cli([command, "--structure", "builtin:artin:A2", "--max-dim", max_dim])
            assert (code, out) == (2, ""), (command, max_dim)
            assert "max_dim" in err
    code, out, _ = run_cli(["cells", "--structure", "builtin:artin:A2", "--max-dim", "0"])
    assert (code, out) == (0, "1\n")


def test_large_primes():
    import time

    from garside_homology.rings import MR_BOUND

    laurent = ["homology", "--structure", "builtin:artin:A2", "--coeffs", "laurent", "--field", "Fp", "--p"]
    start = time.monotonic()
    code, out, _ = run_cli(laurent + [str(2**61 - 1)])
    assert time.monotonic() - start < 0.5
    assert code == 0
    assert "H_1 = F2305843009213693951[t,t^-1]/(t^2+2305843009213693950*t+1 = Phi_6)" in out
    assert run_cli(laurent + ["3215031751"])[0] == 2
    for p in (MR_BOUND, 10**27 + 57):
        code, out, err = run_cli(laurent + [str(p)])
        assert (code, out) == (2, "")
        assert str(MR_BOUND) in err


def test_laurent_entry_span_over_the_limit_exits_2(tmp_path):
    # a Laurent entry is a dense coefficient list over its exponent span:
    # t^L - 1 on the 1-cell [a] would hold L + 1 coefficients, so a span
    # over the limit is refused before any list is made
    import time

    from garside_homology.coefficients import MAX_LAURENT_SPAN

    def commuting(length):
        path = tmp_path / f"a{length}.gs"
        path.write_text(
            "GAUSSIAN-STRUCTURE v1\nOBJECT *\n"
            f"ATOM a * * {length}\nATOM b * * 1\nLCM a b COMPL b a\n"
        )
        return ["homology", "--structure", str(path), "--coeffs", "laurent"]

    start = time.monotonic()
    code, out, err = run_cli(commuting(10**23))
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a Laurent entry spans {10**23} exponents, over the limit of {MAX_LAURENT_SPAN}\n"
    code, out, _ = run_cli(commuting(1000))
    assert code == 0
    assert out.splitlines()[1:] == [
        "H_0 = Q[t,t^-1]/(t-1 = Phi_1)",
        "H_1 = Q[t,t^-1]/(t-1 = Phi_1)",
        "H_2 = 0",
    ]
    # trivial coefficients hold no exponents, so they take any length
    assert run_cli(commuting(10**23)[:-2])[0] == 0


def _table(lines):
    return "GAUSSIAN-STRUCTURE v1\nOBJECT *\n" + "".join(f"{line}\n" for line in lines)


def _mutated_builtin(spec, *lines):
    """The builtin's table with the lcm row of each line's pair replaced by
    the line."""
    rows = {tuple(line.split()[:3]): line + "\n" for line in lines}
    text = serialize_structure(builtin_structure(spec)).splitlines(keepends=True)
    return "".join(rows.get(tuple(row.split()[:3]), row) for row in text)


ABC = ["ATOM a * * 1", "ATOM b * * 1", "ATOM c * * 1"]
# tables the commands must refuse with exit 4: lcm sides of different
# lengths (the second makes unchecked division grow the trie without
# bound), a pair whose lcm its atom does not divide, an lcm over a term
# of a boundary that is not a multiple of the cell's lcm (built further,
# that boundary would leave the enumerated cells), a reduction that cancels
# the leading term of a boundary (ab.a = ab.b, so the 3-cell's boundary
# would be 0 and the complex not exact), a cell whose lcm is not a multiple
# of its rest's (bc.b = cc.c), and empty complements.  The word kernel
# refuses those with even sides and nonempty complements up front, as they
# fail the cube condition
INCONSISTENT_TABLES = {
    "uneven sides": _table(
        ABC + ["LCM a b COMPL b c.a", "LCM a c COMPL b.c a.b", "LCM b c COMPL c.a a.b"]
    ),
    "uneven sides, growing trie": _mutated_builtin("artin:A3", "LCM a c COMPL c a.b.c"),
    "pair lcm not divisible": _mutated_builtin("artin:A3", "LCM a b COMPL a.b b.c"),
    "term lcm not a multiple": _mutated_builtin("dual:A3", "LCM t12 t23 COMPL t23 t02"),
    "leading term cancelled": _mutated_builtin("artin:A3", "LCM a b COMPL a.b a.b"),
    "cell lcm off its facet's": _mutated_builtin("artin:A3", "LCM b c COMPL b.c c.c"),
    # an empty complement says lcm(a, b) = a: on both sides a = b, on one
    # side b divides a (here a = b.b, with the lengths kept even)
    "empty complements": _table(["ATOM a * * 1", "ATOM b * * 1", "LCM a b COMPL - -"]),
    "empty complement, one side": _table(["ATOM a * * 2", "ATOM b * * 1", "LCM a b COMPL - b"]),
}


@pytest.mark.parametrize(
    "table, command",
    [
        (table, command)
        for table in (
            "uneven sides",
            "uneven sides, growing trie",
            "pair lcm not divisible",
            "empty complements",
            "empty complement, one side",
        )
        for command in ("cells", "bounds", "homology")
    ]
    + [("term lcm not a multiple", "homology"), ("leading term cancelled", "homology")],
)
def test_inconsistent_table_exits_4(tmp_path, table, command):
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES[table])
    max_dim = [] if command == "bounds" else ["--max-dim", "3"]
    code, out, err = run_cli([command, "--structure", str(path), *max_dim])
    assert (code, out) == (4, "")
    assert err.startswith("internal inconsistency:")


# what the cube check reports on a triple whose reversing runs past its step bound
DIVERGING = "cube condition fails on (a,b,c): reversing ran past 10000 steps"


def test_validate_flags_diverging_folds(tmp_path):
    # the affine A2~ relations: every pair has an lcm, the triple has no
    # common multiple, and reversing it never ends, so the cube check gives
    # up at its step bound
    path = tmp_path / "affine.gs"
    path.write_text(
        _table(ABC + ["LCM a b COMPL a.b b.a", "LCM a c COMPL a.c c.a", "LCM b c COMPL b.c c.b"])
    )
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert code == 3
    assert out == f"violation: {DIVERGING}\n"


# complete tables (the cube check passes them) holding two morphisms with no
# common left-multiple, such as b.c and b in the A3 and H3 tables, whose lcm
# needs itself in the word kernel's reversing
LCM_CYCLE_TABLES = {
    "A3": _mutated_builtin("artin:A3", "LCM b c COMPL c.c b.c"),
    "H3": _mutated_builtin("artin:H3", "LCM b c COMPL c.c b.c"),
    "B3": _mutated_builtin("artin:B3", "LCM a b COMPL a.b a.a", "LCM b c COMPL c.c.b b.c.b"),
}


@pytest.mark.parametrize("name", sorted(LCM_CYCLE_TABLES))
def test_homology_prints_complete_tables_whose_lcm_reversing_meets_itself(tmp_path, name):
    # validate passes each table, and both homology runs exit 0: the nested
    # lcm call that meets its own pair reads None instead of recursing to
    # the interpreter's limit.  Fox calculus on the table's relations gives
    # the same H_0 and H_1
    text = LCM_CYCLE_TABLES[name]
    runs = mutations.run_commands(text, tmp_path)
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] == "ok\n"
    assert all(err == "" for _, _, err in runs)
    assert mutations.fox_rejects(text, runs) == []


def test_validate_refuses_a_g13_table_whose_reversing_diverges(tmp_path):
    # G13 with one complement changed: reversing over the triple makes ever
    # longer words, so the cube check gives up on it at its step bound,
    # validate reports it and no word kernel is built on the table
    text = _mutated_builtin("circ:G13", "LCM a b COMPL c.a.b.c a.a.a.c")
    path = tmp_path / "g13.gs"
    path.write_text(text)
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert (code, out) == (3, f"violation: {DIVERGING}\n")
    struct = parse_structure(text)
    with pytest.raises(ConsistencyError, match=r"^cube condition fails on \(a,b,c\): reversing ran past"):
        struct.kernel()


@pytest.mark.parametrize("depth", ["3", "4", "6"])
def test_validate_flags_boundary_off_the_cells(tmp_path, depth):
    # every lcm fold of this table agrees, and building its complex would
    # meet a term whose lcm with a lower atom is not a multiple of the
    # cell's.  Five triples fail the cube condition, which validate reports
    # on the table alone: the fold depth it once took is refused (exit 2)
    # at each value, and without it the report is the same
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES["term lcm not a multiple"])
    with pytest.raises(SystemExit) as exc:
        run_cli(["validate", "--structure", str(path), "--depth", depth])
    assert exc.value.code == 2
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert code == 3
    assert out.splitlines() == [
        f"violation: cube condition fails on ({x},{y},{z}): lcm({x},{z},{y}) reversed from {x} and from {z} differ"
        for x, y, z in [
            ("t01", "t02", "t23"),
            ("t01", "t12", "t23"),
            ("t02", "t12", "t23"),
            ("t03", "t12", "t23"),
            ("t12", "t13", "t23"),
        ]
    ]


def test_validate_flags_a_cancelled_leading_term(tmp_path):
    # every lcm fold of this table agrees and its cells would be those of
    # A3, but the reduction of a boundary's leading term would cancel it.
    # Reversing the triple (ab.a = ab.b) runs past the cube check's step
    # bound, so every command refuses the table
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES["leading term cancelled"])
    assert run_cli(["cells", "--structure", str(path), "--max-dim", "3"]) == (
        4,
        "",
        f"internal inconsistency: {DIVERGING}\n",
    )
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert code == 3
    assert out == f"violation: {DIVERGING}\n"


def test_cell_lcm_off_its_facet_lcm_exits_4(tmp_path):
    # the folds of the triple disagree, so the lcm a cell's record holds
    # could be no multiple of its rest's lcm.  The triple fails the cube
    # condition, so the run stops before it builds a cell
    message = "cube condition fails on (a,b,c): lcm(a,b,c) reversed from a and from b differ"
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES["cell lcm off its facet's"])
    for coeffs in ([], ["--coeffs", "laurent"]):
        assert run_cli(["homology", "--structure", str(path), "--max-dim", "3", *coeffs]) == (
            4,
            "",
            f"internal inconsistency: {message}\n",
        )
    assert run_cli(["validate", "--structure", str(path)]) == (3, f"violation: {message}\n", "")


def test_one_complement_mutations_end_in_documented_exit_codes(tmp_path):
    # every table one complement word of length 1 or 2 away from A3 or
    # I2(5), and of length 4 away from I2(5), under validate and homology
    # to degree 3 over Z and Q[t]: 108 tables, 324 runs.  Each ends in a
    # documented exit code with at most one line on stderr, and a homology
    # run that exits 0 prints the H_0 and H_1 that Fox calculus gives on
    # the table's own relations; the counts are pinned, so a change that
    # accepts or refuses another of these tables shows here.  No table off
    # by a shorter complement passes the checks; the 30 rank-two tables
    # whose complements keep length 4 are complete (no triple to check),
    # so all their runs exit 0 and Fox calculus compares real rows
    codes = collections.Counter()
    for spec, max_len, min_len in (("artin:A3", 2, 1), ("artin:I2(5)", 2, 1), ("artin:I2(5)", 4, 4)):
        for row, text in mutations.mutations(spec, max_len, min_len):
            runs = mutations.run_commands(text, tmp_path)
            for code, _, err in runs:
                assert code in (0, 2, 3, 4), (spec, row)
                assert "Traceback" not in err and err.count("\n") <= 1, (spec, row)
                codes[code] += 1
            assert not mutations.fox_rejects(text, runs), (spec, row)
    assert codes == {0: 90, 4: 156, 3: 78}


EMPTY_COMPLEMENT = "empty complement, so one atom divides the other"


@pytest.mark.parametrize(
    "table, entries",
    [
        (INCONSISTENT_TABLES["empty complements"], ["a,b"]),
        (INCONSISTENT_TABLES["empty complement, one side"], ["a,b"]),
        (_table(ABC + ["LCM a b COMPL - -", "LCM a c COMPL c a", "LCM b c COMPL - -"]), ["a,b", "b,c"]),
    ],
)
def test_validate_reports_each_empty_complement(tmp_path, table, entries):
    path = tmp_path / "empty.gs"
    path.write_text(table)
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert code == 3
    assert out.splitlines() == [f"violation: LCM({pair}): {EMPTY_COMPLEMENT}" for pair in entries]


def test_non_utf8_structure_file_exits_2(tmp_path):
    path = tmp_path / "utf16.gs"
    path.write_bytes(b"\xff\xfe" + _table(["ATOM a * * 1"]).encode("utf-16-le"))
    code, out, err = run_cli(["cells", "--structure", str(path)])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert str(path) in err and "UTF-8" in err


@pytest.mark.parametrize(
    "spec", ["dual:Ax", "dual:A", "dual:", "artin:I2(x)", "artin:I2()", "artin:", "artin:A0", "circ:"]
)
def test_malformed_builtin_specs_exit_2(spec):
    code, out, err = run_cli(["cells", "--structure", f"builtin:{spec}"])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


FUZZ_SPECS = ["artin:A3", "artin:B3", "artin:I2(5)", "circ:G7", "circ:G13", "dual:A3"]
FUZZ_TEXTS = {spec: serialize_structure(builtin_structure(spec)) for spec in FUZZ_SPECS}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_tables_end_in_documented_exit_codes(data):
    # replace one complement word of a builtin's table by a word of the same
    # length or of any length up to 4, and run every table-reading command;
    # a table the parser accepts must round-trip through serialize_structure,
    # and one it rejects must raise a typed error
    lines = FUZZ_TEXTS[data.draw(st.sampled_from(FUZZ_SPECS))].splitlines()
    atoms = [line.split()[1] for line in lines if line.startswith("ATOM ")]
    row = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("LCM ")]))
    fields = lines[row].split()  # LCM a b COMPL word word
    side = data.draw(st.sampled_from([4, 5]))
    size = data.draw(st.just(len(fields[side].split("."))) | st.integers(0, 4))
    word = data.draw(st.lists(st.sampled_from(atoms), min_size=size, max_size=size))
    fields[side] = ".".join(word) if word else "-"
    lines[row] = " ".join(fields)
    text = "\n".join(lines) + "\n"
    try:
        parsed = parse_structure(text)
    except GaussianError:
        parsed = None
    if parsed is not None:
        again = serialize_structure(parsed)
        assert serialize_structure(parse_structure(again)) == again, lines[row]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.gs"
        path.write_text(text)
        for command, *rest in (("cells", "--max-dim", "3"), ("bounds",), ("validate",), ("homology", "--max-dim", "3")):
            code, _, _ = run_cli([command, "--structure", str(path), *rest])
            assert code in (0, 2, 3, 4), (command, lines[row])
