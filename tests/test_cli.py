"""Command-line behavior: outputs, exit codes, determinism."""

import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside_homology import GaussianError, builtin_structure, parse_structure, serialize_structure
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


def test_no_memo_flag_matches():
    base = run_cli(["homology", "--structure", "builtin:circ:G12", "--coeffs", "trivial"])
    slow = run_cli(
        ["homology", "--structure", "builtin:circ:G12", "--coeffs", "trivial", "--no-memo"]
    )
    assert base[1] == slow[1]


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


def _table(lines):
    return "GAUSSIAN-STRUCTURE v1\nOBJECT *\n" + "".join(f"{line}\n" for line in lines)


def _mutated_builtin(spec, row, line):
    lines = serialize_structure(builtin_structure(spec)).splitlines(keepends=True)
    lines = [line + "\n" if text.startswith(row) else text for text in lines]
    return "".join(lines)


ABC = ["ATOM a * * 1", "ATOM b * * 1", "ATOM c * * 1"]
# tables the commands must refuse with exit 4: lcm sides of different
# lengths (the second makes unchecked division grow the trie without
# bound), a pair whose lcm its atom does not divide, a boundary that
# leaves the enumerated cells, and empty complements
INCONSISTENT_TABLES = {
    "uneven sides": _table(
        ABC + ["LCM a b COMPL b c.a", "LCM a c COMPL b.c a.b", "LCM b c COMPL c.a a.b"]
    ),
    "uneven sides, growing trie": _mutated_builtin("artin:A3", "LCM a c ", "LCM a c COMPL c a.b.c"),
    "pair lcm not divisible": _mutated_builtin("artin:A3", "LCM a b ", "LCM a b COMPL a.b b.c"),
    "boundary off the cells": _mutated_builtin("dual:A3", "LCM t12 t23 ", "LCM t12 t23 COMPL t23 t02"),
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
    + [("boundary off the cells", "homology")],
)
def test_inconsistent_table_exits_4(tmp_path, table, command):
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES[table])
    code, out, err = run_cli([command, "--structure", str(path), "--max-dim", "3"])
    assert (code, out) == (4, "")
    assert err.startswith("internal inconsistency:")


def test_validate_flags_diverging_folds(tmp_path):
    # the affine A2~ relations: every pair has an lcm, the triple has no
    # common multiple, and reversing it never ends
    path = tmp_path / "affine.gs"
    path.write_text(
        _table(ABC + ["LCM a b COMPL a.b b.a", "LCM a c COMPL a.c c.a", "LCM b c COMPL b.c c.b"])
    )
    code, out, _ = run_cli(["validate", "--structure", str(path)])
    assert code == 3
    assert out == "violation: lcm fold of (0, 1, 2) failed\n"


@pytest.mark.parametrize("depth", ["3", "4", "6"])
def test_validate_flags_boundary_off_the_cells(tmp_path, depth):
    # every lcm fold of this table agrees, but its complex breaks in degree 3
    path = tmp_path / "bad.gs"
    path.write_text(INCONSISTENT_TABLES["boundary off the cells"])
    code, out, _ = run_cli(["validate", "--structure", str(path), "--depth", depth])
    assert code == 3
    off_cells, squared = out.splitlines()
    assert off_cells.startswith("violation: ") and off_cells.endswith("which is not a cell")
    assert squared.startswith("violation: ") and "boundary of boundary is nonzero" in squared


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
        for command in ("cells", "bounds", "validate", "homology"):
            code, _, _ = run_cli([command, "--structure", str(path), "--max-dim", "3"])
            assert code in (0, 2, 3, 4), (command, lines[row])
