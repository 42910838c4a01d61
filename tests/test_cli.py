"""Command-line behavior: outputs, exit codes, determinism."""

import io
import sys

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
