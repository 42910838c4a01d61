"""Record golden.json: the stdout of every fixed benchmark command.

    python3 perfbench/record_golden.py

Runs each command of workloads.golden_commands() through
`garside_homology.cli.main` from this checkout's `src`, and refuses to write
when a command fails or an output disagrees with a row the test suite pins
(the rows below are transcribed from tests/test_acceptance.py and
tests/test_tables.py).  Record at the commit the benchmark's baseline is
taken on; the outputs do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

# -- rows pinned by the test suite, as the CLI prints them -------------------------

_I2_TRIVIAL = {"I2(5)": ["Z", "Z", "0"]}
TRIVIAL = {
    **{f"artin:I2({m})": _I2_TRIVIAL.get(f"I2({m})", ["Z", "Z^2", "Z"]) for m in (4, 5, 6, 8, 10)},
    "circ:G7": ["Z", "Z^3", "Z^2", "0"],
    "circ:G12": ["Z", "Z", "0", "0"],
    "circ:G13": ["Z", "Z^2", "Z", "0"],
    "circ:G15": ["Z", "Z^3", "Z^2", "0"],
    "circ:G22": ["Z", "Z", "0", "0"],
    "artin:H3": ["Z", "Z", "Z", "Z"],
    "artin:A3": ["Z", "Z", "Z_2", "0"],
    "artin:B3": ["Z", "Z^2", "Z^2", "Z"],
    "artin:F4": ["Z", "Z^2", "Z^2", "Z^2", "Z"],
    "artin:A4": ["Z", "Z", "Z_2", "0", "0"],
}
SIGN = {
    **{f"artin:I2({m})": ["Z_2", f"Z_{m}", "0"] for m in (4, 5, 6, 8, 10)},
    "circ:G7": ["Z_2", "Z_2 x Z_2", "0", "0"],
    "circ:G12": ["Z_2", "Z_3", "0", "0"],
    "circ:G13": ["Z_2", "Z_2", "0", "0"],
    "circ:G22": ["Z_2", "0", "0", "0"],
    "artin:H3": ["Z_2", "0", "Z_2", "0"],
    "artin:F4": ["Z_2", "Z_2", "Z_6", "Z_24", "0"],
    "artin:A4": ["Z_2", "0", "Z_2", "Z_5", "0"],
}
# Laurent over Q: degree -> cyclotomic factorizations of the torsion
# divisors, free rank 0 throughout; unlisted degrees are 0 where the test
# pins the whole row, unchecked where it pins only some degrees
LAURENT_FULL = {
    "artin:A4": {0: ["Phi_1"], 2: ["Phi_4"], 3: ["Phi_10"]},
    "artin:H4": {
        0: ["Phi_1"],
        3: ["Phi_1*Phi_3*Phi_4*Phi_5*Phi_6*Phi_10*Phi_12*Phi_15*Phi_20*Phi_30"],
    },
    "circ:G12": {0: ["Phi_1"], 1: ["Phi_6*Phi_12"]},
    "circ:G22": {0: ["Phi_1"], 1: ["Phi_15"]},
    "circ:G7": {0: ["Phi_1"], 1: ["Phi_1", "Phi_1*Phi_3"]},
    "circ:G15": {0: ["Phi_1"], 1: ["Phi_1", "Phi_1*Phi_5"]},
}
LAURENT_PARTIAL = {
    "artin:I2(4)": {1: ["Phi_1*Phi_4"], 2: []},
    "artin:I2(5)": {1: ["Phi_10"], 2: []},
    "artin:I2(6)": {1: ["Phi_1*Phi_3*Phi_6"], 2: []},
    "artin:I2(8)": {1: ["Phi_1*Phi_4*Phi_8"], 2: []},
    "artin:I2(10)": {1: ["Phi_1*Phi_5*Phi_10"], 2: []},
    # the corrected H3 row (test_criterion_5_h3_row_cross_checked), not the
    # published one that test_criterion_5_h3_row_as_published keeps red
    "artin:H3": {2: ["Phi_1*Phi_3*Phi_5"]},
}
# optimized cell counts (criterion 1) and G13's identity ordering (criterion 2)
CELLS = {
    "artin:A3": "1 3 3 1",
    "artin:B3": "1 3 3 1",
    "artin:H3": "1 3 3 1",
    "artin:F4": "1 4 6 4 1",
}
CELLS_TAIL = {"circ:G7": "3 2 0", "circ:G12": "3 2 0", "circ:G22": "3 2 0"}


def _values(stdout: str) -> list[str]:
    return [line.split(" = ", 1)[1] for line in workloads.h_lines(stdout)]


def _laurent(value: str) -> list[str] | None:
    """Cyclotomic factorizations of a Laurent group, None if it has free rank."""
    if value == "0":
        return []
    factors = []
    for part in value.split(" (+) "):
        match = re.fullmatch(r"Q\[t,t\^-1\]/\(.* = (\S+)\)", part)
        if match is None:
            return None
        factors.append(match.group(1))
    return factors


def pinned_mismatches(golden: dict[str, str]) -> list[str]:
    bad = []

    def out(spec, *rest):
        return golden[workloads.key(["homology", "--structure", "builtin:" + spec, *rest])]

    def cells(spec):
        text = golden[workloads.key(["cells", "--structure", "builtin:" + spec, "--compare-orderings"])]
        return dict(line.split(": ") for line in text.splitlines())

    for spec, row in TRIVIAL.items():
        if _values(out(spec, "--coeffs", "trivial")) != row:
            bad.append(f"{spec} trivial")
    for spec, row in SIGN.items():
        if _values(out(spec, "--coeffs", "sign")) != row:
            bad.append(f"{spec} sign")
    for pinned, full in ((LAURENT_FULL, True), (LAURENT_PARTIAL, False)):
        for spec, row in pinned.items():
            got = [_laurent(v) for v in _values(out(spec, *workloads.LAURENT_Q))]
            degrees = range(len(got)) if full else row
            if any(got[n] != row.get(n, []) for n in degrees):
                bad.append(f"{spec} laurent")
    for spec, counts in CELLS.items():
        if cells(spec)["optimized"] != counts:
            bad.append(f"{spec} cells")
    for spec, tail in CELLS_TAIL.items():
        if cells(spec)["optimized"].split(" ", 1)[1] != tail:
            bad.append(f"{spec} cells")
    for spec in ("circ:G13", "circ:G15"):
        if cells(spec)["optimized"].split()[2:] != ["2", "0"]:
            bad.append(f"{spec} cells")
    if cells("circ:G13")["identity"].split()[2] != "3":
        bad.append("circ:G13 identity cells")
    return bad


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from garside_homology import cli

    golden = {}
    for argv in workloads.golden_commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            print(f"{workloads.key(argv)}: exit code {code}", file=sys.stderr)
            return 1
        golden[workloads.key(argv)] = buf.getvalue()
    bad = pinned_mismatches(golden)
    if bad:
        print("outputs disagree with pinned rows: " + ", ".join(bad), file=sys.stderr)
        return 1
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} outputs to {workloads.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
