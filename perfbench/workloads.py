"""Workload generation and output checks for the benchmark.

A workload is a list of CLI commands (argv lists for
``garside_homology.cli.main``), each paired with a check of its stdout.  The
seed chooses the ``ORDER`` line of every generated structure file and the
order of the commands within a pass; the commands themselves are fixed, so
every check reduces to text recorded in ``golden.json``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

ARTIN_WORDS = [
    # README headline row, then ROADMAP's stress row
    ["homology", "--structure", "builtin:artin:H4", "--coeffs", "laurent", "--field", "Q"],
    ["homology", "--structure", "builtin:artin:E7", "--max-dim", "5"],
]

LAURENT_Q = ["--coeffs", "laurent", "--field", "Q"]
SNF_LAURENT = [
    ["homology", "--structure", "builtin:artin:B5", *LAURENT_Q],
    ["homology", "--structure", "builtin:artin:D5", *LAURENT_Q],
    ["homology", "--structure", "builtin:artin:A5", *LAURENT_Q],
    ["homology", "--structure", "builtin:dual:A4", *LAURENT_Q],
    ["homology", "--structure", "builtin:dual:A4", "--coeffs", "laurent", "--field", "Fp", "--p", "3"],
]

# the small structures of the paper's tables
TABLE_STRUCTURES = [
    "artin:I2(4)", "artin:I2(5)", "artin:I2(6)", "artin:I2(8)", "artin:I2(10)",
    "circ:G7", "circ:G11", "circ:G12", "circ:G13", "circ:G15", "circ:G19", "circ:G22",
    "artin:A3", "artin:B3", "artin:H3", "artin:F4",
    "artin:A4", "artin:B4", "artin:D4", "dual:A3",
]


def table_commands(spec: str) -> list[list[str]]:
    """The auto-ordering commands run on one builtin of table-sweep."""
    s = ["--structure", "builtin:" + spec]
    return [
        ["homology", *s, "--coeffs", "trivial"],
        ["homology", *s, "--coeffs", "sign"],
        ["homology", *s, *LAURENT_Q],
        ["cells", *s, "--compare-orderings"],
        ["bounds", *s],
    ]


def golden_commands() -> list[list[str]]:
    """Every command whose stdout is recorded verbatim in golden.json."""
    cmds = ARTIN_WORDS + SNF_LAURENT
    for spec in TABLE_STRUCTURES:
        cmds = cmds + table_commands(spec)
    return cmds


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- checks -------------------------------------------------------------------
#
# A check is a JSON-able pair (kind, expected):
#   ("exact", text)   stdout equals the golden text
#   ("h_lines", list) the "H_n = ..." lines equal the golden's; homology does
#                     not depend on the atom ordering, the header line names
#                     the file and is ignored
#   ("euler", chi)    the single line of cell counts has the golden Euler
#                     characteristic; cell counts do depend on the ordering


def h_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("H_")]


def euler(counts_line: str) -> int:
    return sum((-1) ** n * int(c) for n, c in enumerate(counts_line.split()))


def check(kind: str, expected, stdout: str) -> str | None:
    """None when stdout passes, else a one-line reason."""
    if kind == "exact":
        ok = stdout == expected
    elif kind == "h_lines":
        ok = h_lines(stdout) == expected
    elif kind == "euler":
        lines = stdout.splitlines()
        ok = len(lines) == 1 and re.fullmatch(r"\d+( \d+)*", lines[0]) is not None
        ok = ok and euler(lines[0]) == expected
    else:
        raise ValueError(f"unknown check {kind!r}")
    if ok:
        return None
    return f"{kind} check failed; stdout starts {stdout[:120]!r}"


# -- generation -----------------------------------------------------------------


def _specs_of(argvs) -> list[str]:
    specs = []
    for argv in argvs:
        spec = argv[argv.index("--structure") + 1]
        if spec not in specs:
            specs.append(spec)
    return specs


def _atom_names(structure_text: str) -> list[str]:
    return [line.split()[1] for line in structure_text.splitlines() if line.startswith("ATOM ")]


def build(name: str, seed: int, root: Path, workdir: Path, emit_structure) -> dict:
    """Generate workload `name` for `seed`: its commands, each a list
    [argv, check kind, expected], and the structure specs they load.

    `emit_structure(spec)` returns a builtin serialized as a structure file
    (the CLI's `builtin` command); table-sweep writes each one to `workdir`,
    an existing directory relative to the checkout root `root`, with a
    seed-chosen ORDER line.  Commands name those files relative to `root`, where they run.
    """
    rng = random.Random(seed)
    golden = load_golden()

    def exact(argv):
        return [argv, "exact", golden[key(argv)]]

    if name == "artin-words":
        commands = [exact(argv) for argv in ARTIN_WORDS]
    elif name == "snf-laurent":
        commands = [exact(argv) for argv in SNF_LAURENT]
    elif name == "table-sweep":
        commands = []
        for spec in TABLE_STRUCTURES:
            auto = table_commands(spec)
            commands.extend(exact(argv) for argv in auto)
            text = emit_structure(spec)
            order = _atom_names(text)
            rng.shuffle(order)
            path = workdir / (re.sub(r"[^A-Za-z0-9]+", "_", spec).strip("_") + ".gs")
            (root / path).write_text(text + "ORDER " + " ".join(order) + "\n", encoding="utf-8")
            f = ["--structure", str(path), "--order", "declared"]
            # `cells --compare-orderings` prints "identity: ..." then "optimized: ..."
            optimized = golden[key(auto[3])].splitlines()[1].split(": ")[1]
            commands.append([["cells", *f], "euler", euler(optimized)])
            commands.append(
                [["homology", *f, "--coeffs", "trivial"], "h_lines", h_lines(golden[key(auto[0])])]
            )
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(commands)
    return {"commands": commands, "specs": _specs_of(argv for argv, _, _ in commands)}


WORKLOADS = ("artin-words", "snf-laurent", "table-sweep")
