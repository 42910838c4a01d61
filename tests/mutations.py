"""Tables one complement away from a builtin, and the CLI runs over them.

`mutations(spec, max_len)` yields every table that differs from the
builtin's serialized table in exactly one complement word, that word
replaced by each word over the atoms of length min_len..max_len other than
itself.  The order is fixed: lcm rows as serialized, the left complement
before the right, shorter words first, words in atom order; nothing is
drawn at random.  `run_commands(text, directory)` runs `COMMANDS` on one
table in process, through `cli.main`, and `fox_rejects(text, runs)` names
the homology runs that exited 0 with an H_0 or H_1 other than Fox
calculus gives on the table's own presentation (tests/oracles.py).

Run as a script, from the root of a checkout, it runs the whole `CAMPAIGN`
and prints the exit-code counts per builtin and in total, and under each
builtin the exit-0 runs that Fox calculus rejects:

    PYTHONPATH=src python tests/mutations.py
"""

import collections
import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import oracles
from garside_homology import builtin_structure, serialize_structure
from garside_homology.cli import main
from garside_homology.coefficients import make_system
from garside_homology.homology import format_group

COMMANDS = (
    ("validate",),
    ("homology", "--max-dim", "3"),
    ("homology", "--max-dim", "3", "--coeffs", "laurent"),
)

# (builtin, shortest and longest replacement word)
CAMPAIGN = (
    ("artin:A3", 1, 2),
    ("artin:I2(5)", 1, 4),
    ("circ:G7", 1, 2),
    ("circ:G13", 1, 2),
    ("dual:A3", 1, 1),
)


def mutations(spec, max_len, min_len=1):
    """(mutated lcm row, table text) per single-complement replacement of
    the builtin's table by a word of length min_len..max_len."""
    lines = serialize_structure(builtin_structure(spec)).splitlines()
    atoms = [line.split()[1] for line in lines if line.startswith("ATOM ")]
    for row, line in enumerate(lines):
        if not line.startswith("LCM "):
            continue
        fields = line.split()  # LCM a b COMPL word word
        for side in (4, 5):
            for length in range(min_len, max_len + 1):
                for word in itertools.product(atoms, repeat=length):
                    token = ".".join(word)
                    if token == fields[side]:
                        continue
                    mutated = " ".join(fields[:side] + [token] + fields[side + 1 :])
                    yield mutated, "\n".join(lines[:row] + [mutated] + lines[row + 1 :]) + "\n"


def run_commands(text, directory):
    """(exit code, stdout, stderr) of each of COMMANDS on the table."""
    path = Path(directory) / "mutated.gs"
    path.write_text(text)
    runs = []
    for command, *rest in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--structure", str(path), *rest])
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def presentation(text):
    """(generators, relations) of a table with one object and atoms of
    length 1: its atoms, and u.a = v.b per row `LCM a b COMPL u v`."""
    lines = [line.split() for line in text.splitlines()]
    assert sum(fields[:1] == ["OBJECT"] for fields in lines) == 1
    gens, relations = [], []
    for fields in lines:
        if fields[:1] == ["ATOM"]:
            assert fields[4] == "1", fields
            gens.append(fields[1])
        elif fields[:1] == ["LCM"]:
            a, b, _, u, v = fields[1:]
            relations.append((_letters(u) + [a], _letters(v) + [b]))
    return gens, relations


def _letters(token):
    return [] if token == "-" else token.split(".")


def fox_rejects(text, runs):
    """The homology commands of COMMANDS that exited 0 on the table (runs
    as run_commands gives them) with H_0 or H_1 lines other than Fox
    calculus gives on the table's presentation."""
    gens, relations = presentation(text)
    rejected = []
    for command, (code, out, _) in zip(COMMANDS, runs):
        if code or command[0] != "homology":
            continue
        system = make_system("laurent" if "laurent" in command else "trivial")
        fox = oracles.fox_homology(gens, relations, system)
        if out.splitlines()[1:3] != [f"H_{n} = {format_group(group, system)}" for n, group in enumerate(fox)]:
            rejected.append(command)
    return rejected


def campaign():
    """Per builtin of the CAMPAIGN, the exit-code counts and the exit-0
    runs Fox calculus rejects, as (mutated lcm row, command)."""
    counts, rejected = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec, min_len, max_len in CAMPAIGN:
            counts[spec], rejected[spec] = collections.Counter(), []
            for row, text in mutations(spec, max_len, min_len):
                runs = run_commands(text, tmp)
                counts[spec].update(code for code, _, _ in runs)
                rejected[spec] += [(row, " ".join(command)) for command in fox_rejects(text, runs)]
    return counts, rejected


def _summary(counter):
    return ", ".join(f"{n} exit {code}" for code, n in sorted(counter.items(), reverse=True))


if __name__ == "__main__":
    counts, rejected = campaign()
    for spec, counter in counts.items():
        print(f"{spec}: {sum(counter.values())} runs, {_summary(counter)}; Fox calculus rejects {len(rejected[spec])}")
        for row, command in rejected[spec]:
            print(f"  {row}: {command}")
    total = sum(counts.values(), collections.Counter())
    n_rejected = sum(map(len, rejected.values()))
    print(f"total: {sum(total.values())} runs, {_summary(total)}; Fox calculus rejects {n_rejected}")
