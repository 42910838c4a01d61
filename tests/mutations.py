"""Tables one complement away from a builtin, and the CLI runs over them.

`mutations(spec, max_len)` yields every table that differs from the
builtin's serialized table in exactly one complement word, that word
replaced by each word over the atoms of length min_len..max_len other than
itself.  The order is fixed: lcm rows as serialized, the left complement
before the right, shorter words first, words in atom order; nothing is
drawn at random.  `run_commands(text, directory)` runs `COMMANDS` on one
table in process, through `cli.main`.

Run as a script, from the root of a checkout, it runs the whole `CAMPAIGN`
and prints the exit-code counts per builtin and in total:

    PYTHONPATH=src python tests/mutations.py
"""

import collections
import contextlib
import io
import itertools
import tempfile
from pathlib import Path

from garside_homology import builtin_structure, serialize_structure
from garside_homology.cli import main

COMMANDS = (
    ("validate",),
    ("homology", "--max-dim", "3"),
    ("homology", "--max-dim", "3", "--coeffs", "laurent"),
)

# (builtin, shortest and longest replacement word)
CAMPAIGN = (
    ("artin:A3", 1, 2),
    ("artin:I2(5)", 1, 3),
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


def campaign():
    """Exit-code counts per builtin of the CAMPAIGN."""
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec, min_len, max_len in CAMPAIGN:
            counts[spec] = collections.Counter(
                code
                for _, text in mutations(spec, max_len, min_len)
                for code, _, _ in run_commands(text, tmp)
            )
    return counts


def _summary(counter):
    return ", ".join(f"{n} exit {code}" for code, n in sorted(counter.items(), reverse=True))


if __name__ == "__main__":
    counts = campaign()
    for spec, counter in counts.items():
        print(f"{spec}: {sum(counter.values())} runs, {_summary(counter)}")
    total = sum(counts.values(), collections.Counter())
    print(f"total: {sum(total.values())} runs, {_summary(total)}")
