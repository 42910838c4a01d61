"""Byte-identical CLI output against the benchmark's recorded goldens.

perfbench/golden.json maps each recorded command line (space-separated
argv) to its exact stdout; it is read here and never written.  Every
recorded command is run, the E7 row to degree 5 included.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from garside_homology.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text(encoding="utf-8"))
COMMANDS = sorted(GOLDEN)


def test_goldens_are_present():
    assert len(COMMANDS) >= 100


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split(" "))
    assert code == 0
    assert out.getvalue() == GOLDEN[command]
