"""Command-line front end.

Commands: cells, bounds, order, homology, validate, builtin.  Each takes
--structure, a builtin (builtin:artin:F4, builtin:circ:G13, builtin:dual:A3)
or the path of a structure file, and only the options it reads (see
build_parser); any other option is a configuration error.  Exit codes: 0 ok,
2 configuration or parse error, 3 structure validation failure, 4 internal
inconsistency (including a recursion too deep or memory exhausted).

main(argv) may be called any number of times in one process: the parser is
built on the first call and reused by later ones, and it keeps nothing from
one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .coefficients import make_system
from .gaussian import (
    ConsistencyError,
    GaussianError,
    GaussianStructure,
    PreconditionError,
)
from .homology import compute_homology, cyclotomic_csv, format_group, torsion_csv
from .resolution import (
    OrderResolution,
    optimize_ordering,
    resolve_ordering,
    two_cell_bounds,
)
from .structures import (
    builtin_structure,
    parse_structure,
    serialize_structure,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _load_structure(spec: str) -> GaussianStructure:
    if spec.startswith("builtin:"):
        return builtin_structure(spec[len("builtin:") :])
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read structure file {spec!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"structure file {spec!r} is not valid UTF-8: {exc}") from exc
    struct = parse_structure(text)
    struct.label = spec
    return struct


def cmd_cells(args) -> int:
    struct = _load_structure(args.structure)
    lines = []
    if args.compare_orderings:
        for mode, ordering in (
            ("identity", struct.default_ordering()),
            ("optimized", optimize_ordering(struct)),
        ):
            res = OrderResolution(struct, ordering, args.max_dim)
            counts = res.cell_counts()
            if args.format == "csv":
                lines.append(",".join([mode] + [str(c) for c in counts]))
            else:
                lines.append(f"{mode}: " + " ".join(str(c) for c in counts))
    else:
        ordering = resolve_ordering(struct, args.order or "auto")
        res = OrderResolution(struct, ordering, args.max_dim)
        counts = res.cell_counts()
        if args.format == "csv":
            lines.append("dimension,cells")
            lines.extend(f"{n},{c}" for n, c in enumerate(counts))
        else:
            lines.append(" ".join(str(c) for c in counts))
    print("\n".join(lines))
    return EXIT_OK


def cmd_bounds(args) -> int:
    struct = _load_structure(args.structure)
    bounds = two_cell_bounds(struct)
    if args.format == "csv":
        print("object,lower,upper")
        for x, (lo, hi) in sorted(bounds.per_object.items()):
            print(f"{struct.object_names[x]},{lo},{hi}")
        print(f"total,{bounds.lower},{bounds.upper}")
    else:
        if len(bounds.per_object) > 1:
            for x, (lo, hi) in sorted(bounds.per_object.items()):
                print(f"{struct.object_names[x]}: ({lo}, {hi})")
        print(f"2-cell bounds: ({bounds.lower}, {bounds.upper})")
    return EXIT_OK


def cmd_order(args) -> int:
    struct = _load_structure(args.structure)
    ordering = optimize_ordering(struct)
    names = [struct.atom_names[a] for a in sorted(range(struct.n_atoms), key=ordering.ranks.__getitem__)]
    res = OrderResolution(struct, ordering, args.max_dim)
    if args.format == "csv":
        print("order," + "|".join(names))
        print("cells," + "|".join(str(c) for c in res.cell_counts()))
    else:
        print("order: " + " < ".join(names))
        print("cells: " + " ".join(str(c) for c in res.cell_counts()))
    return EXIT_OK


def cmd_homology(args) -> int:
    struct = _load_structure(args.structure)
    system = make_system(args.coeffs, args.field, args.p)
    result = compute_homology(
        struct,
        system,
        ordering=resolve_ordering(struct, args.order),
        max_dim=args.max_dim,
    )
    if args.format == "csv":
        print("degree,free_rank,torsion,cyclotomic")
        for n, group in enumerate(result.groups):
            print(f"{n},{group.free_rank},{torsion_csv(group, system)},{cyclotomic_csv(group, system)}")
    else:
        print(f"# {struct.label or args.structure}, coefficients {system.describe()}")
        for n, group in enumerate(result.groups):
            print(f"H_{n} = {format_group(group, system)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    struct = _load_structure(args.structure)
    violations = struct.validate()
    if not violations:
        print("ok")
        return EXIT_OK
    for violation in violations:
        print(f"violation: {violation}")
    return EXIT_VALIDATION


def cmd_builtin(args) -> int:
    struct = _load_structure(args.structure)
    sys.stdout.write(serialize_structure(struct))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside-homology",
        description="Cell counts, ordering optimization and homology for Gaussian structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_cells = sub.add_parser("cells", help="per-dimension cell counts")
    p_bounds = sub.add_parser("bounds", help="bounds on the 2-cell count over orderings")
    p_order = sub.add_parser("order", help="optimize the atom ordering")
    p_hom = sub.add_parser("homology", help="homology of the structure's group")
    p_val = sub.add_parser("validate", help="check that the lcm table is complete")
    p_builtin = sub.add_parser("builtin", help="emit a builtin as a structure file")
    for p in (p_cells, p_bounds, p_order, p_hom, p_val, p_builtin):
        p.add_argument("--structure", required=True, help="builtin:<kind:name> or a file path")
    # cells reads --order or --compare-orderings, never both; its --order
    # defaults to None, read as auto, as the group overlooks a given default
    cells_mode = p_cells.add_mutually_exclusive_group()
    for p, default in ((cells_mode, None), (p_hom, "auto")):
        p.add_argument("--order", default=default, choices=["auto", "declared", "identity"])
    for p in (p_cells, p_order, p_hom):
        p.add_argument("--max-dim", type=int, default=None)
    for p in (p_cells, p_bounds, p_order, p_hom):
        p.add_argument("--format", default="text", choices=["text", "csv"])
    cells_mode.add_argument("--compare-orderings", action="store_true")
    p_hom.add_argument("--coeffs", default="trivial", choices=["trivial", "sign", "laurent"])
    p_hom.add_argument("--field", default=None, choices=["Q", "Fp"])
    p_hom.add_argument("--p", type=int, default=None, help="prime for --field Fp")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so the cached parser holds no command function
    command = {
        "cells": cmd_cells,
        "bounds": cmd_bounds,
        "order": cmd_order,
        "homology": cmd_homology,
        "validate": cmd_validate,
        "builtin": cmd_builtin,
    }[args.command]
    try:
        return command(args)
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GaussianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RecursionError:
        print("internal error: recursion too deep for this structure", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
