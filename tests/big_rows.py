"""The full homology rows of large Artin types against the Salvetti complex,
each in its own child process under an address-space cap.

For every type and coefficient system asked for, a fresh interpreter
computes the whole row (every degree, the auto ordering, as the CLI does)
with RLIMIT_AS set on that child alone, and prints one line: the CPU time
of the computation, its peak resident memory (`ru_maxrss`), the word
kernel's trie nodes, the `_mul` slots filled out of those the dense table
holds, the number of memoized lcms, and whether the row equals
`oracles.salvetti_homology`'s as `format_group` text and the peak stays
under MAX_RSS_MB.  The oracle runs after the measurement.  Rows run one
after another, so at most one child holds its memory at a time.

Run from the root of a checkout; the default is the full E7 and E8 rows in
trivial, sign, Laurent-F3 and Laurent-Q coefficients:

    PYTHONPATH=src python tests/big_rows.py
    PYTHONPATH=src python tests/big_rows.py E6 --systems trivial

It exits 0 when every row passes and 1 otherwise.  pytest does not collect
it; tests/test_tables.py runs it on E6.
"""

import argparse
import resource
import subprocess
import sys
import time

SYSTEMS = {
    "trivial": ("trivial",),
    "sign": ("sign",),
    "laurent-F3": ("laurent", "Fp", 3),
    "laurent-Q": ("laurent", "Q"),
}
MAX_RSS_MB = 1024  # peak resident memory a row may reach
CAP_MB = 2048  # RLIMIT_AS of each child


def child(name, system_name):
    """Compute one row, print its line, and return the exit status."""
    import oracles
    from garside_homology import artin_named, compute_homology, coxeter_matrix, format_group, make_system
    from garside_homology.resolution import optimize_ordering

    system = make_system(*SYSTEMS[system_name])
    struct = artin_named(name)
    start = time.process_time()
    result = compute_homology(struct, system, optimize_ordering(struct))
    cpu = time.process_time() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel = result.resolution.kernel
    filled = len(kernel._mul) - kernel._mul.count(0)
    got = [format_group(group, system) for group in result.groups]
    expected = [format_group(group, system) for group in oracles.salvetti_homology(coxeter_matrix(name), system)]
    verdict = "row equals the Salvetti complex" if got == expected else f"row {got} differs from {expected}"
    if rss_mb > MAX_RSS_MB:
        verdict += f", over {MAX_RSS_MB} MB"
    print(
        f"{name} {system_name}: {cpu:.1f} s CPU, {rss_mb:,.0f} MB ru_maxrss, {len(kernel.last):,} trie nodes, "
        f"{filled:,} of {len(kernel._mul):,} _mul slots filled ({filled / len(kernel._mul):.1%}), "
        f"{len(kernel._lcm):,} lcms; {verdict}",
        flush=True,
    )
    return 0 if got == expected and rss_mb <= MAX_RSS_MB else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("types", nargs="*", default=["E7", "E8"], help="Artin types (default: E7 E8)")
    parser.add_argument("--systems", nargs="+", choices=sorted(SYSTEMS), default=list(SYSTEMS))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        cap = CAP_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        (name,), (system_name,) = args.types, args.systems
        return child(name, system_name)
    status = 0
    for name in args.types:
        for system_name in args.systems:
            command = [sys.executable, __file__, name, "--systems", system_name, "--child"]
            code = subprocess.run(command).returncode
            if code:
                status = 1
            if code < 0:  # killed by a signal, before printing its line
                print(f"{name} {system_name}: child killed by signal {-code}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
