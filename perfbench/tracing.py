"""Outside-in tracing of one benchmark pass.

Spans are recorded around the calls into each layer of the package by
replacing module attributes from the benchmark's own files; nothing in the
package changes.  Each name is wrapped where its caller looks it up
(`cli.compute_homology`, not `homology.compute_homology`), because the
caller holds its own reference.  A span is [layer, start, end, parent index
(-1 at the root), command id].  Counts come from the public return values at
the same boundaries.  Four `GaussianStructure` methods get counting-only
wrappers, installed alone in a separate counting pass because they slow the
word arithmetic by up to half and would skew the self times.  Tracing costs
time, so a traced pass never supplies end-to-end numbers.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (module, attribute, layer)
SPANS = [
    ("cli", "builtin_structure", "structures"),
    ("cli", "parse_structure", "structures"),
    ("cli", "resolve_ordering", "resolution.ordering"),
    ("cli", "optimize_ordering", "resolution.ordering"),
    ("cli", "two_cell_bounds", "resolution.bounds"),
    ("cli", "compute_homology", "homology"),
    ("cli", "format_group", "homology.format"),
    ("cli", "torsion_csv", "homology.format"),
    ("cli", "cyclotomic_csv", "homology.format"),
    ("homology", "build_complex", "resolution.differential"),
    ("homology", "specialize", "coefficients"),
    ("homology", "homology_at", "linalg"),
]
# OrderResolution.__init__ enumerates the cells; patching it on the class
# covers both `cli.OrderResolution(...)` and the call inside build_complex,
# so the differential's self time is build_complex minus this child.
CELLS_LAYER = "resolution.cells"
COUNTED_METHODS = ["canonical_form", "least_divisor", "quotient_atom", "lcm_with_atom"]

# layers in report order; trace.observe is the time spent taking counts
LAYERS = [
    "cli",
    "structures",
    "resolution.ordering",
    "resolution.bounds",
    "resolution.cells",
    "resolution.differential",
    "coefficients",
    "linalg",
    "homology",
    "homology.format",
    "trace.observe",
]


def entry_size(entry) -> tuple[str, int]:
    """('bits', n) for an integer, ('degree', d) for a dense polynomial."""
    if isinstance(entry, int):
        return "bits", abs(entry).bit_length()
    return "degree", len(entry) - 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.details: dict[int, list] = {}  # command id -> per-layer records
        self.command = -1
        self._stack: list[int] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, layer: str) -> list:
        rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                obs = self._open("trace.observe")
                observe(result, *args)
                self._close(obs)
            return result

        return traced

    def count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run_command(self, command: int, main, argv):
        """Call the CLI entry point under a root `cli` span."""
        self.command = command
        self.details[command] = []
        rec = self._open("cli")
        try:
            return main(argv)
        finally:
            self._close(rec)

    # -- counts from return values ------------------------------------------------

    def _note(self, record) -> None:
        self.details[self.command].append(record)

    def _maximum(self, name: str, value: int) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def _observe_cells(self, _, res, *rest) -> None:
        counts = res.cell_counts()
        self.counts["resolution.cells.count"] += sum(counts)
        self._note(["cells", counts])

    def _observe_complex(self, cx, *rest) -> None:
        terms = 0
        longest = 0
        for layer in cx.boundaries:
            for chain in layer.values():
                terms += len(chain)
                for word, _ in chain:
                    if len(word.atoms) > longest:
                        longest = len(word.atoms)
        self.counts["resolution.differential.chain_terms"] += terms
        self._maximum("resolution.differential.max_word_len", longest)
        self._note(["complex", cx.cell_counts(), terms, longest])

    def _largest(self, metric: str, entries) -> dict[str, int]:
        """Largest size per unit among the nonzero entries, also folded into
        the run-wide maximum `metric`_<unit>."""
        largest: dict[str, int] = {}
        for e in entries:
            if e:
                unit, size = entry_size(e)
                largest[unit] = max(largest.get(unit, 0), size)
        for unit, size in largest.items():
            self._maximum(f"{metric}_{unit}", size)
        return largest

    def _observe_matrices(self, mats, *rest) -> None:
        mats = [m for m in mats if m is not None]
        largest = self._largest("coefficients.max_entry", (e for m in mats for row in m.entries for e in row))
        self._note(["specialize", [[m.rows, m.cols] for m in mats], largest])

    def _observe_group(self, group, b_in, b_out, *rest) -> None:
        for m in (b_in, b_out):
            if m is not None:
                self._maximum("linalg.max_matrix_entries", m.rows * m.cols)
        largest = self._largest("linalg.max_divisor", group.torsion)
        self._note(["homology_at", group.free_rank, len(group.torsion), largest])

    # -- installation ----------------------------------------------------------------

    def install_spans(self) -> None:
        from garside_homology import cli, homology, resolution

        modules = {"cli": cli, "homology": homology}
        observers = {
            "build_complex": self._observe_complex,
            "specialize": self._observe_matrices,
            "homology_at": self._observe_group,
        }
        for module, attr, layer in SPANS:
            target = modules[module]
            fn = getattr(target, attr)
            setattr(target, attr, self.wrap(fn, layer, observers.get(attr)))
        cls = resolution.OrderResolution
        cls.__init__ = self.wrap(cls.__init__, CELLS_LAYER, self._observe_cells)

    def install_counters(self) -> None:
        from garside_homology import gaussian

        for name in COUNTED_METHODS:
            method = getattr(gaussian.GaussianStructure, name)
            setattr(gaussian.GaussianStructure, name, self.count(method, f"gaussian.{name}.calls"))


def layer_table(spans: list[list]) -> dict[str, list]:
    """Per layer: [self seconds, calls].  Self time is a span's duration
    minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    table = {layer: [0.0, 0] for layer in LAYERS}
    for i, (layer, start, end, _, _) in enumerate(spans):
        row = table.setdefault(layer, [0.0, 0])
        row[0] += end - start - covered[i]
        row[1] += 1
    return table
