"""Benchmark of the garside-homology command line.

    python3 perfbench/run.py --workload artin-words|snf-laurent|table-sweep
                             [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client.  The seed generates the workload: the ORDER
lines of the structure files table-sweep writes, and the order of the
commands in a pass.  Every child is a fresh interpreter (child.py), so
caches and peak memory start cold as a CLI user pays them.  Set-up children
first measure `setup_s`; passes then repeat for about `--seconds`, each
child timing one pass over the commands after its own set-up.  Each output
is checked against golden.json, and any mismatch counts as a failed command.

With `--trace 0` the result carries the end-to-end metrics, medians over the
untraced passes.  `wall_s`, `cpu_s` and `setup_s` are given at the reference
host speed of child.py, which takes the host's swings out of them; the raw
medians are printed above the result line.  With `--trace 1` an untraced
pass, a pass with spans and a pass with counting wrappers (tracing.py) take
turns, and the result carries the per-layer metrics; a report per layer is
printed above it.  The last stdout line is the JSON result; generated
files, spans and report.json go under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")
SETUP_CHILDREN = 10
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# per-layer metric -> unit; self times and call counts come from the spans,
# the rest from the counts the traced pass takes at the layer boundaries
SELF_TIMED = [layer for layer in tracing.LAYERS if layer != "trace.observe"]
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIMED},
    "structures.calls": "count",
    "linalg.calls": "count",
    "resolution.cells.count": "count",
    "resolution.differential.chain_terms": "count",
    "resolution.differential.max_word_len": "atoms",
    **{f"gaussian.{m}.calls": "count" for m in tracing.COUNTED_METHODS},
    "coefficients.max_entry_bits": "bits",
    "coefficients.max_entry_degree": "degree",
    "linalg.max_matrix_entries": "entries",
    "linalg.max_divisor_bits": "bits",
    "linalg.max_divisor_degree": "degree",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def emit_structure(spec: str) -> str:
    """A builtin as a structure file, through the CLI's `builtin` command."""
    from garside_homology import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["builtin", "--structure", "builtin:" + spec])
    if code != 0:
        raise BenchError(f"builtin --structure builtin:{spec} exited {code}")
    return buf.getvalue()


def run_child(job: Path, mode: str, deadline: float, env, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(job), mode]
    if spans is not None:
        cmd.append(str(spans))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values, unit: str) -> str:
    return f"median {median(values):.6g} {unit} (min {min(values):.6g}, max {max(values):.6g}, n={len(values)})"


def layer_report(traced, counted, tables, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over the traced and counting passes) and
    report lines.  Self times and shares are raw; the overheads compare the
    walls at the reference host speed."""
    raw_wall = median([r["raw"]["wall_s"] for r in traced])
    wall = median([r["wall_s"] for r in traced])
    counting_wall = median([r["wall_s"] for r in counted])
    metrics = {f"{layer}.self_s": median([t[layer][0] for t in tables]) for layer in SELF_TIMED}
    metrics["structures.calls"] = median([t["structures"][1] for t in tables])
    metrics["linalg.calls"] = median([t["linalg"][1] for t in tables])
    for name in PER_LAYER:
        if name not in metrics and name != "trace.overhead_frac":
            source = counted if name.startswith("gaussian.") else traced
            metrics[name] = median([r["counts"].get(name, r["maxima"].get(name, 0)) for r in source])
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1

    lines = [
        f"traced wall {raw_wall:.4f} s raw, {wall:.4f} s at reference speed, over {len(traced)} traced"
        f" passes; untraced {untraced_wall:.4f} s at reference speed"
    ]
    lines.append(f"{'layer':<26}{'self_s':>11}{'calls':>9}{'share':>8}")
    covered = 0.0
    for layer in tracing.LAYERS:
        self_s = median([t[layer][0] for t in tables])
        calls = median([t[layer][1] for t in tables])
        covered += self_s
        lines.append(f"{layer:<26}{self_s:>11.4f}{calls:>9g}{self_s / raw_wall:>8.1%}")
    outside = raw_wall - covered
    lines.append(f"{'(outside cli.main)':<26}{outside:>11.4f}{'':>9}{outside / raw_wall:>8.1%}")
    lines.append(f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}")
    lines.append(f"counting pass overhead {counting_wall / untraced_wall - 1:.4f}")
    for name, unit in PER_LAYER.items():
        if not name.endswith(".self_s") and name != "trace.overhead_frac":
            lines.append(f"{name} {metrics[name]:g} {unit}")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "garside_homology" / "__init__.py").is_file():
        print(f"no garside_homology package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (ROOT / workdir).mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, ROOT, workdir, emit_structure)
    job = ROOT / workdir / "job.json"
    job.write_text(json.dumps({"root": str(ROOT), **workload}), encoding="utf-8")
    # the seed fixes the children's string hashing too, so a run repeats exactly
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    n_commands = len(workload["commands"])

    try:
        setups = [run_child(job, "setup", deadline, env) for _ in range(SETUP_CHILDREN)]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    modes = ("pass", "trace", "count") if args.trace else ("pass",)
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    spans_files = []
    failures: list[str] = []  # one entry per failed command
    attempted = 0
    loop_start = time.monotonic()
    rounds = 0
    done = False
    while not done:
        for mode in modes:
            spans = ROOT / workdir / f"spans-{rounds}.json" if mode == "trace" else None
            attempted += n_commands
            try:
                result = run_child(job, mode, deadline, env, spans)
            except (BenchError, subprocess.TimeoutExpired) as exc:
                # every command of a pass that did not finish has failed
                failures.extend([f"{mode} child: {exc}"] * n_commands)
                done = True
                break
            runs[mode].append(result)
            failures.extend(result["failures"])
            if spans is not None:
                spans_files.append(spans)
        rounds += 1
        # stop before a further round would overrun --seconds
        done = done or (time.monotonic() - loop_start) * (rounds + 1) / rounds > args.seconds

    passes = runs["pass"]
    if not all(runs.values()):
        print("no pass completed: " + "; ".join(failures[:1]), file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {n_commands} commands a pass")
    for failure in sorted(set(failures)):
        print(f"FAILED {failure}")

    samples = {name: [r[name] for r in passes] for name in END_TO_END}
    samples["setup_s"] = [r["setup_s"] for r in setups + sum(runs.values(), [])]
    for name, unit in END_TO_END.items():
        print(f"{name}: {describe(samples[name], unit)}")
    raw = {name: [r["raw"][name] for r in passes] for name in ("wall_s", "cpu_s")}
    raw["setup_s"] = [r["raw"]["setup_s"] for r in setups + sum(runs.values(), [])]
    for name, values in raw.items():
        print(f"raw {name}: {describe(values, 's')}")
    report = {"workload": args.workload, "seed": args.seed, "samples": samples, "raw": raw, "failures": failures}

    if args.trace:
        tables = [tracing.layer_table(json.loads(p.read_text(encoding="utf-8"))) for p in spans_files]
        values, lines = layer_report(runs["trace"], runs["count"], tables, median(samples["wall_s"]))
        print("\n".join(lines))
        units = PER_LAYER
        report.update(layers=tables, per_layer=values, details=runs["trace"][-1]["details"])
    else:
        values = {name: median(samples[name]) for name in END_TO_END}
        units = END_TO_END
    (ROOT / workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    failed = len(failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
