"""One fresh interpreter of the benchmark: set up, then at most one pass.

    python3 perfbench/child.py JOB.json setup|pass|trace|count [SPANS.json]

Set-up is `import garside_homology` plus loading each distinct structure of
the workload once.  A pass then runs every command of the job through
`garside_homology.cli.main(argv)` with stdout captured, and checks each
output after the timed loop.  `trace` runs the pass with the spans of
tracing.py and writes them to SPANS.json at exit; `count` runs it with the
counting wrappers only.  The last stdout line is one JSON object with the
measurements.

The host's speed swings by a third and more over tens of seconds, for every
process alike, and it moves raw times more than most program changes do.  So
each time is also given at a reference host speed: a fixed calibration loop
is timed around set-up and, on a thread, every SAMPLE_EVERY_S during the
pass, and a time is scaled by REF_LOOP_S over the loop's median time in the
same interval, after the loop's own time is taken out of it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median

import workloads

# the calibration loop's time at the reference host speed, close to its
# fastest on a 2.1 GHz Xeon; a pass samples it every SAMPLE_EVERY_S, and
# BURST loops run before and after set-up and after a pass
REF_LOOP_S = 2e-4
SAMPLE_EVERY_S = 0.02
BURST = 25


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop, about REF_LOOP_S."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    return time.perf_counter() - start


def burst() -> list[float]:
    return [calibration_loop() for _ in range(BURST)]


class Sampler:
    """Times the calibration loop on a thread while the pass runs.  The loop
    holds the interpreter lock, so its time is taken out of the pass."""

    def __init__(self):
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.loops.append(calibration_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def run_command(main, argv):
    """(exit code, stdout), or (None, reason) when the command raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a raising command is a failure, the pass goes on
        return None, "raised " + traceback.format_exc().strip().splitlines()[-1]
    return code, buf.getvalue()


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    mode = sys.argv[2]
    root = Path(job["root"])
    package = root / "src" / "garside_homology"
    sys.path.insert(0, str(package.parent))

    before = burst()
    start = time.perf_counter()
    import garside_homology
    from garside_homology import cli, structures

    for spec in job["specs"]:
        if spec.startswith("builtin:"):
            structures.builtin_structure(spec[len("builtin:") :])
        else:
            structures.parse_structure((root / spec).read_text(encoding="utf-8"))
    setup = time.perf_counter() - start
    out = {"raw": {"setup_s": setup}, "setup_s": setup * REF_LOOP_S / median(before + burst())}

    if Path(garside_homology.__file__).resolve().parent != package.resolve():
        print(f"imported {garside_homology.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode in ("trace", "count"):
        from tracing import Tracer

        tracer = Tracer()
        if mode == "trace":
            tracer.install_spans()
        else:
            tracer.install_counters()
    commands = job["commands"]
    results = []
    with Sampler() as sampler:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for i, (argv, _, _) in enumerate(commands):
            main = functools.partial(tracer.run_command, i, cli.main) if mode == "trace" else cli.main
            results.append(run_command(main, argv))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    loops = sampler.loops
    speed = REF_LOOP_S / median(loops + burst())
    out["raw"].update(wall_s=wall, cpu_s=cpu)
    out["wall_s"] = (wall - sum(loops)) * speed
    out["cpu_s"] = (cpu - sum(loops)) * speed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for (argv, kind, expected), (code, stdout) in zip(commands, results):
        if code is None:
            reason = stdout
        elif code != 0:
            reason = f"exit code {code}"
        else:
            reason = workloads.check(kind, expected, stdout)
        if reason is not None:
            failures.append(f"{workloads.key(argv)}: {reason}")
    out["attempted"] = len(commands)
    out["failures"] = failures

    if tracer is not None:
        out["counts"] = dict(tracer.counts)
        out["maxima"] = dict(tracer.maxima)
    if mode == "trace":
        out["details"] = {workloads.key(commands[i][0]): d for i, d in tracer.details.items()}
        Path(sys.argv[3]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
