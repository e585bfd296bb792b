"""One fresh interpreter of the benchmark: runs a workload in process and times it.

`run.py` starts this file with BLAS/OpenMP pinned to one thread, from the
root of a checkout; vandinv is imported from that checkout's ``src``.
With ``--setup-only`` it imports vandinv, makes a first call of each
inverse route at N = 2 and exits.  Otherwise it runs rounds of the workload
through `vandinv.cli.main` for about ``--seconds`` seconds (always at least
one round, and with ``--trace 1`` at least one untraced and one traced
round, alternating up to three traced rounds), checks the outputs and writes a JSON result to
``--result``.  Between rounds it times ``--setup-samples`` fresh
``--setup-only`` interpreters, spread evenly over the run: the machine's
speed drifts over tens of seconds, and set-up samples taken in one burst
would all see the same moment.  The reference computation of
reference.py is timed every half second inside every untraced round, so
that `run.py` can scale round times to a fixed machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()

# Spans stay in memory until the run ends, ~71k per traced interp-io round.
MAX_TRACED_ROUNDS = 3

# First call of each inverse route (and the ESP backends the workloads use).
SETUP_CALLS = (
    ("invert", "--nodes", "1,2", "--inverse", "closed-form", "--esp", "proposed"),
    ("invert", "--nodes", "1,2", "--inverse", "closed-form", "--esp", "traub"),
    ("invert", "--nodes", "1,2", "--inverse", "wa-product", "--esp", "proposed"),
    ("invert", "--nodes", "1,2", "--inverse", "wa-product", "--esp", "traub"),
    ("invert", "--nodes", "1,2", "--inverse", "baseline"),
)


def import_vandinv():
    """Import vandinv from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vandinv
    import vandinv.cli

    if Path(vandinv.__file__).resolve().parent != (src / "vandinv").resolve():
        raise ImportError(f"vandinv imported from {vandinv.__file__}, not {src}")
    return vandinv.cli


def call(cli, argv) -> tuple[int, str]:
    """Run one CLI invocation; returns its exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_round(cli, calls, probe, sample_speed: bool) -> tuple[float, list, list]:
    """Run every call once on the probe's clock.

    With `sample_speed` the probe times the reference every half second
    inside the round; it always does after the round.  Returns the round's
    time, the calls' results, and one ``(seconds, reference before,
    reference after)`` triple per stretch between two samples, the first
    stretch starting from the last sample before the round.
    """
    ref_before = probe.samples[-1][1]
    probe.samples.clear()
    start = probe.clock()
    with probe.every() if sample_speed else contextlib.nullcontext():
        results = [call(cli, c.argv) for c in calls]
    probe.sample()
    points = [(start, ref_before), *probe.samples]
    stretches = [(t1 - t0, r0, r1) for (t0, r0), (t1, r1) in zip(points, points[1:])]
    return points[-1][0] - start, results, stretches


def time_setup() -> float:
    """Wall time of one fresh interpreter doing the set-up, start to exit.

    The wait blocks in waitpid: `subprocess.run(timeout=...)` polls with
    sleeps of up to 50 ms, which would round every sample up by as much.
    A timer kills a child that hangs instead.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--setup-only"],
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited {code}")
    return elapsed


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=7)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--outdir")
    parser.add_argument("--result")
    args = parser.parse_args(argv)

    cli = import_vandinv()
    for argv_ in SETUP_CALLS:
        code, _ = call(cli, argv_)
        if code != 0:
            print(f"set-up call {' '.join(argv_)} exited {code}", file=sys.stderr)
            return 1
    if args.setup_only:
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracing
    import workloads
    from reference import SpeedProbe

    calls = workloads.plan(args.workload, args.seed, args.outdir, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    walls = {"untraced": [], "traced": []}
    segments = []  # per untraced round, its stretches with their reference times
    setup = []
    verdict = None
    reference = None
    start = time.perf_counter()

    def elapsed():  # time spent in rounds so far
        return time.perf_counter() - start - sum(setup)

    probe = SpeedProbe()
    probe.sample()
    for i in itertools.count():
        while (len(setup) < args.setup_samples
               and elapsed() >= len(setup) * args.seconds / args.setup_samples):
            setup.append(time_setup())
            probe.sample()
        mode = "untraced"
        if tracer is not None and i % 2 == 1 and len(walls["traced"]) < MAX_TRACED_ROUNDS:
            mode = "traced"
        # Earlier rounds' objects (spans above all) must not slow this
        # round's garbage collections.
        gc.collect()
        gc.freeze()
        if mode == "traced":
            tracer.install()
        try:
            wall, results, stretches = run_round(cli, calls, probe, mode == "untraced")
        finally:
            if mode == "traced":
                tracer.uninstall()
        walls[mode].append(wall)
        if mode == "untraced":
            segments.append(stretches)
        if reference is None:
            reference = results
            verdict = workloads.check(calls, results)
            if not verdict.ok:
                break
        elif results != reference:
            verdict.problems.append(f"round {i + 1} output differs from round 1")
            break
        # Start another round while it would end at most half a round past
        # --seconds, so that runs of long rounds average to --seconds.
        every = walls["untraced"] + walls["traced"]
        if (walls["traced"] or tracer is None) and (
            elapsed() + statistics.median(every) / 2 > args.seconds
        ):
            break
    while len(setup) < args.setup_samples:
        setup.append(time_setup())

    rounds = len(walls["untraced"]) + len(walls["traced"])
    doc = {
        "setup": setup,
        "walls": walls["untraced"],
        "segments": segments,
        "traced_walls": walls["traced"],
        "items_per_round": sum(c.items for c in calls),
        "rounds": rounds,
        "attempted": verdict.attempted * rounds,
        "failed": verdict.failed * rounds,
        "problems": verdict.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if verdict.log10_nmse and verdict.tail_log10_nmse:
        doc["nmse_digits_mean"], doc["nmse_digits_p10"] = verdict.digits()
    doc["sweep_gap_log10"] = verdict.sweep_gap_log10
    if tracer and walls["traced"]:
        doc["layers"] = tracing.layer_metrics(tracer.spans, walls["traced"], walls["untraced"])
        tracer.write(Path(args.result).with_suffix(".spans.tsv"))
    Path(args.result).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
