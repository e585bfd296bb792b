"""The vandinv benchmark: times whole CLI workloads and, traced, each layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep37 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a run whose rounds alternate untraced and
traced.  Each run runs the workload (see workloads.py) in a fresh
interpreter with BLAS/OpenMP pinned to one thread, times set-up in further
fresh interpreters between its rounds, checks every output, and writes a
result file with a machine record under ``.bench_out/``.  Every metric is printed
by name with its unit; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when a check failed and 2 when the checkout
holds no vandinv sources.

End-to-end metrics:

* ``setup_s``          median over 7 fresh interpreters, timed between the
  workload's rounds, of start-up, ``import vandinv`` and a first call of
  each inverse route at N = 2.  Raw wall time: start-up is mostly process
  creation and imports, whose time follows the reference computation of
  reference.py too loosely to scale by it (log correlation 0.24).
* ``wall_s``           median time of one round (every call of the workload
  once), scaled to a fixed machine speed: the reference computation of
  reference.py is timed every half second of the round, each stretch
  between two samples is divided by the mean of their reference times and
  multiplied by ``REFERENCE_S``, and the stretches are summed.  The raw
  round times are printed and recorded too, as are the quartile spread
  and count of the rounds.
* ``items_per_s``      sweep trials, interp fits or CLI invocations per
  second: items per round over ``wall_s``.
* ``peak_rss_mb``      peak resident memory of the workload's interpreter.
* ``nmse_digits_mean`` mean of -log10 NMSE: companion NMSE of the proposed
  sweep on sweep37, interpolation NMSE of every fit on the interp workloads.
* ``nmse_digits_p10``  10th percentile of the same digits, over the fits the
  checks cover (N >= 50 on interp-roots): the near-worst case.

The NMSE metrics are correct digits, -log10 NMSE, so that each is positive
and a loss of accuracy reads as a lower value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from reference import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170  # per workload
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
PINNED_THREADS = 1

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VANDINV_OUTDIR"}
    env.update({name: str(PINNED_THREADS) for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> None:
    """Run worker.py in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr}")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha.strip()
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, environment: dict) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "pinned_threads": {name: PINNED_THREADS for name in THREAD_VARS},
        **environment,
    }


def scaled(stretches: list) -> float:
    """A round's time at the fixed machine speed of reference.py.

    Each ``(seconds, reference before, reference after)`` stretch of the
    round is scaled by the mean of the reference times at its ends.
    """
    return sum(s / ((before + after) / 2) * REFERENCE_S for s, before, after in stretches)


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool) -> dict:
    out = root / ".bench_out"
    workdir = out / f"{workload}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = out / f"result-{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)

    run_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--outdir", str(workdir), "--result", str(result_path),
         "--setup-samples", str(1 if tiny else SETUP_SAMPLES)]
        + (["--tiny"] if tiny else []),
        RUN_TIMEOUT_S,
    )
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    setup = doc["setup"]
    walls = doc["walls"]
    scaled_walls = [scaled(stretches) for stretches in doc["segments"]]
    correct = not doc["problems"] and doc["failed"] == 0
    gap = doc["sweep_gap_log10"]
    if trace:
        values = dict(doc.get("layers", {}))
        values["cli.failed_frac"] = doc["failed"] / max(doc["attempted"], 1)
        values["stability.sweep_gap_log10"] = 0.0 if gap is None else gap
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(scaled_walls),
            "items_per_s": doc["items_per_round"] / statistics.median(scaled_walls),
            "peak_rss_mb": doc["peak_rss_mb"],
            "nmse_digits_mean": doc.get("nmse_digits_mean", 0.0),
            "nmse_digits_p10": doc.get("nmse_digits_p10", 0.0),
        }
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "problems": doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "rounds": doc["rounds"],
        "items_per_round": doc["items_per_round"],
        "setup_samples_s": setup,
        "wall_samples_s": walls,
        "wall_segments_s": doc["segments"],
        "scaled_wall_samples_s": scaled_walls,
        "scaled_wall_spread_s": quartile_spread(scaled_walls),
        "traced_wall_samples_s": doc["traced_walls"],
        "sweep_gap_log10": gap,
        # a run whose first round failed its checks may have no traced round
        "metrics": {
            m["name"]: {"value": values[m["name"]] if correct else values.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in BENCHMARK["per_layer" if trace else "end_to_end"]
        },
        "machine": machine_record(root, doc["environment"]),
    }
    result_path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def report(summary: dict) -> None:
    print(f"== {summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
          f"{'correct' if summary['correct'] else 'CHECK FAILED'}, "
          f"{summary['attempted']} attempted, {summary['failed']} failed, "
          f"{summary['rounds']} rounds")
    for problem in summary["problems"]:
        print(f"   check failed: {problem}")
    walls = summary["wall_samples_s"]
    print(f"   raw wall per round: median {statistics.median(walls):.4f} s, fastest "
          f"{min(walls):.4f} s; raw set-up median "
          f"{statistics.median(summary['setup_samples_s']):.4f} s")
    print(f"   scaled wall per round: quartile spread {summary['scaled_wall_spread_s']:.4f} s, "
          f"{len(walls)} samples")
    for name, m in summary["metrics"].items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vandinv benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink each workload to a few calls (self-tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vandinv" / "__init__.py").is_file():
        print(f"error: no vandinv sources under {root / 'src'}; "
              "run from the root of a vandinv checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = [
        run_workload(root, name, args.seed, args.seconds, args.trace, args.tiny)
        for name in names
    ]
    for summary in summaries:
        report(summary)
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "/"
        metrics.update({prefix + k: v for k, v in summary["metrics"].items()})
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
