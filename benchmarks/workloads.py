"""Workloads of the vandinv benchmark: CLI calls drawn from a seed, and their checks.

A workload is a list of `Call`s, each the argv of one `vandinv.cli.main`
invocation.  One *round* runs every call of the list once.  Inputs depend
on the seed alone (stdlib `random.Random`), so the same seed gives the same
calls and every round of a run must reproduce the first round's output.

Why these three workloads:

* ``sweep37``      the paper's central experiment (acceptance criterion 4):
  closed-form noise sweeps at N = 37 over the 8 x 8 acceptance axes, once
  with the ``proposed`` ESP backend and once with ``traub``.  Thousands of
  small inverses whose cost is Python dispatch inside the ESP kernels.
* ``interp-roots`` the default interp N-sweep (N = 10..100) on the roots of
  unity: few ESP calls on arrays up to N = 100, with the full-set path
  (``wa-product``) beside the dropped path (``closed-form``).  Per-N scaling
  of the ESP layer shows here.
* ``interp-io``    many small interp calls on the four interval families plus
  two large inverse writes.  ESP is ~1% of this profile; the time goes to
  CLI parsing, manifests, node validation, LU, evaluation and CSV/JSON
  writes, so an ESP-only change should leave this workload unchanged.

The check functions take plain data (exit codes, stdout text, file paths)
so that the self-tests can feed them corrupted results.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep37", "interp-roots", "interp-io")

# Acceptance axes of the noise sweep (criterion 4) and the cell whose
# backend gap the paper reports.
SWEEP_AXIS = "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35"
TINY_SWEEP_AXIS = "0.1,0.2"
GAP_CELL = (0.2, 0.1)  # (sigma_shift, sigma_mag)
GAP_FLOOR = 3.0
SWEEP_N = 37
SWEEP_TRIALS = 1

# The default interp sweep covers N = 10..100; the roots-of-unity check
# applies where the fit has converged.
ROOTS_NS = tuple(range(10, 101, 10))
ROOTS_CHECK_MIN_N = 50
ROOTS_NMSE_CEILING = 1e-10
# --t ranges over which NMSE < 1e-10 holds for every N >= 50 (cos loses it
# near t = 2.5 at N = 50).
ROOTS_T = {"cos": (1.6, 2.0), "exp": (0.5, 1.5)}

IO_FAMILIES = ("equidistant", "chebyshev", "extended-chebyshev", "gauss-lobatto")
IO_T = {"cos": (0.25, 0.5), "tanh": (1.0, 2.0), "exp": (0.5, 1.5)}
IO_ROUTES = (("--inverse", "baseline"), ("--inverse", "wa-product", "--esp", "traub"))
# LU keeps clear of its singular-pivot floor up to N = 45 on every family.
IO_NS = (10, 20, 30, 40)
IO_INVERT_N = 150


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its check needs to know."""

    argv: tuple
    kind: str  # "sweep", "interp" or "invert"
    items: int  # trials, fits or invocations the call completes
    output: str | None = None  # file the call writes, if any
    n: int | None = None  # fit size of a single interp call


@dataclass
class Verdict:
    """Outcome of the output checks for one round."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    log10_nmse: list = field(default_factory=list)  # values behind the mean
    tail_log10_nmse: list = field(default_factory=list)  # values behind the 10th percentile
    sweep_gap_log10: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0

    def digits(self) -> tuple[float, float]:
        """Mean and 10th percentile of the correct digits, -log10 NMSE.

        The 10th percentile stands in for the worst case: the single worst
        fit or cell is rounding noise amplified by conditioning and moves by
        ~20% between seeds, the 10th percentile by ~4%.
        """
        mean = -sum(self.log10_nmse) / len(self.log10_nmse)
        tail = [-v for v in self.tail_log10_nmse]
        if len(tail) < 2:
            return mean, tail[0]
        return mean, statistics.quantiles(tail, n=10, method="inclusive")[0]


def _t(rng: random.Random, lo_hi) -> str:
    return f"{rng.uniform(*lo_hi):.6f}"


def plan(workload: str, seed: int, outdir, tiny: bool = False) -> list[Call]:
    """The calls of one round; `tiny` shrinks each workload for self-tests."""
    rng = random.Random(f"vandinv-bench/{workload}/{seed}")
    out = Path(outdir)
    if workload == "sweep37":
        axis = TINY_SWEEP_AXIS if tiny else SWEEP_AXIS
        cells = len(axis.split(","))
        sweep_seed = str(rng.randrange(2**31))
        calls = []
        for esp in ("proposed", "traub"):
            path = str(out / f"sweep-{esp}.json")
            argv = (
                "noise-sweep", "--n", str(SWEEP_N), "--trials", str(SWEEP_TRIALS),
                "--seed", sweep_seed, "--esp", esp, "--inverse", "closed-form",
                "--sigma-shift-axis", axis, "--sigma-mag-axis", axis,
                "--output", path, "--format", "json",
            )
            calls.append(Call(argv, "sweep", cells * cells * SWEEP_TRIALS, path))
        return calls
    if workload == "interp-roots":
        calls = []
        for fn, route in (("cos", "closed-form"), ("exp", "wa-product")):
            argv = (
                "interp", "--fn", fn, "--family", "roots-of-unity",
                "--t", _t(rng, ROOTS_T[fn]), "--inverse", route, "--esp", "proposed",
            )
            if tiny:
                argv += ("--n", str(ROOTS_CHECK_MIN_N))
            calls.append(Call(argv, "interp", 1 if tiny else len(ROOTS_NS)))
        return calls
    if workload == "interp-io":
        ns = IO_NS[:1] if tiny else IO_NS
        calls = []
        for family in IO_FAMILIES:
            for fn, t_range in IO_T.items():
                for route in IO_ROUTES:
                    for n in ns:
                        path = str(out / f"interp-{family}-{fn}-{route[1]}-{n}.csv")
                        argv = (
                            "interp", "--fn", fn, "--family", family, "--n", str(n),
                            "--t", _t(rng, t_range), *route, "--output", path,
                        )
                        calls.append(Call(argv, "interp", 1, path, n))
        rng.shuffle(calls)
        size = 8 if tiny else IO_INVERT_N
        for suffix in ("csv", "json"):
            path = str(out / f"inverse.{suffix}")
            argv = ("invert", "--roots-of-unity", str(size), "--inverse", "baseline",
                    "--output", path)
            calls.append(Call(argv, "invert", 1, path, size))
        return calls
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _summary_rows(stdout: str) -> list[dict]:
    lines = stdout.strip().splitlines()
    return list(csv.DictReader(lines)) if lines else []


def _check_sweeps(calls, results, verdict: Verdict) -> None:
    grids = {}
    for call, (code, _stdout) in zip(calls, results):
        verdict.attempted += call.items
        if code != 0:
            verdict.failed += call.items
            verdict.problems.append(f"{' '.join(call.argv[:2])}: exit {code}")
            continue
        doc = json.loads(Path(call.output).read_text(encoding="utf-8"))
        failed = sum(map(sum, doc["failed"]))
        verdict.failed += failed * doc["trials_per_cell"]
        values = [v for row in doc["log10_nmse"] for v in row]
        if failed or any(v is None or not math.isfinite(v) for v in values):
            verdict.problems.append(f"{doc['esp_backend']} sweep: {failed} failed cells")
            continue
        grids[doc["esp_backend"]] = doc
    if set(grids) != {"proposed", "traub"}:
        return
    proposed = [v for row in grids["proposed"]["log10_nmse"] for v in row]
    verdict.log10_nmse += proposed
    verdict.tail_log10_nmse += proposed
    doc = grids["proposed"]
    a = doc["sigma_shift_axis"].index(GAP_CELL[0])
    b = doc["sigma_mag_axis"].index(GAP_CELL[1])
    gap = grids["traub"]["log10_nmse"][a][b] - doc["log10_nmse"][a][b]
    verdict.sweep_gap_log10 = gap
    if not gap >= GAP_FLOOR:
        verdict.problems.append(f"sweep gap {gap:.2f} at {GAP_CELL} below {GAP_FLOOR}")


def _check_interp(call: Call, code: int, stdout: str, verdict: Verdict) -> None:
    verdict.attempted += call.items
    rows = _summary_rows(stdout) if code == 0 else []
    if len(rows) != call.items:
        verdict.failed += call.items
        verdict.problems.append(f"{' '.join(call.argv[:5])}: exit {code}, {len(rows)} rows")
        return
    for row in rows:
        nmse = float(row["nmse"])
        if not (math.isfinite(nmse) and nmse > 0):
            verdict.failed += 1
            verdict.problems.append(f"interp {row['fn']} N={row['n']}: NMSE {row['nmse']}")
            continue
        verdict.log10_nmse.append(math.log10(nmse))
        if row["family"] == "roots_of_unity":
            if int(row["n"]) < ROOTS_CHECK_MIN_N:
                continue
            if not nmse < ROOTS_NMSE_CEILING:
                verdict.problems.append(
                    f"interp {row['fn']} N={row['n']}: NMSE {nmse:.2e} >= {ROOTS_NMSE_CEILING}"
                )
        verdict.tail_log10_nmse.append(math.log10(nmse))
    if call.output is not None:
        with open(call.output, newline="", encoding="utf-8") as handle:
            report_rows = sum(1 for _ in csv.reader(handle)) - 1
        if report_rows != 2 * call.n:
            verdict.problems.append(
                f"{call.output}: {report_rows} report rows, expected {2 * call.n}"
            )


def _read_inverse(path: str):
    import numpy as np

    if path.endswith(".json"):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pairs = np.array(doc["matrix"], dtype=float)
        return pairs[..., 0] + 1j * pairs[..., 1]
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    flat = np.array(rows, dtype=float)
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def _check_inverses(calls, results, verdict: Verdict) -> None:
    """CSV and JSON inverses must agree exactly and invert the matrix."""
    import numpy as np

    matrices = []
    for call, (code, _stdout) in zip(calls, results):
        verdict.attempted += 1
        if code != 0:
            verdict.failed += 1
            verdict.problems.append(f"{' '.join(call.argv[:3])}: exit {code}")
            continue
        matrices.append(_read_inverse(call.output))
    if len(matrices) != 2:
        return
    csv_inv, json_inv = matrices
    if csv_inv.shape != json_inv.shape or not np.array_equal(csv_inv, json_inv):
        verdict.problems.append("CSV inverse differs from JSON inverse")
        return
    n = calls[0].n
    v = np.exp(2j * np.pi * np.arange(1, n + 1) / n)
    vander = np.vander(v, n, increasing=True).T  # entry (r, c) = v_c ** r
    residual = np.abs(vander @ csv_inv - np.eye(n)).max()
    if not residual < 1e-10:
        verdict.problems.append(f"inverse residual {residual:.2e} >= 1e-10")


def check(calls: list[Call], results: list[tuple[int, str]]) -> Verdict:
    """Check one round: `results` holds (exit code, stdout) per call."""
    verdict = Verdict()
    if len(results) != len(calls):
        verdict.problems.append(f"{len(results)} results for {len(calls)} calls")
        return verdict
    sweeps = [(c, r) for c, r in zip(calls, results) if c.kind == "sweep"]
    inverts = [(c, r) for c, r in zip(calls, results) if c.kind == "invert"]
    if sweeps:
        _check_sweeps(*zip(*sweeps), verdict)
    for call, (code, stdout) in zip(calls, results):
        if call.kind == "interp":
            _check_interp(call, code, stdout, verdict)
    if inverts:
        _check_inverses(*zip(*inverts), verdict)
    if not verdict.log10_nmse or not verdict.tail_log10_nmse:
        verdict.problems.append("no NMSE values to score")
    return verdict
