"""CSV/JSON serialization for every result type.

Floats print with 17 significant digits (round-trip exact for doubles);
CSV files are RFC-4180 (CRLF, header row, UTF-8).  Writers are
deterministic: the same object always produces identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .interpolation import InterpolationReport
from .stability import SweepGrid
from .vandermonde import InverseResult


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _re_im(z: complex) -> tuple[str, str]:
    z = complex(z)
    return format_float(z.real), format_float(z.imag)


def _open_csv(path):
    return open(path, "w", newline="", encoding="utf-8")


def esp_table_to_csv(table: np.ndarray, path) -> None:
    """One row per table row n = 1..N; entries beyond j = n stay blank."""
    order = table.shape[0] - 1
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        header = ["n"]
        for j in range(order + 1):
            header += [f"sigma{j}_re", f"sigma{j}_im"]
        writer.writerow(header)
        for n in range(1, order + 1):
            row = [n]
            for j in range(order + 1):
                if j <= n:
                    row += list(_re_im(table[n, j]))
                else:
                    row += ["", ""]
            writer.writerow(row)


def order_values_to_csv(orders, values, path) -> None:
    """Generic (order, value) sequence, e.g. dropped-ESP sweeps."""
    values = np.asarray(values)
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["order", "re", "im", "abs"])
        for n, z in zip(orders, values):
            writer.writerow([int(n), *_re_im(z), format_float(abs(z))])


def inverse_to_csv(result: InverseResult, path) -> None:
    n = result.matrix.shape[1]
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        header = []
        for j in range(1, n + 1):
            header += [f"col{j}_re", f"col{j}_im"]
        writer.writerow(header)
        for row in result.matrix:
            out = []
            for z in row:
                out += list(_re_im(z))
            writer.writerow(out)


def inverse_to_json(result: InverseResult, path) -> None:
    doc = {
        "n": int(result.matrix.shape[0]),
        "esp_backend": result.esp_backend,
        "inverse_backend": result.inverse_backend,
        "matrix": [[[z.real, z.imag] for z in row] for row in result.matrix.astype(complex)],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def companion_table_to_csv(table, path) -> None:
    """``table`` holds (n, {combination label: NMSE}) pairs, one row each."""
    labels = list(table[0][1])
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", *labels])
        for n, cells in table:
            writer.writerow([n, *[format_float(cells[label]) for label in labels]])


def sweep_to_csv(grid: SweepGrid, path) -> None:
    """Long format: one row per cell, row-major over (shift, mag)."""
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"])
        for a, s_shift in enumerate(grid.sigma_shift_axis):
            for b, s_mag in enumerate(grid.sigma_mag_axis):
                failed = bool(grid.failed[a, b])
                cell = "" if failed else format_float(grid.log10_nmse[a, b])
                writer.writerow(
                    [format_float(s_shift), format_float(s_mag), cell, int(failed)]
                )


def sweep_to_json(grid: SweepGrid, path) -> None:
    doc = {
        "n": grid.n,
        "esp_backend": grid.esp_backend,
        "inverse_backend": grid.inverse_backend,
        "trials_per_cell": grid.trials_per_cell,
        "seed": grid.seed,
        "rng_algorithm": grid.rng_algorithm,
        "sigma_shift_axis": [float(x) for x in grid.sigma_shift_axis],
        "sigma_mag_axis": [float(x) for x in grid.sigma_mag_axis],
        "log10_nmse": [
            [None if grid.failed[a, b] else float(grid.log10_nmse[a, b])
             for b in range(grid.sigma_mag_axis.size)]
            for a in range(grid.sigma_shift_axis.size)
        ],
        "failed": grid.failed.astype(int).tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def interp_report_to_csv(report: InterpolationReport, path) -> None:
    """Per dense node: prediction, reference, absolute residual, exclusion flag."""
    total = report.evaluations.size
    e = report.excluded_count_per_side
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["index", "pred_re", "pred_im", "ref_re", "ref_im", "residual", "excluded"]
        )
        for k in range(total):
            pred = report.evaluations[k]
            ref = report.reference[k]
            excluded = int(k < e or k >= total - e)
            writer.writerow(
                [
                    k + 1,
                    *_re_im(pred),
                    *_re_im(ref),
                    format_float(abs(pred - ref)),
                    excluded,
                ]
            )


INTERP_SUMMARY_HEADER = [
    "fn",
    "family",
    "n",
    "t",
    "esp_backend",
    "inverse_backend",
    "excluded_per_side",
    "nmse",
    "log10_nmse",
]


def interp_summary_row(report: InterpolationReport) -> list:
    val = report.nmse_after_exclusion
    return [
        report.function.kind,
        report.family,
        report.n,
        format_float(report.function.t),
        report.esp_backend or "none",
        report.inverse_backend,
        report.excluded_count_per_side,
        format_float(val),
        format_float(np.log10(val)) if val > 0 else "-inf",
    ]


def interp_summaries_to_csv(reports, path) -> None:
    with _open_csv(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(INTERP_SUMMARY_HEADER)
        for report in reports:
            writer.writerow(interp_summary_row(report))
