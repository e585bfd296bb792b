"""CSV/JSON serialization for every result type.

Floats print with 17 significant digits (round-trip exact for doubles);
CSV files are RFC-4180 (CRLF, header row, UTF-8).  Writers are
deterministic: the same object always produces identical bytes.  Each
``*_to_csv`` / ``*_to_json`` writer takes its result first and the file
path second.  CSV goes through `_write_csv`, JSON but the inverse through
`write_json` (also the CLI's manifests), and every matrix writer and
``invert`` stdout through one row formatter, `float_rows`, and a %-template
per row, with the bytes of per-entry ``%.17g`` cells and of json.dumps.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import NumericalError
from .interpolation import InterpolationReport
from .nodes import RNG_ALGORITHM
from .stability import SweepGrid


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def float_rows(matrix) -> list[list[float]]:
    """The rows of a matrix (a vector is one column) as Python floats, each
    entry's real and imaginary parts side by side, in one bulk conversion."""
    rows = np.reshape(matrix, (len(matrix), -1))
    return np.ascontiguousarray(rows, np.complex128).view(np.float64).tolist()


def _write_csv(path, header, rows, line: str | None = None) -> None:
    """The one CSV writer: a header row, then ``rows``, by cell or by ``line``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        if line is None:
            writer.writerows(rows)
        else:
            handle.writelines(line % tuple(row) for row in rows)


def write_json(doc, path) -> None:
    """The one JSON writer: two-space indent and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _re_im_header(names) -> list[str]:
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def esp_table_to_csv(table: np.ndarray, path) -> None:
    """One row per table row n = 1..N; entries beyond j = n stay blank."""
    order = table.shape[0] - 1
    rows = (
        [n, *map(format_float, values[: 2 * n + 2]), *[""] * (2 * (order - n))]
        for n, values in enumerate(float_rows(table[1:]), 1)
    )
    _write_csv(path, ["n", *_re_im_header(f"sigma{j}" for j in range(order + 1))], rows)


def order_values_to_csv(values, path, first_order: int = 0) -> None:
    """An (order, value) sequence numbered from ``first_order``, e.g. a
    dropped-ESP sweep or one ESP order."""
    # a Python complex's abs has the bits of numpy's scalar abs, not its vectorised one
    rows = (
        (n, re, im, abs(complex(re, im)))
        for n, (re, im) in enumerate(float_rows(values), first_order)
    )
    _write_csv(path, ["order", "re", "im", "abs"], rows, "%d,%.17g,%.17g,%.17g\r\n")


def inverse_to_csv(matrix: np.ndarray, path) -> None:
    header = _re_im_header(f"col{j}" for j in range(1, matrix.shape[1] + 1))
    _write_csv(path, header, float_rows(matrix), ",".join(["%.17g"] * len(header)) + "\r\n")


def inverse_to_json(
    matrix: np.ndarray, path, esp_backend: str | None, inverse_backend: str
) -> None:
    """``esp_backend`` is None for a route that reads no ESPs.  The matrix
    text is laid out as json.dumps(indent=2) lays out nested [re, im] pairs."""
    if not np.isfinite(matrix).all():
        raise NumericalError("a matrix with inf or NaN entries has no JSON form")
    head = json.dumps({"n": int(matrix.shape[0]), "esp_backend": esp_backend,
                       "inverse_backend": inverse_backend}, indent=2)
    pair = "[\n        %r,\n        %r\n      ]"  # %r: float.__repr__, as json.dumps
    row = "[\n      " + ",\n      ".join([pair] * matrix.shape[1]) + "\n    ]"
    body = ",\n    ".join(row % tuple(values) for values in float_rows(matrix))
    Path(path).write_text(f'{head[:-2]},\n  "matrix": [\n    {body}\n  ]\n}}\n', encoding="utf-8")


def companion_table_to_csv(table, path) -> None:
    """``table`` holds (n, {combination label: NMSE}) pairs, one row each."""
    labels = list(table[0][1])
    rows = ([n, *(format_float(cells[label]) for label in labels)] for n, cells in table)
    _write_csv(path, ["n", *labels], rows)


def sweep_to_csv(grid: SweepGrid, path) -> None:
    """Long format: one row per cell, row-major over (shift, mag)."""
    rows = (
        [
            format_float(s_shift),
            format_float(s_mag),
            "" if grid.failed[a, b] else format_float(grid.log10_nmse[a, b]),
            int(grid.failed[a, b]),
        ]
        for a, s_shift in enumerate(grid.sigma_shift_axis)
        for b, s_mag in enumerate(grid.sigma_mag_axis)
    )
    header = ["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"]
    _write_csv(path, header, rows)


def sweep_to_json(grid: SweepGrid, path) -> None:
    """The counts and seed may be numpy ints; they write as JSON numbers."""
    doc = {
        "n": int(grid.n),
        "esp_backend": grid.esp_backend,
        "inverse_backend": grid.inverse_backend,
        "trials_per_cell": int(grid.trials_per_cell),
        "seed": int(grid.seed),
        "rng_algorithm": RNG_ALGORITHM,
        "sigma_shift_axis": [float(x) for x in grid.sigma_shift_axis],
        "sigma_mag_axis": [float(x) for x in grid.sigma_mag_axis],
        "log10_nmse": [
            [None if grid.failed[a, b] else float(grid.log10_nmse[a, b])
             for b in range(grid.sigma_mag_axis.size)]
            for a in range(grid.sigma_shift_axis.size)
        ],
        "failed": grid.failed.astype(int).tolist(),
    }
    write_json(doc, path)


def interp_report_to_csv(report: InterpolationReport, path) -> None:
    """Per dense node: prediction, reference, absolute residual, exclusion flag."""
    total = report.evaluations.size
    e = report.excluded_count_per_side
    values = float_rows(np.column_stack([report.evaluations, report.reference]))
    rows = (
        (k + 1, pr, pi, rr, ri, abs(complex(pr - rr, pi - ri)), k < e or k >= total - e)
        for k, (pr, pi, rr, ri) in enumerate(values)
    )
    header = ["index", "pred_re", "pred_im", "ref_re", "ref_im", "residual", "excluded"]
    _write_csv(path, header, rows, "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\r\n")


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
        report.fn,
        report.family,
        report.n,
        format_float(report.t),
        report.esp_backend or "none",
        report.inverse_backend,
        report.excluded_count_per_side,
        format_float(val),
        "-inf" if val == 0 else format_float(np.log10(val)),
    ]


def interp_summaries_to_csv(reports, path) -> None:
    _write_csv(path, INTERP_SUMMARY_HEADER, map(interp_summary_row, reports))
