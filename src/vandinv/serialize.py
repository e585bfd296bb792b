"""CSV/JSON serialization for every result type.

Every CSV float cell is a ``%.17g`` %-format, with no helper between: 17
significant digits, round-trip exact for doubles.  CSV files are RFC-4180
(CRLF, header row, UTF-8), and no cell needs quotes: every name comes from a
registry.  Writers are deterministic: the same object always produces
identical bytes.  Each ``*_to_csv`` / ``*_to_json`` writer takes its result
first and the file path second.  CSV goes through `_write_csv`, a %-template
per row, and JSON but the inverse through `write_json` (also the CLI's
manifests).  Every matrix writer and ``invert`` stdout formats rows from one
bulk conversion, `float_rows`, to the bytes of per-entry cells and of
json.dumps; the inverse CSV and ``invert`` stdout share `inverse_text_rows`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import check_finite
from .nodes import RNG_ALGORITHM


def float_rows(matrix) -> list[list[float]]:
    """The rows of a matrix (a vector is one column) as Python floats, each
    entry's real and imaginary parts side by side, in one bulk conversion."""
    rows = np.reshape(matrix, (len(matrix), -1))
    return np.ascontiguousarray(rows, np.complex128).view(np.float64).tolist()


def _write_csv(path, header, lines) -> None:
    """The one CSV writer: the header row, then finished CRLF ``lines``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(lines)


def write_json(doc, path) -> None:
    """The one JSON writer: two-space indent and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _re_im_header(names) -> list[str]:
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def esp_table_to_csv(table: np.ndarray, path) -> None:
    """One row per table row n = 1..N; entries beyond j = n stay blank."""
    order = table.shape[0] - 1
    lines = (
        ("%d" + ",%.17g" * (2 * n + 2) + ",," * (order - n) + "\r\n") % (n, *values[: 2 * n + 2])
        for n, values in enumerate(float_rows(table[1:]), 1)
    )
    _write_csv(path, ["n", *_re_im_header(f"sigma{j}" for j in range(order + 1))], lines)


def order_values_to_csv(values, path, first_order: int = 0) -> None:
    """An (order, value) sequence numbered from ``first_order``, e.g. a
    dropped-ESP sweep or one ESP order."""
    # a Python complex's abs has the bits of numpy's scalar abs, not its vectorised one
    lines = (
        "%d,%.17g,%.17g,%.17g\r\n" % (n, re, im, abs(complex(re, im)))
        for n, (re, im) in enumerate(float_rows(values), first_order)
    )
    _write_csv(path, ["order", "re", "im", "abs"], lines)


def inverse_text_rows(matrix: np.ndarray) -> list[str]:
    """Each matrix row formatted once, for its CSV line and the ``invert``
    stdout: entries joined by ",", an entry's ``%.17g`` re and im by ";"."""
    line = ",".join(["%.17g;%.17g"] * matrix.shape[1])
    return [line % tuple(values) for values in float_rows(matrix)]


def inverse_to_csv(rows: list[str], path) -> None:
    """``rows`` as `inverse_text_rows` gives them."""
    header = _re_im_header(f"col{j}" for j in range(1, rows[0].count(",") + 2))
    _write_csv(path, header, (row.replace(";", ",") + "\r\n" for row in rows))


def inverse_to_json(
    matrix: np.ndarray, path, esp_backend: str | None, inverse_backend: str
) -> None:
    """``esp_backend`` is None for a route that reads no ESPs.  The matrix
    text is laid out as json.dumps(indent=2) lays out nested [re, im] pairs,
    and written a row at a time."""
    check_finite("matrix to write as JSON", matrix)
    head = json.dumps({"n": int(matrix.shape[0]), "esp_backend": esp_backend,
                       "inverse_backend": inverse_backend}, indent=2)
    pair = "[\n        %r,\n        %r\n      ]"  # %r: float.__repr__, as json.dumps
    row = "[\n      " + ",\n      ".join([pair] * matrix.shape[1]) + "\n    ]"
    *rows, last = float_rows(matrix)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{head[:-2]},\n  "matrix": [\n    ')
        handle.writelines(row % tuple(values) + ",\n    " for values in rows)
        handle.write(row % tuple(last) + "\n  ]\n}\n")


def companion_table_to_csv(table, path) -> None:
    """``table`` holds (n, {combination label: NMSE}) pairs, one row each."""
    labels = list(table[0][1])
    line = "%d" + ",%.17g" * len(labels) + "\r\n"
    lines = (line % (n, *(cells[label] for label in labels)) for n, cells in table)
    _write_csv(path, ["n", *labels], lines)


def sweep_to_csv(grid: SweepGrid, path) -> None:
    """Long format: one row per cell, row-major over (shift, mag)."""
    lines = (
        "%.17g,%.17g,%s,%d\r\n" % (s_shift, s_mag, "" if bad else "%.17g" % x, bad)
        for s_shift, row, failed in zip(grid.sigma_shift_axis, grid.log10_nmse, grid.failed)
        for s_mag, x, bad in zip(grid.sigma_mag_axis, row, failed)
    )
    header = ["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"]
    _write_csv(path, header, lines)


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
        "log10_nmse": np.where(grid.failed, None, grid.log10_nmse).tolist(),
        "failed": grid.failed.astype(int).tolist(),
    }
    write_json(doc, path)


def interp_report_to_csv(report: InterpolationReport, path) -> None:
    """Per dense node: prediction, reference, absolute residual, exclusion flag."""
    total = report.evaluations.size
    e = report.excluded_count_per_side
    values = float_rows(np.column_stack([report.evaluations, report.reference]))
    lines = (
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\r\n"
        % (k + 1, pr, pi, rr, ri, abs(complex(pr - rr, pi - ri)), k < e or k >= total - e)
        for k, (pr, pi, rr, ri) in enumerate(values)
    )
    header = ["index", "pred_re", "pred_im", "ref_re", "ref_im", "residual", "excluded"]
    _write_csv(path, header, lines)


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
        "%.17g" % report.t,
        report.esp_backend or "none",
        report.inverse_backend,
        report.excluded_count_per_side,
        "%.17g" % val,
        "-inf" if val == 0 else "%.17g" % np.log10(val),
    ]


def interp_summaries_to_csv(reports, path) -> None:
    line = ",".join(["%s"] * len(INTERP_SUMMARY_HEADER)) + "\r\n"
    _write_csv(path, INTERP_SUMMARY_HEADER, (line % tuple(interp_summary_row(r)) for r in reports))
