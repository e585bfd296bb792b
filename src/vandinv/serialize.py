"""CSV/JSON serialization for every result type.

Every CSV float cell is a ``%.17g`` %-format, with no helper between: 17
significant digits, round-trip exact for doubles.  CSV files are RFC-4180
(CRLF, header row, UTF-8), and no cell needs quotes: every name comes from a
registry.  Writers are deterministic: the same object always produces
identical bytes.  Each ``*_to_csv`` / ``*_to_json`` writer takes its result
first and the file path second.  CSV goes through `_write_csv`, a %-template
per row, and JSON but the inverse through `write_json` (also the CLI's
manifests).  An exact value becomes text once, here, for every output of
it: a matrix in `text_rows`, or in `triangle_text_rows` for the lower
triangle of an ESP table; an ESP sweep or single order in `value_lines`;
the ``interp`` summary in `interp_summary_lines`.  The ``invert`` CSV, JSON
and stdout, the ``esp`` CSV and stdout and the ``interp`` summary's stdout
and sweep CSV (`lines_to_csv`) are cut from that text, so each result has
one number text.  JSON number tokens are the CSV's ``%.17g`` cells (``2.0``
reads ``2``, ``-0.0`` ``-0``), and ``json.loads(text, parse_int=float)``
recovers every float with its sign.  Every file opens in `_overwrite`,
which rewrites it in place and cuts it to length: an O_TRUNC open of a
written file costs ~0.1 ms on ext4 with discard.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import check_finite
from .nodes import RNG_ALGORITHM


def _float_rows(matrix) -> list[list[float]]:
    """The rows of a matrix (a vector is one column) as Python floats, each
    entry's real and imaginary parts side by side, in one bulk conversion."""
    rows = np.reshape(matrix, (len(matrix), -1))
    return np.ascontiguousarray(rows, np.complex128).view(np.float64).tolist()


@contextmanager
def _overwrite(path, newline=None):
    """A UTF-8 text handle on ``path``, opened as by the builtin but without
    O_TRUNC; on exit a regular file is cut at the handle's final position."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8",
              newline=newline) as handle:
        try:
            yield handle
        finally:  # /dev/null and other devices refuse ftruncate
            if os.path.isfile(handle.fileno()):
                handle.truncate()


def _write_csv(path, header, lines) -> None:
    """The one CSV writer: the header row, then finished CRLF ``lines``."""
    with _overwrite(path, newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(lines)


def write_json(doc, path) -> None:
    """The one JSON writer: two-space indent and a trailing newline."""
    with _overwrite(path) as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")


def _re_im_header(names) -> list[str]:
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def esp_table_to_csv(rows: list[str], path) -> None:
    """Row n = 1..N of the table holds sigma(n, 0..n) as `triangle_text_rows`
    gives them; the entries beyond j = n stay blank."""
    order = len(rows)
    lines = ("%d,%s%s\r\n" % (n, row.replace(";", ","), ",," * (order - n))
             for n, row in enumerate(rows, 1))
    _write_csv(path, ["n", *_re_im_header(f"sigma{j}" for j in range(order + 1))], lines)


def value_lines(values, first_order: int = 0) -> list[str]:
    """The ``order,re,im,abs`` header and one line per value of an (order,
    value) sequence numbered from ``first_order``, e.g. a dropped-ESP sweep
    or one ESP order."""
    # a Python complex's abs has the bits of numpy's scalar abs, not its vectorised one
    return ["order,re,im,abs", *("%d,%.17g,%.17g,%.17g" % (n, re, im, abs(complex(re, im)))
                                 for n, (re, im) in enumerate(_float_rows(values), first_order))]


def text_rows(matrix: np.ndarray) -> list[str]:
    """Each row of a finite matrix formatted once, for every output of it:
    entries joined by ",", an entry's ``%.17g`` re and im by ";"."""
    check_finite("matrix to write", matrix)
    line = ",".join(["%.17g;%.17g"] * matrix.shape[1])
    return [line % tuple(values) for values in _float_rows(matrix)]


def triangle_text_rows(table: np.ndarray) -> list[str]:
    """Rows n = 1..N of a finite lower-triangular (N+1) x (N+1) table as
    `text_rows` formats them, each holding its entries j = 0..n alone."""
    check_finite("matrix to write", table[1:])
    return [",".join(["%.17g;%.17g"] * (n + 1)) % tuple(values[: 2 * n + 2])
            for n, values in enumerate(_float_rows(table[1:]), 1)]


def complex_text(row: str, sep: str = ",") -> str:
    """A `text_rows` row's entries as ``re+imj`` or ``re-imj``, the bytes of a
    per-entry ``%.17g%+.17gj``, joined by ``sep``."""
    return row.replace(",", "j" + sep).replace(";-", "-").replace(";", "+") + "j"


def inverse_to_csv(rows: list[str], path) -> None:
    """``rows`` as `text_rows` gives them."""
    header = _re_im_header(f"col{j}" for j in range(1, rows[0].count(",") + 2))
    _write_csv(path, header, (row.replace(";", ",") + "\r\n" for row in rows))


def inverse_to_json(rows: list[str], path, esp_backend: str | None, inverse_backend: str) -> None:
    """``rows`` as `text_rows` gives them, in json.dumps(indent=2)'s layout of
    [re, im] pairs, a row at a time; ``esp_backend`` is None for a route that reads no ESPs."""
    head = json.dumps({"n": len(rows), "esp_backend": esp_backend,
                       "inverse_backend": inverse_backend}, indent=2)
    between_entries, between_parts = "\n      ],\n      [\n        ", ",\n        "
    texts = (row.replace(",", between_entries).replace(";", between_parts) for row in rows)
    with _overwrite(path) as handle:  # one string for the whole matrix raises interp-io's peak RSS
        handle.write(f'{head[:-2]},\n  "matrix": [\n    [\n      [\n        ' + next(texts))
        handle.writelines("\n      ]\n    ],\n    [\n      [\n        " + text for text in texts)
        handle.write("\n      ]\n    ]\n  ]\n}\n")


def companion_table_to_csv(table, path) -> None:
    """``table`` holds (n, {combination label: NMSE}) pairs, one row each."""
    labels = list(table[0][1])
    line = "%d" + ",%.17g" * len(labels) + "\r\n"
    lines = (line % (n, *(cells[label] for label in labels)) for n, cells in table)
    _write_csv(path, ["n", *labels], lines)


def sweep_to_csv(grid, path) -> None:
    """A `SweepGrid` in long format: one row per cell, row-major over (shift, mag)."""
    lines = (
        "%.17g,%.17g,%s,%d\r\n" % (s_shift, s_mag, "" if bad else "%.17g" % x, bad)
        for s_shift, row, failed in zip(grid.sigma_shift_axis, grid.log10_nmse, grid.failed)
        for s_mag, x, bad in zip(grid.sigma_mag_axis, row, failed)
    )
    header = ["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"]
    _write_csv(path, header, lines)


def sweep_to_json(grid, path) -> None:
    """A `SweepGrid`, whose counts and seed may be numpy ints, as JSON numbers."""
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


def interp_report_to_csv(report, path) -> None:
    """An `InterpolationReport` per dense node: prediction, reference, residual, excluded."""
    total = report.evaluations.size
    e = report.excluded_count_per_side
    values = _float_rows(np.column_stack([report.evaluations, report.reference]))
    lines = (
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\r\n"
        % (k + 1, pr, pi, rr, ri, abs(complex(pr - rr, pi - ri)), k < e or k >= total - e)
        for k, (pr, pi, rr, ri) in enumerate(values)
    )
    header = ["index", "pred_re", "pred_im", "ref_re", "ref_im", "residual", "excluded"]
    _write_csv(path, header, lines)


def interp_summary_lines(reports) -> list[str]:
    """The header and one line per `InterpolationReport`; a zero NMSE's
    log10_nmse is ``-inf``."""
    lines = ["fn,family,n,t,esp_backend,inverse_backend,excluded_per_side,nmse,log10_nmse"]
    for r in reports:
        val = r.nmse_after_exclusion
        lines.append("%s,%s,%d,%.17g,%s,%s,%d,%.17g,%s" % (
            r.fn, r.family, r.n, r.t, r.esp_backend or "none", r.inverse_backend,
            r.excluded_count_per_side, val, "-inf" if val == 0 else "%.17g" % np.log10(val)))
    return lines


def lines_to_csv(lines: list[str], path) -> None:
    """Comma-separated ``lines``, the header first, as `value_lines` and
    `interp_summary_lines` give them."""
    _write_csv(path, [lines[0]], (line + "\r\n" for line in lines[1:]))
