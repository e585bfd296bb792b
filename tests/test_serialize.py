import csv
import dataclasses
import importlib
import inspect
import json
import os
import re
import typing

import numpy as np
import pytest

from vandinv import (
    NodeSet,
    NumericalError,
    esp_table,
    interp_experiment,
    inverse_closed_form,
    SweepGrid,
    noise_sweep,
)
from vandinv import serialize
from vandinv.serialize import (
    companion_table_to_csv,
    esp_table_to_csv,
    interp_report_to_csv,
    interp_summary_row,
    inverse_to_csv,
    inverse_to_json,
    lines_to_csv,
    order_values_to_csv,
    sweep_to_csv,
    sweep_to_json,
    text_rows,
)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def table_rows(table):
    """The text rows of an ESP table as ``esp --table`` cuts them: row n
    keeps sigma(n, 0..n)."""
    return [",".join(row.split(",")[: n + 1]) for n, row in enumerate(text_rows(table[1:]), 1)]


def summary_lines(reports):
    """The ``interp`` sweep's stdout lines, which its CSV holds."""
    return [",".join(serialize.INTERP_SUMMARY_HEADER),
            *(",".join(map(str, interp_summary_row(r))) for r in reports)]


def test_format_float_round_trips(tmp_path):
    # the %.17g float cells of the sweep CSV and of the interp summary row
    values = np.array([1 / 3, 5.74e-15, -0.0, 1.7976931348623157e308, 3.0])
    grid = SweepGrid(
        n=5, sigma_shift_axis=np.array([0.0]), sigma_mag_axis=values,
        log10_nmse=values[None], failed=np.zeros((1, values.size), dtype=bool),
        trials_per_cell=1, seed=0, esp_backend="proposed", inverse_backend="closed_form",
    )
    sweep_to_csv(grid, tmp_path / "sweep.csv")
    cells = [row[2] for row in read_rows(tmp_path / "sweep.csv")[1:]]
    report = interp_experiment("cosine", "roots_of_unity", 4)
    for x, cell in zip(values, cells):
        t_cell = interp_summary_row(dataclasses.replace(report, t=x))[3]
        assert cell == t_cell == "%.17g" % x
        assert float(cell) == x and np.signbit(float(cell)) == np.signbit(x)


def test_every_writer_takes_path_second():
    writers = [
        fn for name, fn in vars(serialize).items()
        if "_to_" in name and not name.startswith("_") and inspect.isfunction(fn)
    ]
    assert len(writers) == 9
    for fn in writers:
        assert list(inspect.signature(fn).parameters)[1] == "path", fn.__name__


def test_every_public_annotation_resolves():
    # under `from __future__ import annotations` an annotation naming a class
    # its module never imports reads as a plain string, but get_type_hints,
    # which documentation and type tools call, raises NameError on it
    modules = ("cli", "errors", "esp", "interpolation", "nodes", "serialize", "stability",
               "vandermonde")
    unresolved, checked = [], 0
    for module in (importlib.import_module(f"vandinv.{name}") for name in modules):
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))):
                continue
            checked += 1
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{name}: {exc}")
    assert checked > 40  # every public function and class, not none of them
    assert unresolved == []


def test_csv_files_use_crlf(tmp_path):
    path = tmp_path / "orders.csv"
    order_values_to_csv([1 + 0j, 2 - 1j], path)
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == 4 and lines[-1] == b""  # header, two rows, CRLF ending
    assert all(b"\n" not in line for line in lines)


def test_esp_table_csv_blank_above_diagonal(tmp_path):
    path = tmp_path / "table.csv"
    esp_table_to_csv(table_rows(esp_table(NodeSet([1, 2, 3]), "traub")), path)
    rows = read_rows(path)
    assert rows[0][0] == "n"
    assert len(rows) == 4  # header + rows n=1..3
    first = rows[1]
    assert float(first[1]) == 1.0  # sigma(1, 0)
    assert first[5] == ""  # sigma(1, 2) absent
    last = rows[3]
    assert [float(last[k]) for k in (1, 3, 5, 7)] == [1.0, 6.0, 11.0, 6.0]


def test_order_values_csv(tmp_path):
    path = tmp_path / "orders.csv"
    order_values_to_csv([1 + 0j, -1j], path)
    rows = read_rows(path)
    assert rows[0] == ["order", "re", "im", "abs"]
    assert float(rows[2][2]) == -1.0
    assert float(rows[2][3]) == 1.0


def test_inverse_csv_and_json(tmp_path):
    inv = inverse_closed_form(NodeSet([1, 2]))
    csv_path = tmp_path / "inv.csv"
    inverse_to_csv(text_rows(inv), csv_path)
    rows = read_rows(csv_path)
    assert rows[0] == ["col1_re", "col1_im", "col2_re", "col2_im"]
    assert float(rows[1][0]) == 2.0
    assert float(rows[1][2]) == -1.0

    json_path = tmp_path / "inv.json"
    inverse_to_json(text_rows(inv), json_path, "proposed", "closed_form")
    doc = json.loads(json_path.read_text())
    assert doc["n"] == 2
    assert doc["esp_backend"] == "proposed"
    assert doc["inverse_backend"] == "closed_form"
    matrix = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    np.testing.assert_allclose(matrix, inv, atol=0)


def test_companion_table_csv(tmp_path):
    table = [(5, {"a+b": 1 / 3, "c": 2e-16}), (10, {"a+b": 0.25, "c": 5.74e-15})]
    path = tmp_path / "companion.csv"
    companion_table_to_csv(table, path)
    assert path.read_bytes() == (
        b"n,a+b,c\r\n"
        b"5,0.33333333333333331,2e-16\r\n"
        b"10,0.25,5.7400000000000002e-15\r\n"
    )
    rows = read_rows(path)
    assert float(rows[1][1]) == 1 / 3 and float(rows[2][2]) == 5.74e-15


def test_sweep_serialization(tmp_path):
    grid = noise_sweep(8, [0.0, 0.1], [0.0, 0.05], trials=2, seed=13)
    csv_path = tmp_path / "sweep.csv"
    sweep_to_csv(grid, csv_path)
    rows = read_rows(csv_path)
    assert rows[0] == ["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"]
    assert len(rows) == 5  # header + 4 cells
    assert rows[1][3] == "0"
    assert float(rows[1][2]) == grid.log10_nmse[0, 0]

    json_path = tmp_path / "sweep.json"
    sweep_to_json(grid, json_path)
    doc = json.loads(json_path.read_text())
    assert doc["seed"] == 13
    assert doc["rng_algorithm"] == "numpy.PCG64"
    assert doc["log10_nmse"][0][0] == grid.log10_nmse[0, 0]
    # numpy-int arguments write the same bytes as plain ints
    i = np.int64
    np_grid = noise_sweep(i(8), [0.0, 0.1], [0.0, 0.05], trials=i(2), seed=i(13))
    sweep_to_json(np_grid, tmp_path / "np.json")
    assert (tmp_path / "np.json").read_bytes() == json_path.read_bytes()


def test_sweep_json_writes_a_failed_cell_as_null(tmp_path):
    grid = SweepGrid(
        n=5, sigma_shift_axis=np.array([0.0, 0.1]), sigma_mag_axis=np.array([0.0, 0.2]),
        log10_nmse=np.array([[np.nan, -np.inf], [-15.25, 0.5]]),
        failed=np.array([[True, False], [False, False]]),
        trials_per_cell=2, seed=3, esp_backend=None, inverse_backend="elimination_baseline",
    )
    sweep_to_json(grid, tmp_path / "sweep.json")
    text = (tmp_path / "sweep.json").read_text()
    assert '"log10_nmse": [\n    [\n      null,\n      -Infinity\n    ],' in text
    doc = json.loads(text)
    assert doc["log10_nmse"] == [[None, -np.inf], [-15.25, 0.5]]
    assert doc["failed"] == [[1, 0], [0, 0]]


def test_interp_report_csv(tmp_path):
    report = interp_experiment("cosine", "chebyshev", 10)
    path = tmp_path / "interp.csv"
    interp_report_to_csv(report, path)
    rows = read_rows(path)
    assert rows[0][:3] == ["index", "pred_re", "pred_im"]
    assert len(rows) == 21  # header + 2N rows
    flags = [int(r[6]) for r in rows[1:]]
    assert sum(flags) == 14  # 7 excluded per side


def test_interp_summary_csv(tmp_path):
    reports = [
        interp_experiment("cosine", "roots_of_unity", n)
        for n in (10, 12)
    ]
    path = tmp_path / "summary.csv"
    lines_to_csv(summary_lines(reports), path)
    rows = read_rows(path)
    assert rows[0][0] == "fn"
    assert len(rows) == 3
    assert rows[1][0] == "cosine"
    assert rows[1][1] == "roots_of_unity"
    assert int(rows[1][2]) == 10


# ------------------------------------------ bytes of the per-entry writers
# The recipes the writers had before they formatted rows in bulk: csv.writer
# over f"{x:.17g}" cells, and json.dumps(indent=2)'s layout of nested
# [re, im] pairs, whose number tokens are those same cells.  Each bulk
# writer must reproduce them byte for byte.

def csv_oracle(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def re_im(z):
    z = complex(z)
    return f"{z.real:.17g}", f"{z.imag:.17g}"


def json_oracle(matrix, esp_backend, inverse_backend):
    """json.dumps(indent=2) over [re, im] pairs of per-entry %.17g cells,
    each written as a bare number token."""
    doc = {
        "n": matrix.shape[0],
        "esp_backend": esp_backend,
        "inverse_backend": inverse_backend,
        "matrix": [[[f"<{cell}>" for cell in re_im(z)] for z in row] for row in matrix],
    }
    return re.sub(r'"<([^"]*)>"', r"\1", json.dumps(doc, indent=2)) + "\n"


SPECIAL = [-0.0, 5e-324, 1e308, -1e308, 3.0, -42.0, 1e16, 1.5e-300, 6.02e23, 1 / 3]


def writer_matrices():
    rng = np.random.default_rng(7)
    special = np.array(SPECIAL[:9]).reshape(3, 3) + 1j * np.array(SPECIAL[1:]).reshape(3, 3)
    wide = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-20, 20, (6, 6))
    return {
        "1x1": np.array([[2.5 - 0.0j]]),
        "real": np.array([[-0.0, 5e-324], [1e308, 7.0]]),  # what --real writes
        "special": special,
        "transposed": (wide + 1j * wide[::-1]).T,  # not C-contiguous
        "inverse": inverse_closed_form(NodeSet([1, 2j, -3, 0.5 + 0.5j])),
        "signed zeros": np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
                                  [complex(-1e-310, 0.0), complex(2.0, -5e-324)]]),
    }


@pytest.mark.parametrize("name", list(writer_matrices()))
@pytest.mark.parametrize("esp_backend", ["proposed", None])
def test_inverse_writers_keep_the_per_entry_bytes(tmp_path, name, esp_backend):
    matrix = writer_matrices()[name]
    inverse_to_csv(text_rows(matrix), tmp_path / "new.csv")
    header = [f"col{j}_{part}" for j in range(1, matrix.shape[1] + 1) for part in ("re", "im")]
    csv_oracle(tmp_path / "old.csv", header,
               ([cell for z in row for cell in re_im(z)] for row in matrix))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    inverse_to_json(text_rows(matrix), tmp_path / "new.json", esp_backend, "closed_form")
    old = json_oracle(matrix, esp_backend, "closed_form")
    assert (tmp_path / "new.json").read_text(encoding="utf-8") == old


def json_number_tokens(text):
    """The number tokens of a JSON text, in order (its strings hold none)."""
    return re.findall(r"-?[0-9][-+.0-9eE]*", re.sub(r'"[^"]*"', "", text))


@pytest.mark.parametrize("name", list(writer_matrices()))
def test_inverse_json_numbers_are_the_csv_cells(tmp_path, name):
    matrix = writer_matrices()[name]
    rows = text_rows(matrix)
    inverse_to_csv(rows, tmp_path / "inv.csv")
    inverse_to_json(rows, tmp_path / "inv.json", "traub", "closed_form")
    cells = [cell for row in read_rows(tmp_path / "inv.csv")[1:] for cell in row]
    n, *tokens = json_number_tokens((tmp_path / "inv.json").read_text(encoding="utf-8"))
    assert n == str(matrix.shape[0])
    assert tokens == cells


@pytest.mark.parametrize("name", list(writer_matrices()))
def test_inverse_json_reads_back_every_float_bit_for_bit(tmp_path, name):
    # an integral token such as -0 or 10000000000000000 parses as an int
    # unless parse_int=float, which keeps the sign of -0
    matrix = writer_matrices()[name]
    inverse_to_json(text_rows(matrix), tmp_path / "inv.json", None, "elimination_baseline")
    doc = json.loads((tmp_path / "inv.json").read_text(encoding="utf-8"), parse_int=float)
    back = np.array(doc["matrix"], dtype=np.float64)
    want = np.ascontiguousarray(matrix, np.complex128).view(np.float64).reshape(back.shape)
    np.testing.assert_array_equal(back.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_inverse_json_refuses_non_finite_entries(tmp_path, bad):
    matrix = np.array([[1.0, 2.0], [3.0, bad]])
    with pytest.raises(NumericalError):
        inverse_to_json(text_rows(matrix), tmp_path / "inv.json", None, "elimination_baseline")
    assert not (tmp_path / "inv.json").exists()


def test_value_writers_keep_the_per_entry_bytes(tmp_path):
    values = np.array(SPECIAL) + 1j * np.array(SPECIAL[::-1])
    order_values_to_csv(values, tmp_path / "new.csv", first_order=3)
    csv_oracle(tmp_path / "old.csv", ["order", "re", "im", "abs"],
               ([n, *re_im(z), f"{abs(z):.17g}"] for n, z in enumerate(values, 3)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    table = esp_table(NodeSet([1.5, -2j, 3e-7, 4 + 1j]), "yang")
    esp_table_to_csv(table_rows(table), tmp_path / "new.csv")
    order = table.shape[0] - 1
    header = ["n", *(f"sigma{j}_{part}" for j in range(order + 1) for part in ("re", "im"))]
    csv_oracle(tmp_path / "old.csv", header, (
        [n, *(cell for j in range(order + 1)
              for cell in (re_im(table[n, j]) if j <= n else ("", "")))]
        for n in range(1, order + 1)
    ))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sweep_csv_keeps_the_per_entry_bytes(tmp_path):
    grid = noise_sweep(6, [0.0, 0.1], [0.0, 1e-3, 0.05], trials=2, seed=5)
    grid = dataclasses.replace(grid, log10_nmse=grid.log10_nmse.copy(), failed=grid.failed.copy())
    grid.log10_nmse[0, 1] = -np.inf  # a zero mean NMSE
    grid.log10_nmse[1, 2], grid.failed[1, 2] = np.nan, True
    sweep_to_csv(grid, tmp_path / "new.csv")
    header = ["sigma_shift", "sigma_mag", "trial_mean_log10_nmse", "failed_flag"]
    csv_oracle(tmp_path / "old.csv", header, (
        [f"{s:.17g}", f"{m:.17g}", "" if grid.failed[a, b] else f"{grid.log10_nmse[a, b]:.17g}",
         int(grid.failed[a, b])]
        for a, s in enumerate(grid.sigma_shift_axis) for b, m in enumerate(grid.sigma_mag_axis)
    ))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert b"0,0.001,-inf,0\r\n" in data and b",,1\r\n" in data


def test_interp_summary_csv_keeps_the_per_entry_bytes(tmp_path):
    reports = [interp_experiment("cosine", "roots_of_unity", 10),
               interp_experiment("tanh", "chebyshev", 20, t=3.5, inverse_backend="wa_product"),
               interp_experiment("exponential", "equidistant", 16,
                                 inverse_backend="elimination_baseline")]
    reports.append(dataclasses.replace(reports[0], nmse_after_exclusion=0.0))
    lines_to_csv(summary_lines(reports), tmp_path / "new.csv")
    csv_oracle(tmp_path / "old.csv", serialize.INTERP_SUMMARY_HEADER, (
        [r.fn, r.family, r.n, f"{r.t:.17g}", r.esp_backend or "none", r.inverse_backend,
         r.excluded_count_per_side, f"{r.nmse_after_exclusion:.17g}",
         f"{np.log10(r.nmse_after_exclusion):.17g}" if r.nmse_after_exclusion else "-inf"]
        for r in reports
    ))
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "old.csv").read_bytes()
    assert data.endswith(b",0,-inf\r\n") and b",none," in data


@pytest.mark.parametrize("fn, family", [("tanh", "equidistant"), ("exponential", "roots_of_unity")])
def test_interp_report_csv_keeps_the_per_entry_bytes(tmp_path, fn, family):
    # complex residuals on the circle, which numpy's vectorised abs may round
    # differently from the per-entry abs
    report = interp_experiment(fn, family, 40, t=3.0)
    interp_report_to_csv(report, tmp_path / "new.csv")
    total, e = report.evaluations.size, report.excluded_count_per_side
    header = ["index", "pred_re", "pred_im", "ref_re", "ref_im", "residual", "excluded"]
    csv_oracle(tmp_path / "old.csv", header, (
        [k + 1, *re_im(pred), *re_im(ref), f"{abs(pred - ref):.17g}",
         int(k < e or k >= total - e)]
        for k, (pred, ref) in enumerate(zip(report.evaluations, report.reference))
    ))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_summary_row_writes_minus_inf_only_for_a_zero_nmse():
    report = interp_experiment("cosine", "roots_of_unity", 10)
    assert interp_summary_row(report)[-1] == f"{np.log10(report.nmse_after_exclusion):.17g}"
    zero = dataclasses.replace(report, nmse_after_exclusion=0.0)
    assert interp_summary_row(zero)[-2:] == ["0", "-inf"]
    nan = dataclasses.replace(report, nmse_after_exclusion=float("nan"))
    assert interp_summary_row(nan)[-1] == "nan"


# The three writers that open a file, each writing a document of k rows: an
# existing file is rewritten in place and cut to its new length.
OPENING_WRITERS = {
    "csv": lambda k, path: serialize._write_csv(
        path, ["k", "k2"], ("%d,%d\r\n" % (j, j * j) for j in range(k))
    ),
    "json": lambda k, path: serialize.write_json({"k": list(range(k))}, path),
    "inverse_json": lambda k, path: inverse_to_json(
        text_rows(np.arange(k * k).reshape(k, k) / 3 + 1j), path, None, "elimination_baseline"
    ),
}


@pytest.mark.parametrize("old_rows", [40, 2], ids=["over-longer", "over-shorter"])
@pytest.mark.parametrize("writer", list(OPENING_WRITERS))
def test_rewrite_over_an_existing_file_gives_the_fresh_bytes(tmp_path, writer, old_rows):
    write = OPENING_WRITERS[writer]
    write(8, tmp_path / "fresh")
    write(old_rows, tmp_path / "reused")
    old_size = (tmp_path / "reused").stat().st_size
    write(8, tmp_path / "reused")
    fresh = (tmp_path / "fresh").read_bytes()
    assert (old_size > len(fresh)) == (old_rows > 8)
    assert (tmp_path / "reused").read_bytes() == fresh


@pytest.mark.parametrize("writer", list(OPENING_WRITERS))
def test_writers_write_to_the_null_device(writer):
    OPENING_WRITERS[writer](8, os.devnull)  # ftruncate would refuse it


@pytest.mark.parametrize("writer", list(OPENING_WRITERS))
def test_writers_open_without_truncating(tmp_path, monkeypatch, writer):
    flags = []
    real_open = os.open

    def recording_open(path, flag, *mode):
        flags.append(flag)
        return real_open(path, flag, *mode)

    monkeypatch.setattr(os, "open", recording_open)
    OPENING_WRITERS[writer](8, tmp_path / "out")
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
