import csv
import inspect
import json

import numpy as np

from vandinv import (
    NodeSet,
    esp_table,
    interp_experiment,
    inverse_closed_form,
    noise_sweep,
)
from vandinv import serialize
from vandinv.serialize import (
    companion_table_to_csv,
    esp_table_to_csv,
    format_float,
    interp_report_to_csv,
    interp_summaries_to_csv,
    inverse_to_csv,
    inverse_to_json,
    order_values_to_csv,
    sweep_to_csv,
    sweep_to_json,
)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_format_float_round_trips():
    for x in (1 / 3, 5.74e-15, -0.0, 1.7976931348623157e308, 3.0):
        assert float(format_float(x)) == x


def test_every_writer_takes_path_second():
    writers = [
        fn for name, fn in vars(serialize).items()
        if "_to_" in name and not name.startswith("_") and inspect.isfunction(fn)
    ]
    assert len(writers) == 9
    for fn in writers:
        assert list(inspect.signature(fn).parameters)[1] == "path", fn.__name__


def test_csv_files_use_crlf(tmp_path):
    path = tmp_path / "orders.csv"
    order_values_to_csv([1 + 0j, 2 - 1j], path)
    lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == 4 and lines[-1] == b""  # header, two rows, CRLF ending
    assert all(b"\n" not in line for line in lines)


def test_esp_table_csv_blank_above_diagonal(tmp_path):
    path = tmp_path / "table.csv"
    esp_table_to_csv(esp_table(NodeSet([1, 2, 3]), "traub"), path)
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
    inverse_to_csv(inv, csv_path)
    rows = read_rows(csv_path)
    assert rows[0] == ["col1_re", "col1_im", "col2_re", "col2_im"]
    assert float(rows[1][0]) == 2.0
    assert float(rows[1][2]) == -1.0

    json_path = tmp_path / "inv.json"
    inverse_to_json(inv, json_path, "proposed", "closed_form")
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
    interp_summaries_to_csv(reports, path)
    rows = read_rows(path)
    assert rows[0][0] == "fn"
    assert len(rows) == 3
    assert rows[1][0] == "cosine"
    assert rows[1][1] == "roots_of_unity"
    assert int(rows[1][2]) == 10
