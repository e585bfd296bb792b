import csv
import errno
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vandinv
from vandinv import (
    ESP_BACKENDS,
    FUNCTION_KINDS,
    INVERSE_BACKENDS,
    NODE_FAMILIES,
    NodeSet,
    NumericalError,
    build_vandermonde,
    companion_identity_nmse,
    compute_inverse,
    esp_all_orders,
    esp_table,
    generate_nodes,
)
from vandinv.cli import (
    CLI_FAMILIES,
    CLI_FUNCTIONS,
    CLI_INVERSES,
    COMPANION_COMBOS,
    _nodes_from_args,
    build_parser,
    main,
)
from vandinv.interpolation import DEFAULT_EXCLUDE_PER_SIDE
from vandinv.serialize import inverse_text_rows, inverse_to_csv, inverse_to_json
from vandinv.vandermonde import inverse_esp_backend, real_part

from test_serialize import writer_matrices

# sigma(59, j) over 1e6, 2e6, ..., 59e6 passes the double range near j = 40
OVERFLOWING_NODES = ",".join(f"{k}e6" for k in range(1, 60))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_value_lines(out):
    values = {}
    for line in out.strip().splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        values[int(fields["order"])] = complex(float(fields["re"]), float(fields["im"]))
    return values


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def fresh_process_env():
    """The environment for a fresh `vandinv` process: it imports the package
    these tests import, and a numpy RuntimeWarning it leaks is an error, as
    the suite's filterwarnings make it in process."""
    return dict(os.environ, PYTHONPATH=str(Path(vandinv.__file__).parents[1]),
                PYTHONWARNINGS="error::RuntimeWarning")


# ---------------------------------------------------------------- esp

def test_esp_single_order(capsys):
    code, out, _ = run(capsys, "esp", "--nodes", "1,2,3", "--order", "2", "--backend", "proposed")
    assert code == 0
    assert parse_value_lines(out)[2] == 11 + 0j


def test_esp_order_zero_is_trivial(capsys):
    code, out, _ = run(capsys, "esp", "--nodes", "1,2,3", "--order", "0")
    assert code == 0
    assert parse_value_lines(out)[0] == 1 + 0j


def test_esp_dropped_all_orders_on_roots(capsys):
    code, out, _ = run(
        capsys, "esp", "--roots-of-unity", "50", "--drop", "1",
        "--backend", "proposed", "--all-orders",
    )
    assert code == 0
    values = parse_value_lines(out)
    assert len(values) == 50
    mags = np.abs(np.array(list(values.values())))
    np.testing.assert_allclose(mags, 1.0, atol=1e-6)


def test_esp_dropped_sweep_past_order_170(capsys):
    # the sweep runs to order 170, the last order whose n! fits a double
    code, out, _ = run(capsys, "esp", "--roots-of-unity", "171", "--drop", "1", "--all-orders")
    assert code == 0
    values = parse_value_lines(out)
    v1 = generate_nodes("roots_of_unity", 171).values[0]
    # on the roots of unity the sweep without v_1 is (-v_1)**j exactly
    exact = (-v1) ** np.arange(171)
    assert np.abs(np.array([values[j] for j in range(171)]) - exact).max() < 1e-10


def test_esp_table_defaults_to_traub(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "esp", "--nodes", "1,2,3", "--table", "--output", str(out_path))
    assert code == 0
    assert out == run(capsys, "esp", "--nodes", "1,2,3", "--backend", "traub", "--table")[1]
    assert "n=3: 1+0j 6+0j 11+0j 6+0j" in out
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["parameters"]["backend"] == "traub"


def test_esp_table_output(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "esp", "--nodes", "1,2,3", "--backend", "traub",
        "--table", "--output", str(out_path),
    )
    assert code == 0
    assert "n=3" in out
    rows = read_rows(out_path)
    assert len(rows) == 4
    assert (tmp_path / "table.csv.manifest.json").exists()


def test_esp_overflow_writes_no_file_and_no_manifest(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, _ = run(
        capsys, "esp", "--nodes", OVERFLOWING_NODES, "--all-orders", "--output", str(out_path)
    )
    assert code == 3
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_esp_mikkawy_all_orders_without_drop(capsys):
    code, out, err = run(
        capsys, "esp", "--nodes", "1,2,3", "--all-orders", "--backend", "mikkawy"
    )
    assert code == 0
    assert err == ""
    assert parse_value_lines(out) == {0: 1, 1: 6, 2: 11, 3: 6}


def test_esp_table_rejects_a_backend_without_a_table(capsys):
    code, out, err = run(capsys, "esp", "--nodes", "1,2,3", "--backend", "proposed", "--table")
    assert code == 2
    assert out == ""
    assert "'proposed'" in err


def test_esp_table_rejects_drop(capsys):
    code, _, err = run(
        capsys, "esp", "--nodes", "1,2,3", "--backend", "traub", "--table", "--drop", "1"
    )
    assert code == 2
    assert "--table" in err


@pytest.mark.parametrize("backend", ESP_BACKENDS)
def test_esp_dropped_all_orders_on_every_backend(capsys, backend):
    # without node 2, the set 1, 3 has sigma 1, 4, 3
    code, out, err = run(
        capsys, "esp", "--nodes", "1,2,3", "--drop", "2", "--all-orders", "--backend", backend
    )
    assert (code, err) == (0, "")
    assert parse_value_lines(out) == {0: 1, 1: 4, 2: 3}


def test_esp_dropped_single_order(capsys):
    code, out, _ = run(capsys, "esp", "--nodes", "1,2,3", "--drop", "1", "--order", "1")
    assert code == 0
    assert parse_value_lines(out)[1] == 5 + 0j


@pytest.mark.parametrize(
    "what, expected",
    [
        (("--all-orders",), (0, "order=0 re=1 im=0 abs=1\n", "")),
        (("--order", "0"), (0, "order=0 re=1 im=0 abs=1\n", "")),
        # the empty set has order 0 alone
        (("--order", "1"), (2, "", "error: order must be an integer in 0..0, got 1\n")),
    ],
)
def test_esp_drops_the_one_node_to_the_empty_set(capsys, what, expected):
    assert run(capsys, "esp", "--nodes", "5", "--drop", "1", *what) == expected


@pytest.mark.parametrize("backend", ["proposed", "traub"])
def test_esp_overflow_exits_3_with_nothing_on_stdout(capsys, backend):
    code, out, err = run(
        capsys, "esp", "--nodes", OVERFLOWING_NODES, "--order", "59", "--backend", backend
    )
    assert code == 3
    assert out == ""
    assert "overflowed" in err


@pytest.mark.parametrize(
    "args",
    [("--all-orders",), ("--all-orders", "--drop", "1"), ("--table", "--backend", "yang")],
    ids=["all-orders", "dropped", "table"],
)
def test_esp_overflow_prints_one_stderr_line(capsys, args):
    # a plain run prints every warning raised here to stderr, ahead of the
    # one line that reports the failure
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "esp", "--nodes", OVERFLOWING_NODES, *args)
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "backend, drop", [("proposed", None), ("traub", None), ("proposed", 59), ("mikkawy", 59)]
)
def test_esp_single_order_checks_only_its_entry(capsys, backend, drop):
    # the sweep's top orders overflow, but --order checks only the entry it prints
    keep = [k for k in range(1, 60) if k != drop]
    exact = sum(a * b * c for a, b, c in itertools.combinations(keep, 3)) * 1e18
    drop_args = () if drop is None else ("--drop", str(drop))
    code, out, _ = run(
        capsys, "esp", "--nodes", OVERFLOWING_NODES, "--order", "3",
        "--backend", backend, *drop_args,
    )
    assert code == 0
    assert abs(parse_value_lines(out)[3] - exact) <= 1e-14 * exact
    top = str(len(keep))
    code, out, err = run(
        capsys, "esp", "--nodes", OVERFLOWING_NODES, "--order", top,
        "--backend", backend, *drop_args,
    )
    assert code == 3
    assert out == ""
    assert "overflowed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "--nodes", "1,2", "--count", "7"),
        ("invert", "--roots-of-unity", "3", "--count", "7"),
        ("invert", "--family", "chebyshev"),
    ],
    ids=["nodes", "roots-of-unity", "family-without-count"],
)
def test_count_goes_with_family_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --count goes with --family, and --family requires --count\n"


def test_esp_bad_nodes_exit_2(capsys):
    code, _, err = run(capsys, "esp", "--nodes", "1,banana", "--order", "1")
    assert code == 2
    assert "banana" in err


@pytest.mark.parametrize(
    "args",
    [("--order", "2", "--all-orders"), ("--table", "--order", "2"), ()],
    ids=["order-and-all-orders", "table-and-order", "none"],
)
def test_esp_needs_exactly_one_of_order_all_orders_table(capsys, args):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "esp", "--nodes", "1,2,3", *args)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,token,kind",
    [
        (("esp", "--nodes", "1,banana", "--order", "1"), "banana", "complex"),
        (("invert", "--nodes", "1,2+i"), "2+i", "complex"),
        (("noise-sweep", "--n", "5", "--sigma-shift-axis", "0,abc"), "abc", "float"),
        (("noise-sweep", "--n", "5", "--sigma-mag-axis", "0.1,1e"), "1e", "float"),
        (("companion-table", "--n-list", "5,x"), "x", "int"),
    ],
    ids=["esp-nodes", "invert-nodes", "sigma-shift-axis", "sigma-mag-axis", "n-list"],
)
def test_bad_list_token_is_named_with_its_type(capsys, argv, token, kind):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {token!r} is not a valid {kind}\n"


def test_blank_list_tokens_are_skipped(capsys):
    assert run(capsys, "invert", "--nodes", " 1,,2, ") == run(capsys, "invert", "--nodes", "1,2")


def test_an_all_blank_list_is_refused(capsys):
    code, out, err = run(capsys, "invert", "--nodes", " , ,")
    assert (code, out) == (2, "")
    assert err == "error: no complex values in ' , ,'\n"


def test_esp_unknown_backend_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "esp", "--nodes", "1,2", "--order", "1", "--backend", "newton")
    assert excinfo.value.code == 2


# ---------------------------------------------------------------- invert

def test_invert_two_nodes_stdout(capsys):
    code, out, _ = run(capsys, "invert", "--nodes", "1,2", "--inverse", "closed-form")
    assert code == 0
    rows = [
        [complex(token) for token in line.split(",")]
        for line in out.strip().splitlines()
    ]
    np.testing.assert_allclose(rows, [[2, -1], [-1, 1]], atol=1e-12)


def test_invert_one_node(capsys):
    # V = [1] for any node, so its inverse is [1]
    assert run(capsys, "invert", "--nodes", "5") == (0, "1+0j\n", "")


def test_invert_a_family_with_count(capsys):
    code, out, err = run(capsys, "invert", "--family", "chebyshev", "--count", "3", "--real")
    assert (code, err) == (0, "")
    expected = real_part(compute_inverse(generate_nodes("chebyshev", 3)))
    rows = [[complex(token) for token in line.split(",")] for line in out.splitlines()]
    np.testing.assert_array_equal(rows, expected)


def test_invert_baseline_roots4_conjugate_transpose(capsys, tmp_path):
    out_path = tmp_path / "inv.json"
    code, _, _ = run(
        capsys, "invert", "--roots-of-unity", "4", "--inverse", "baseline",
        "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    matrix = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    k = np.arange(1, 5)
    v = np.vander(np.exp(2j * np.pi * k / 4), 4, increasing=True).T
    np.testing.assert_allclose(matrix, v.conj().T / 4, atol=1e-12)


def test_invert_csv_output_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "inv.csv"
    code, _, _ = run(capsys, "invert", "--nodes", "1,2", "--output", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    assert float(rows[1][0]) == 2.0
    manifest = json.loads((tmp_path / "inv.csv.manifest.json").read_text())
    assert manifest["command"] == "invert"
    assert manifest["outputs"] == [str(out_path)]
    assert manifest["version"]


@pytest.mark.parametrize(
    "route,esp,esp_label",
    [
        ("baseline", "traub", None),
        ("closed-form", "traub", "traub"),
        ("wa-product", "yang", "yang"),
    ],
)
def test_invert_json_names_the_backends_it_used(capsys, tmp_path, route, esp, esp_label):
    out_path = tmp_path / "inv.json"
    code, _, _ = run(
        capsys, "invert", "--nodes", "1,2,3", "--inverse", route, "--esp", esp,
        "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["esp_backend"] == esp_label
    assert doc["inverse_backend"] == CLI_INVERSES[route]


def test_invert_closed_form_on_171_roots_of_unity(capsys):
    # each dropped sweep of 170 nodes reaches order 170
    code, out, _ = run(capsys, "invert", "--roots-of-unity", "171", "--inverse", "closed-form")
    assert code == 0
    w = np.array([[complex(token) for token in line.split(",")] for line in out.splitlines()])
    v = build_vandermonde(generate_nodes("roots_of_unity", 171))
    assert np.abs(v @ w - np.eye(171)).max() < 1e-10


def test_invert_real_flag_on_complex_nodes_fails(capsys):
    code, _, err = run(capsys, "invert", "--roots-of-unity", "4", "--real")
    assert code == 2
    assert "complex" in err


def test_invert_real_flag_on_complex_nodes_past_double_range_fails(capsys):
    # the inverse's squared entries leave double range; the limit on its
    # imaginary parts must still be finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "invert", "--nodes", "1e-80j,2e-80,3e-80", "--real")
    assert code == 2
    assert err.count("\n") == 1 and "genuinely complex" in err


@pytest.mark.parametrize("command", ["invert", "noise-sweep", "interp"])
def test_inverse_help_states_the_cost_law_and_the_large_n_route(capsys, command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "closed-form costs O(N^4) with --esp proposed" in text
    assert "use wa-product for N in the hundreds" in text


def test_invert_mismatched_backend_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "invert", "--nodes", "1,2", "--inverse", "qr")
    assert excinfo.value.code == 2


def test_invert_numerical_failure_exits_3(capsys):
    code, _, err = run(capsys, "invert", "--nodes", "0,1e-160,2e-160")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("route", ["closed-form", "wa-product", "baseline"])
def test_invert_overflow_exits_3(capsys, route):
    nodes = ",".join(repr(float(x)) for x in np.linspace(-1e3, 1e3, 120))
    code, out, err = run(
        capsys, "invert", f"--nodes={nodes}", "--esp", "traub", "--inverse", route
    )
    assert code == 3
    assert out == ""
    assert "overflowed" in err


@pytest.mark.parametrize("nodes", ["1e308,1e308j", "1e308,-1e308", "1.5e308+1.5e308j,0"])
def test_invert_extreme_nodes_exit_3_with_one_stderr_line(capsys, nodes):
    # a weight too large for numpy's complex division zeroes the inverse;
    # a node gap past double range overflows the subtractions; a node whose
    # magnitude overflows is distinct but makes its weight inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "invert", "--nodes", nodes)
    assert [str(w.message) for w in caught] == []
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: closed_form inverse: barycentric weight 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--nodes", "1,2"),
        ("--nodes", "0.5,-0.25,3,1e-3", "--real"),
        ("--nodes", "1+2j,-3,0.5j", "--inverse", "baseline"),
        ("--roots-of-unity", "9", "--inverse", "wa-product", "--esp", "traub"),
    ],
    ids=["two", "real", "baseline", "roots"],
)
def test_invert_keeps_the_per_entry_bytes(capsys, tmp_path, argv):
    """stdout against the old per-entry recipe; both files against the
    serialize writers, whose own tests hold them to the old recipe."""
    args = build_parser().parse_args(["invert", *argv])
    inverse = CLI_INVERSES[args.inverse]
    matrix = compute_inverse(_nodes_from_args(args), inverse, args.esp)
    if args.real:
        matrix = real_part(matrix)
    expected = "".join(
        ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in map(complex, row)) + "\n"
        for row in matrix
    )
    esp = None if inverse == "elimination_baseline" else args.esp
    inverse_to_csv(inverse_text_rows(matrix), tmp_path / "want.csv")
    inverse_to_json(matrix, tmp_path / "want.json", esp, inverse)
    for suffix in ("csv", "json"):
        out_path = tmp_path / f"inv.{suffix}"
        code, out, _ = run(capsys, "invert", *argv, "--output", str(out_path))
        assert code == 0
        assert out == expected
        assert out_path.read_bytes() == (tmp_path / f"want.{suffix}").read_bytes()


def stdout_matrices():
    signed_zeros = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
                             [complex(-1e-310, 0.0), complex(2.0, -5e-324)]])
    return {**writer_matrices(), "signed zeros": signed_zeros}


@pytest.mark.parametrize("name", list(stdout_matrices()))
def test_invert_stdout_keeps_the_per_entry_bytes_on_any_value(capsys, monkeypatch, name):
    # stdout entries are derived from the CSV cells: signs, exponents, zeros
    # and subnormals keep the bytes of a per-entry "%.17g%+.17gj"
    matrix = stdout_matrices()[name]
    monkeypatch.setattr(vandinv.cli, "compute_inverse", lambda *args: matrix)
    code, out, _ = run(capsys, "invert", "--nodes", "1,2")
    assert code == 0
    assert out == "".join(
        ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in map(complex, row)) + "\n"
        for row in matrix
    )


@pytest.mark.parametrize("what", [("--table", "--backend", "yang"), ("--all-orders",)])
def test_esp_stdout_keeps_the_per_entry_bytes(capsys, what):
    nodes = [1, 2j, -3.5, 1e-3, -0.25 + 7e5j]
    code, out, _ = run(capsys, "esp", "--nodes", ",".join(map(str, nodes)), *what)
    assert code == 0
    if what[0] == "--table":
        table = esp_table(NodeSet(nodes), "yang")
        expected = "".join(
            f"n={n}: " + " ".join(f"{z.real:.17g}{z.imag:+.17g}j"
                                  for z in map(complex, table[n, : n + 1])) + "\n"
            for n in range(1, len(nodes) + 1)
        )
    else:
        values = map(complex, esp_all_orders(NodeSet(nodes), "proposed"))
        expected = "".join(
            f"order={k} re={z.real:.17g} im={z.imag:.17g} abs={abs(z):.17g}\n"
            for k, z in enumerate(values)
        )
    assert out == expected


# ---------------------------------------------------------------- tables

def test_companion_table_default(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "companion-table", "--n-list", "5,25", "--output", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    assert rows[0] == [
        "n",
        "closed_form+proposed",
        "closed_form+traub",
        "closed_form+yang",
        "closed_form+mikkawy",
        "elimination_baseline",
    ]
    n5 = [float(cell) for cell in rows[1][1:]]
    assert all(v < 1e-13 for v in n5)
    # all combinations land within one order of magnitude at N=5
    assert max(n5) / min(n5) < 10
    # the yang column at N=25 sits in the e-11/e-12 decade
    yang_25 = float(rows[2][3])
    assert 2.8e-12 < yang_25 < 2.8e-10


def test_companion_table_below_n_2_exits_2_with_the_library_message(capsys):
    assert run(capsys, "companion-table", "--n-list", "1") == (
        2, "", "error: companion check needs N >= 2\n"
    )
    assert run(capsys, "companion-table", "--n-list", "0") == (
        2, "", "error: roots_of_unity node count must be an integer >= 1, got 0\n"
    )
    # the whole table is computed before it prints: a bad N leaves stdout empty
    assert run(capsys, "companion-table", "--n-list", "3,1")[:2] == (2, "")


def test_companion_table_csv_bytes(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "companion-table", "--n-list", "5,10", "--output", str(out_path))
    assert code == 0
    expected = (
        "n,closed_form+proposed,closed_form+traub,closed_form+yang,"
        "closed_form+mikkawy,elimination_baseline\r\n"
    )
    for n in (5, 10):
        nodes = generate_nodes("roots_of_unity", n)
        cells = [
            f"{companion_identity_nmse(nodes, compute_inverse(nodes, inv, esp)):.17g}"
            for inv, esp in COMPANION_COMBOS.values()
        ]
        expected += ",".join([str(n), *cells]) + "\r\n"
    assert out_path.read_bytes() == expected.encode()


# ---------------------------------------------------------------- sweep

def test_noise_sweep_byte_identical_reruns(capsys, tmp_path):
    args = [
        "noise-sweep", "--n", "9", "--trials", "2", "--seed", "123",
        "--sigma-shift-axis", "0,0.2", "--sigma-mag-axis", "0,0.1",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, *args, "--output", str(first))[0] == 0
    assert run(capsys, *args, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 123
    assert manifest["rng_algorithm"] == "numpy.PCG64"


def test_noise_sweep_zero_cell_matches_companion_table(capsys, tmp_path):
    sweep_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "noise-sweep", "--n", "10", "--trials", "3", "--seed", "5",
        "--sigma-shift-axis", "0", "--sigma-mag-axis", "0",
        "--output", str(sweep_path),
    )
    assert code == 0
    sweep_rows = read_rows(sweep_path)
    zero_cell = float(sweep_rows[1][2])

    table_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "companion-table", "--n-list", "10", "--output", str(table_path))
    assert code == 0
    table_rows = read_rows(table_path)
    table_value = float(table_rows[1][1])  # closed_form+proposed column
    assert abs(zero_cell - np.log10(table_value)) < 1e-9


def test_noise_sweep_json_format(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run(
        capsys, "noise-sweep", "--n", "8", "--trials", "2", "--seed", "4",
        "--sigma-shift-axis", "0.1", "--sigma-mag-axis", "0.1",
        "--format", "json", "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["n"] == 8
    assert doc["trials_per_cell"] == 2


@pytest.mark.parametrize("suffix", ["csv", "json", "JSON"])
def test_noise_sweep_auto_format_follows_the_suffix(capsys, tmp_path, suffix):
    fmt = suffix.lower()
    args = [
        "noise-sweep", "--n", "8", "--trials", "2", "--seed", "4",
        "--sigma-shift-axis", "0,0.1", "--sigma-mag-axis", "0.1",
    ]
    auto = tmp_path / f"auto.{suffix}"
    explicit = tmp_path / f"explicit.{suffix}"
    assert run(capsys, *args, "--output", str(auto))[0] == 0
    assert run(capsys, *args, "--format", fmt, "--output", str(explicit))[0] == 0
    assert auto.read_bytes() == explicit.read_bytes()
    if fmt == "json":
        assert json.loads(auto.read_text())["trials_per_cell"] == 2
    else:
        assert read_rows(auto)[0][0] == "sigma_shift"


def test_noise_sweep_exact_inverse_writes_minus_inf(capsys, tmp_path):
    # LU inverts two unperturbed roots of unity exactly: the mean NMSE is 0
    args = [
        "noise-sweep", "--n", "2", "--trials", "1", "--sigma-shift-axis", "0",
        "--sigma-mag-axis", "0", "--inverse", "baseline",
    ]
    code, out, err = run(capsys, *args, "--output", str(tmp_path / "s.csv"))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "       0    -inf"
    assert read_rows(tmp_path / "s.csv")[1] == ["0", "0", "-inf", "0"]
    assert run(capsys, *args, "--output", str(tmp_path / "s.json"))[0] == 0
    assert '"log10_nmse": [\n    [\n      -Infinity\n' in (tmp_path / "s.json").read_text()


def test_baseline_noise_sweep_names_no_esp_backend(capsys, tmp_path):
    # the elimination baseline reads no ESPs, as in invert JSON and interp
    out_path = tmp_path / "s.json"
    code, out, _ = run(
        capsys, "noise-sweep", "--n", "5", "--trials", "1", "--sigma-shift-axis", "0",
        "--sigma-mag-axis", "0", "--inverse", "baseline", "--output", str(out_path),
    )
    assert code == 0
    assert "esp=none, inverse=elimination_baseline" in out.splitlines()[0]
    doc = json.loads(out_path.read_text())
    assert (doc["esp_backend"], doc["inverse_backend"]) == (None, "elimination_baseline")


def test_noise_sweep_prints_failed_for_scores_past_double_range(capsys):
    code, out, err = run(
        capsys, "noise-sweep", "--n", "9", "--trials", "3", "--seed", "5",
        "--sigma-shift-axis", "0", "--sigma-mag-axis", "1e30,0.1",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "       0  failed  -15.44"


def test_noise_sweep_prints_failed_for_draws_past_double_range(capsys):
    # trial 2's draw leaves double range, the other trials' inverses do
    code, out, err = run(
        capsys, "noise-sweep", "--n", "6", "--trials", "4", "--seed", "6",
        "--sigma-shift-axis", "0", "--sigma-mag-axis", "1e308",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "       0  failed"


# ---------------------------------------------------------------- interp

def test_interp_exclude_default_is_the_library_default():
    args = build_parser().parse_args(["interp", "--fn", "cos", "--family", "chebyshev"])
    assert args.exclude == DEFAULT_EXCLUDE_PER_SIDE


def test_interp_single_run_summary(capsys, tmp_path):
    out_path = tmp_path / "interp.csv"
    code, out, _ = run(
        capsys, "interp", "--fn", "cos", "--family", "roots-of-unity",
        "--n", "60", "--output", str(out_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    summary = lines[1].split(",")
    nmse_value = float(summary[header.index("nmse")])
    assert nmse_value < 1e-10
    rows = read_rows(out_path)
    assert len(rows) == 121  # header + 2N


def test_interp_baseline_summary_names_no_esp_backend(capsys):
    code, out, _ = run(
        capsys, "interp", "--fn", "cos", "--family", "chebyshev", "--n", "10",
        "--inverse", "baseline", "--esp", "traub",
    )
    assert code == 0
    header, summary = (line.split(",") for line in out.strip().splitlines())
    assert summary[header.index("esp_backend")] == "none"
    assert summary[header.index("inverse_backend")] == "elimination_baseline"


def test_interp_non_finite_t_exits_2_with_empty_stdout(capsys):
    code, out, err = run(
        capsys, "interp", "--fn", "cos", "--family", "chebyshev", "--n", "10", "--t", "nan",
    )
    assert code == 2
    assert out == ""
    assert err == "error: parameter t must be finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--fn", "exp", "--family", "equidistant", "--n", "40", "--t", "800",
         "--inverse", "baseline"),
        ("--fn", "cos", "--family", "roots-of-unity", "--n", "10", "--t", "1e308"),
    ],
    ids=["exp-overflow", "cos-nan"],
)
def test_interp_non_finite_result_exits_3_and_writes_nothing(capsys, tmp_path, argv):
    code, out, err = run(capsys, "interp", *argv, "--output", str(tmp_path / "i.csv"))
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "non-finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [[], ["--n", "20"]], ids=["sweep", "n20"])
def test_interp_numerical_failure_names_its_run(capsys, n):
    code, out, err = run(capsys, "interp", "--fn", "exp", "--family", "chebyshev", "--t", "700", *n)
    assert (code, out) == (3, "")
    first = n[-1] if n else "10"  # the sweep fails at its first N
    assert err == (
        f"numerical failure: exponential, t = 700, {first} chebyshev nodes: "
        "NMSE: 1 of 1 entries overflowed to inf or NaN\n"
    )


def test_interp_overflowing_samples_are_counted_with_the_reference(capsys):
    # 20 fit samples and 40 dense ones, checked as one array: exp(800 x)
    # passes double range on 9 of the 60
    code, out, err = run(capsys, "interp", "--fn", "exp", "--family", "chebyshev", "--n", "20",
                         "--t", "800")
    assert (code, out) == (3, "")
    assert err == ("numerical failure: non-finite result: exponential, t = 800, 20 chebyshev "
                   "nodes: 9 of 60 entries overflowed to inf or NaN\n")


def test_interp_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "interp", "--fn", "cos", "--family", "fekete", "--n", "10")
    assert excinfo.value.code == 2


def test_interp_rerun_byte_identical(capsys, tmp_path):
    args = ["interp", "--fn", "tanh", "--family", "chebyshev", "--n", "16"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, *args, "--output", str(first))[0] == 0
    assert run(capsys, *args, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["x.json", "x.csv"])
def test_rewritten_output_matches_a_fresh_write(capsys, tmp_path, monkeypatch, name):
    # relative paths, so that both manifests record the same output path
    def invert_into(directory, count):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        assert run(capsys, "invert", "--roots-of-unity", count, "--output", name)[0] == 0
        manifest = json.loads(Path(f"{name}.manifest.json").read_text(encoding="utf-8"))
        del manifest["timestamp"]
        return Path(name).read_bytes(), manifest

    invert_into(tmp_path / "reused", "40")
    rewritten = invert_into(tmp_path / "reused", "8")
    assert rewritten == invert_into(tmp_path / "fresh", "8")
    if name.endswith(".json"):
        assert json.loads(rewritten[0])["n"] == 8


def test_interp_default_sweep_over_n(capsys, tmp_path):
    # the table-based ESP keeps the full default sweep quick and exception-free
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "interp", "--fn", "exp", "--family", "chebyshev",
        "--esp", "traub", "--output", str(out_path),
    )
    assert code == 0
    rows = read_rows(out_path)
    assert len(rows) == 11  # header + N in 10..100 step 10
    assert [int(r[2]) for r in rows[1:]] == list(range(10, 101, 10))


def test_interp_ext_chebyshev_tanh_order_of_magnitude(capsys):
    code, out, _ = run(
        capsys, "interp", "--fn", "tanh", "--family", "extended-chebyshev", "--n", "37",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    nmse_value = float(lines[1].split(",")[header.index("nmse")])
    assert 1e-6 < nmse_value < 1e-2


# ---------------------------------------------------------------- output

@pytest.mark.parametrize(
    "argv, name",
    [
        (("esp", "--nodes", "1,2,3", "--order", "2"), "e.csv"),
        (("esp", "--nodes", "1,2,3", "--order", "1", "--drop", "2"), "e.csv"),
        (("esp", "--nodes", "1,2,3", "--all-orders"), "e.csv"),
        (("esp", "--nodes", "1,2,3", "--drop", "1", "--all-orders"), "e.csv"),
        (("esp", "--nodes", "1,2,3", "--table", "--backend", "traub"), "e.csv"),
        (("invert", "--nodes", "1,2"), "inv.csv"),
        (("invert", "--nodes", "1,2"), "inv.json"),
        (("companion-table", "--n-list", "5"), "t.csv"),
        (("noise-sweep", "--n", "6", "--trials", "1", "--sigma-shift-axis", "0",
          "--sigma-mag-axis", "0.1"), "s.csv"),
        (("noise-sweep", "--n", "6", "--trials", "1", "--sigma-shift-axis", "0",
          "--sigma-mag-axis", "0.1", "--format", "json"), "s.json"),
        (("interp", "--fn", "cos", "--family", "chebyshev", "--n", "10"), "i.csv"),
        (("interp", "--fn", "exp", "--family", "chebyshev", "--esp", "traub"), "i.csv"),
    ],
    ids=[
        "esp-order", "esp-order-drop", "esp-all-orders", "esp-drop-all-orders", "esp-table",
        "invert-csv", "invert-json", "companion-table", "noise-sweep-csv",
        "noise-sweep-json", "interp-single", "interp-sweep",
    ],
)
def test_every_output_form_writes_its_file_and_manifest(capsys, tmp_path, argv, name):
    out_path = tmp_path / name
    code, _, _ = run(capsys, *argv, "--output", str(out_path))
    assert code == 0
    assert out_path.is_file()
    manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
    assert manifest["outputs"] == [str(out_path)]
    assert manifest["command"] == argv[0]
    seeded = argv[0] == "noise-sweep"
    assert (manifest["seed"] is not None) == seeded
    assert (manifest["rng_algorithm"] is not None) == seeded
    assert sorted(path.name for path in tmp_path.iterdir()) == [name, f"{name}.manifest.json"]


def test_esp_single_order_csv_bytes(capsys, tmp_path):
    out_path = tmp_path / "e.csv"
    code, _, _ = run(capsys, "esp", "--nodes", "1,2,3", "--order", "2", "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == b"order,re,im,abs\r\n2,11,0,11\r\n"


# ---------------------------------------------------------------- misc

def test_output_dir_env_var_is_ignored(capsys, tmp_path, monkeypatch):
    # a relative --output resolves against the working directory only
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("VANDINV_OUTDIR", str(elsewhere))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "invert", "--nodes", "1,2", "--output", "sub/inv.csv")
    assert code == 0
    assert (tmp_path / "sub" / "inv.csv").exists()
    assert (tmp_path / "sub" / "inv.csv.manifest.json").exists()
    assert not elsewhere.exists()


FORMAT_COMMANDS = {
    "invert": ("invert", "--roots-of-unity", "4"),
    "noise-sweep": ("noise-sweep", "--n", "8", "--trials", "2", "--seed", "4",
                    "--sigma-shift-axis", "0,0.1", "--sigma-mag-axis", "0.1"),
}


@pytest.mark.parametrize("command", sorted(FORMAT_COMMANDS))
@pytest.mark.parametrize("fmt, name, reference", [
    ("json", "out.txt", "ref.json"),
    ("csv", "out.json", "ref.csv"),
    ("auto", "out.JSON", "ref.json"),
])
def test_format_picks_the_writer_whatever_the_suffix(capsys, tmp_path, command, fmt, name,
                                                     reference):
    # the reference file is written by --format auto on a lower-case suffix
    args = FORMAT_COMMANDS[command]
    assert run(capsys, *args, "--format", fmt, "--output", str(tmp_path / name))[0] == 0
    assert run(capsys, *args, "--output", str(tmp_path / reference))[0] == 0
    assert (tmp_path / name).read_bytes() == (tmp_path / reference).read_bytes()


@pytest.mark.parametrize("argv", [
    ("esp", "--nodes", "1,2,3", "--all-orders"),
    ("companion-table", "--n-list", "5"),
    ("interp", "--fn", "cos", "--family", "chebyshev", "--n", "10"),
])
def test_a_command_without_format_writes_csv_to_a_json_path(capsys, tmp_path, argv):
    assert run(capsys, *argv, "--output", str(tmp_path / "out.json"))[0] == 0
    assert run(capsys, *argv, "--output", str(tmp_path / "out.csv"))[0] == 0
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "out.csv").read_bytes()


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("case", ["directory", "under a file", "disk full"])
def test_an_unwritable_output_exits_2_with_empty_stdout(capsys, tmp_path, monkeypatch, case):
    (tmp_path / "file").write_text("x")
    out = {"directory": tmp_path, "under a file": tmp_path / "file" / "y.csv",
           "disk full": tmp_path / "inv.csv"}[case]
    if case == "disk full":
        monkeypatch.setattr("vandinv.cli.inverse_to_csv", _no_space)
    code, stdout, err = run(capsys, "invert", "--nodes", "1,2", "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.manifest.json"))


def test_a_device_output_gets_no_manifest(capsys):
    manifest = Path(os.devnull + ".manifest.json")
    before = manifest.stat().st_mtime_ns if manifest.exists() else None
    try:
        result = run(capsys, "invert", "--nodes", "1,2", "--output", os.devnull)
        after = manifest.stat().st_mtime_ns if manifest.exists() else None
    finally:
        if before is None:  # remove only a manifest this test made
            manifest.unlink(missing_ok=True)
    assert result == (0, run(capsys, "invert", "--nodes", "1,2")[1], "")
    assert after == before


def test_a_failing_writer_leaves_stdout_empty_and_no_manifest(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("matrix to write as JSON: 1 of 16 entries overflowed")

    monkeypatch.setattr("vandinv.cli.inverse_to_json", fail)
    out = tmp_path / "x.json"
    code, stdout, err = run(capsys, "invert", "--roots-of-unity", "4", "--output", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_an_empty_output_exits_2_naming_it_with_empty_stdout(capsys, tmp_path, monkeypatch):
    # Path("") is Path("."): the refusal must name the empty path, not "."
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "invert", "--nodes", "1,2", "--output", "")
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.endswith(": ''\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nodes, taken", [(("--roots-of-unity", "150"), 10),
                                          (("--nodes", "1,2"), 0)], ids=["big", "small"])
def test_a_closed_stdout_pipe_exits_141_with_an_empty_stderr(nodes, taken):
    # the ~1.4 MB inverse overfills the pipe buffer, so the writer blocks
    # until the reader has taken its 10 bytes and closed; the small one is
    # written, and flushed, only after the reader has closed at once: no
    # timing is needed either way
    proc = subprocess.Popen([sys.executable, "-m", "vandinv.cli", "invert", *nodes],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=fresh_process_env())
    with proc:
        assert len(proc.stdout.read(taken)) == taken
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


def _call_in_process(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, capsys.readouterr().out


def _manifest_parameters(argv):
    if "--output" not in argv:
        return None
    path = Path(argv[argv.index("--output") + 1] + ".manifest.json")
    return json.loads(path.read_text())["parameters"]


def test_one_parser_serves_many_calls_without_leaking_options(capsys, tmp_path):
    """A run of different calls in one process gives each call's exit code,
    stdout and manifest parameters from a fresh process."""
    out = str(tmp_path)
    calls = [
        ("interp", "--fn", "cos", "--family", "chebyshev", "--n", "10", "--t", "0.5",
         "--exclude", "2", "--output", f"{out}/a.csv"),
        ("interp", "--fn", "exp", "--family", "chebyshev", "--esp", "traub",
         "--output", f"{out}/b.csv"),
        ("invert", "--nodes", "1,2", "--real", "--format", "json", "--output", f"{out}/c"),
        ("invert", "--nodes", "1,2", "--output", f"{out}/d.csv"),
        ("invert", "--nodes", "1,2", "--inverse", "qr"),
        ("noise-sweep", "--n", "6", "--trials", "1", "--sigma-shift-axis", "0",
         "--sigma-mag-axis", "0.1", "--output", f"{out}/e.csv"),
    ]
    in_process = [(*_call_in_process(argv, capsys), _manifest_parameters(argv))
                  for argv in calls]
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "vandinv.cli", *argv], capture_output=True,
                               text=True, env=fresh_process_env(), timeout=120)
        assert got == (fresh.returncode, fresh.stdout, _manifest_parameters(argv)), argv
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0]
    assert in_process[1][2]["n"] is None and in_process[1][2]["exclude"] == 7
    assert in_process[3][2]["real"] is False and in_process[3][2]["format"] == "auto"


def test_cli_loads_scipy_only_where_no_proof_clears_the_pivot_floor():
    # importing scipy roughly doubles start-up; the baseline loads it for
    # getrf's U diagonal, which it reads only where neither its inverse nor a
    # QR of V proves the pivot floor, as on 50 Chebyshev nodes, whose
    # smallest pivot is at the floor; on 40 equidistant nodes the QR proves
    # it, for the inverse and for the interp fit (interp-io's baseline fits)
    check = """
import sys
import vandinv.cli
assert "scipy" not in sys.modules
for nodes in (["--nodes", "1,2"], ["--roots-of-unity", "150"],
              ["--family", "equidistant", "--count", "40"]):
    assert vandinv.cli.main(["invert", *nodes, "--inverse", "baseline"]) == 0
argv = ["interp", "--fn", "cos", "--family", "equidistant", "--n", "40", "--inverse", "baseline"]
assert vandinv.cli.main(argv) == 0
assert "scipy" not in sys.modules
argv = ["invert", "--family", "chebyshev", "--count", "50", "--inverse", "baseline"]
assert vandinv.cli.main(argv) == 0
assert "scipy" in sys.modules
"""
    run = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         env=fresh_process_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    # the printed inverses, and the interp fit's header and summary line
    assert len(run.stdout.splitlines()) == 2 + 150 + 40 + 2 + 50


def test_cli_spellings_cover_each_registry_exactly():
    for spellings, names in (
        (CLI_FAMILIES, NODE_FAMILIES),
        (CLI_FUNCTIONS, FUNCTION_KINDS),
        (CLI_INVERSES, INVERSE_BACKENDS),
    ):
        assert set(spellings.values()) == set(names)
        assert len(spellings) == len(names)  # one spelling per entry
    for label, (route, esp) in COMPANION_COMBOS.items():
        assert route in INVERSE_BACKENDS and esp in ESP_BACKENDS
        # the label names the ESP backend only where the route reads one
        read = inverse_esp_backend(route, esp)
        assert label == (route if read is None else f"{route}+{read}")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
