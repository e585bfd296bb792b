"""Command-line front end.

Subcommands: ``esp``, ``invert``, ``companion-table``, ``noise-sweep``,
``interp``.  Every written file gets a ``<file>.manifest.json`` sidecar
recording the command, resolved parameters, seed, library version, and
timestamp, so any output can be regenerated.  Seeded commands are
byte-reproducible on one platform.

Exit codes: 0 success, 2 argument/usage error, 3 numerical failure.
Relative ``--output`` paths resolve under ``$VANDINV_OUTDIR`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NumericalError
from .esp import (
    ESP_BACKENDS,
    esp_all_orders,
    esp_dropped,
    esp_single,
    esp_traub_table,
    esp_yang_table,
)
from .interpolation import InterpFunctionSpec, interp_experiment
from .nodes import NODE_FAMILIES, RNG_ALGORITHM, NodeSet, NodeSpec, generate_nodes
from .serialize import (
    INTERP_SUMMARY_HEADER,
    companion_table_to_csv,
    esp_table_to_csv,
    format_float,
    interp_report_to_csv,
    interp_summaries_to_csv,
    interp_summary_row,
    inverse_to_csv,
    inverse_to_json,
    order_values_to_csv,
    sweep_to_csv,
    sweep_to_json,
)
from .stability import companion_identity_nmse, noise_sweep
from .vandermonde import InverseResult, compute_inverse

CLI_FAMILIES = {family.replace("_", "-"): family for family in NODE_FAMILIES}

CLI_INVERSES = {
    "closed-form": "closed_form",
    "wa-product": "wa_product",
    "baseline": "elimination_baseline",
}

CLI_FUNCTIONS = {"cos": "cosine", "tanh": "tanh", "exp": "exponential"}

DEFAULT_SWEEP_AXIS = "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35"
DEFAULT_TABLE_NS = "5,10,15,20,25,30,35,40,45,50"
DEFAULT_INTERP_NS = tuple(range(10, 101, 10))

COMPANION_COMBOS = (
    ("closed_form", "proposed"),
    ("closed_form", "traub"),
    ("closed_form", "yang"),
    ("closed_form", "mikkawy"),
    ("elimination_baseline", None),
)


def _combo_label(inverse_backend, esp_backend):
    if esp_backend is None:
        return inverse_backend
    return f"{inverse_backend}+{esp_backend}"


def _fmt_complex(z) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _parse_complex_list(text: str) -> list[complex]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(complex(token))
        except ValueError:
            raise ValueError(f"cannot parse {token!r} as a complex number") from None
    if not values:
        raise ValueError("empty node list")
    return values


def _parse_float_list(text: str) -> list[float]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token:
            out.append(float(token))
    if not out:
        raise ValueError("empty axis")
    return out


def _parse_int_list(text: str) -> list[int]:
    return [int(token) for token in text.split(",") if token.strip()]


def _add_nodes_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", help="comma-separated complex nodes, e.g. 1,2,3 or 1+2j,3")
    group.add_argument("--roots-of-unity", type=int, metavar="N", help="use the Nth roots of unity")
    group.add_argument("--family", choices=sorted(CLI_FAMILIES), help="generate a standard family")
    parser.add_argument("--count", type=int, help="node count (with --family)")


def _nodes_from_args(args) -> NodeSet:
    if args.nodes is not None:
        return NodeSet(_parse_complex_list(args.nodes))
    if args.roots_of_unity is not None:
        return generate_nodes(NodeSpec("roots_of_unity", args.roots_of_unity))
    if args.count is None:
        raise ValueError("--family requires --count")
    return generate_nodes(NodeSpec(CLI_FAMILIES[args.family], args.count))


def _resolve_output(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute():
        base = os.environ.get("VANDINV_OUTDIR")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifests(command: str, args, outputs, seed=None) -> None:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key == "handler":
            continue
        if isinstance(value, (str, int, float, bool)) or value is None:
            params[key] = value
        else:
            params[key] = str(value)
    doc = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM if seed is not None else None,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": [str(p) for p in outputs],
    }
    text = json.dumps(doc, indent=2) + "\n"
    for out in outputs:
        Path(f"{out}.manifest.json").write_text(text, encoding="utf-8")


def _print_value_line(order: int, value: complex) -> None:
    re_s, im_s = format_float(value.real), format_float(value.imag)
    print(f"order={order} re={re_s} im={im_s} abs={format_float(abs(value))}")


def _cmd_esp(args) -> int:
    nodes = _nodes_from_args(args)
    n = len(nodes)
    if args.table:
        if args.drop is not None:
            raise ValueError("--table shows the full-set table; it cannot combine with --drop")
        if args.backend not in ("traub", "yang"):
            raise ValueError("--table needs a table-building backend (traub or yang)")
        table = esp_traub_table(nodes) if args.backend == "traub" else esp_yang_table(nodes)
        for row_n in range(1, n + 1):
            cells = " ".join(_fmt_complex(z) for z in table[row_n, : row_n + 1])
            print(f"n={row_n}: {cells}")
        if args.output:
            out = _resolve_output(args.output)
            esp_table_to_csv(table, out)
            _write_manifests("esp", args, [out])
        return 0

    if args.drop is not None:
        values = esp_dropped(nodes, args.drop, args.backend)
    else:
        if args.backend == "mikkawy":
            raise ValueError("the mikkawy backend computes dropped-node ESPs; pass --drop")
        values = None

    if args.all_orders:
        if values is None:
            values = esp_all_orders(nodes, args.backend)
        for order, value in enumerate(values):
            _print_value_line(order, complex(value))
        if args.output:
            out = _resolve_output(args.output)
            order_values_to_csv(range(len(values)), values, out)
            _write_manifests("esp", args, [out])
        return 0

    if args.order is None:
        raise ValueError("pass --order K, --all-orders, or --table")
    if values is not None:
        if not 0 <= args.order < len(values):
            raise ValueError(f"order {args.order} outside 0..{len(values) - 1} for the reduced set")
        value = complex(values[args.order])
    else:
        value = esp_single(nodes, args.order, args.backend)
    _print_value_line(args.order, value)
    if args.output:
        out = _resolve_output(args.output)
        order_values_to_csv([args.order], [value], out)
        _write_manifests("esp", args, [out])
    return 0


def _cmd_invert(args) -> int:
    nodes = _nodes_from_args(args)
    result = compute_inverse(nodes, CLI_INVERSES[args.inverse], args.esp)
    if args.real:
        real = result.as_real()
        result = InverseResult(
            matrix=real.astype(np.complex128),
            esp_backend=result.esp_backend,
            inverse_backend=result.inverse_backend,
        )
    for row in result.matrix:
        print(",".join(_fmt_complex(z) for z in row))
    if args.output:
        out = _resolve_output(args.output)
        fmt = args.format
        if fmt == "auto":
            fmt = "json" if out.suffix.lower() == ".json" else "csv"
        if fmt == "json":
            inverse_to_json(result, out)
        else:
            inverse_to_csv(result, out)
        _write_manifests("invert", args, [out])
    return 0


def _cmd_companion_table(args) -> int:
    n_values = _parse_int_list(args.n_list)
    if not n_values or any(n < 2 for n in n_values):
        raise ValueError("--n-list needs integers >= 2")
    labels = [_combo_label(inv, esp) for inv, esp in COMPANION_COMBOS]
    table = []
    for n in n_values:
        nodes = generate_nodes(NodeSpec("roots_of_unity", n))
        cells = {}
        for label, (inverse_backend, esp_backend) in zip(labels, COMPANION_COMBOS):
            inv = compute_inverse(nodes, inverse_backend, esp_backend or "proposed")
            cells[label] = companion_identity_nmse(nodes, inv).nmse
        table.append((n, cells))
    width = max(len(label) for label in labels) + 2
    print("n".rjust(4) + "".join(label.rjust(width) for label in labels))
    for n, cells in table:
        print(str(n).rjust(4) + "".join(f"{cells[label]:.3e}".rjust(width) for label in labels))
    if args.output:
        out = _resolve_output(args.output)
        companion_table_to_csv(table, out)
        _write_manifests("companion-table", args, [out])
    return 0


def _cmd_noise_sweep(args) -> int:
    shift_axis = _parse_float_list(args.sigma_shift_axis)
    mag_axis = _parse_float_list(args.sigma_mag_axis)
    grid = noise_sweep(
        args.n,
        shift_axis,
        mag_axis,
        trials=args.trials,
        seed=args.seed,
        esp_backend=args.esp,
        inverse_backend=CLI_INVERSES[args.inverse],
    )
    print(
        f"log10 companion NMSE, n={args.n}, esp={args.esp}, "
        f"inverse={CLI_INVERSES[args.inverse]}, trials={args.trials}, seed={args.seed}"
    )
    header = "sS\\sM".rjust(8) + "".join(f"{m:8.3g}" for m in mag_axis)
    print(header)
    for a, s in enumerate(shift_axis):
        cells = "".join(
            "  failed" if grid.failed[a, b] else f"{grid.log10_nmse[a, b]:8.2f}"
            for b in range(len(mag_axis))
        )
        print(f"{s:8.3g}" + cells)
    if args.output:
        out = _resolve_output(args.output)
        if args.format == "json":
            sweep_to_json(grid, out)
        else:
            sweep_to_csv(grid, out)
        _write_manifests("noise-sweep", args, [out], seed=args.seed)
    return 0


def _cmd_interp(args) -> int:
    spec = InterpFunctionSpec(CLI_FUNCTIONS[args.fn], args.t)
    family = CLI_FAMILIES[args.family]
    inverse_backend = CLI_INVERSES[args.inverse]
    print(",".join(INTERP_SUMMARY_HEADER))
    reports = []
    for n in DEFAULT_INTERP_NS if args.n is None else (args.n,):
        report = interp_experiment(
            spec, family, n, inverse_backend, args.esp, exclude_per_side=args.exclude
        )
        reports.append(report)
        print(",".join(str(cell) for cell in interp_summary_row(report)))
    if args.output:
        out = _resolve_output(args.output)
        if args.n is None:
            interp_summaries_to_csv(reports, out)
        else:
            interp_report_to_csv(report, out)
        _write_manifests("interp", args, [out])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandinv",
        description="ESP kernels, closed-form Vandermonde inversion, and stability benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"vandinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_esp = sub.add_parser("esp", help="elementary symmetric polynomials")
    _add_nodes_arguments(p_esp)
    p_esp.add_argument("--order", type=int, help="single ESP order")
    p_esp.add_argument("--all-orders", action="store_true", help="every order at once")
    p_esp.add_argument("--backend", choices=ESP_BACKENDS, default="proposed")
    p_esp.add_argument("--drop", type=int, metavar="I", help="drop the I'th node (1-based)")
    p_esp.add_argument("--table", action="store_true", help="print the full triangular table")
    p_esp.add_argument("--output", help="write results as CSV")
    p_esp.set_defaults(handler=_cmd_esp)

    p_inv = sub.add_parser("invert", help="invert the Vandermonde matrix of a node set")
    _add_nodes_arguments(p_inv)
    p_inv.add_argument("--esp", choices=ESP_BACKENDS, default="proposed")
    p_inv.add_argument("--inverse", choices=sorted(CLI_INVERSES), default="closed-form")
    p_inv.add_argument("--real", action="store_true",
                       help="strip imaginary parts (real nodes only)")
    p_inv.add_argument("--output", help="write the matrix to a file")
    p_inv.add_argument("--format", choices=("auto", "csv", "json"), default="auto")
    p_inv.set_defaults(handler=_cmd_invert)

    p_tab = sub.add_parser(
        "companion-table",
        help="companion-identity NMSE per backend combination on roots of unity",
    )
    p_tab.add_argument("--n-list", default=DEFAULT_TABLE_NS,
                       help="comma-separated matrix orders")
    p_tab.add_argument("--output", help="write the table as CSV")
    p_tab.set_defaults(handler=_cmd_companion_table)

    p_sweep = sub.add_parser("noise-sweep", help="companion NMSE over a noise grid")
    p_sweep.add_argument("--n", type=int, default=37)
    p_sweep.add_argument("--trials", type=int, default=16)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--esp", choices=ESP_BACKENDS, default="proposed")
    p_sweep.add_argument("--inverse", choices=sorted(CLI_INVERSES), default="closed-form")
    p_sweep.add_argument("--sigma-shift-axis", default=DEFAULT_SWEEP_AXIS,
                         help="comma-separated phase-noise standard deviations")
    p_sweep.add_argument("--sigma-mag-axis", default=DEFAULT_SWEEP_AXIS,
                         help="comma-separated magnitude-noise standard deviations")
    p_sweep.add_argument("--output", help="write the grid (long format)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(handler=_cmd_noise_sweep)

    p_interp = sub.add_parser("interp", help="interpolation / super-resolution experiment")
    p_interp.add_argument("--fn", choices=sorted(CLI_FUNCTIONS), required=True)
    p_interp.add_argument("--family", choices=sorted(CLI_FAMILIES), required=True)
    p_interp.add_argument("--n", type=int,
                          help="fit-node count; omit to sweep 10..100 in steps of 10")
    p_interp.add_argument("--t", type=float, help="function parameter (family default otherwise)")
    p_interp.add_argument("--esp", choices=ESP_BACKENDS, default="proposed")
    p_interp.add_argument("--inverse", choices=sorted(CLI_INVERSES), default="closed-form")
    p_interp.add_argument("--exclude", type=int, default=7,
                          help="dense nodes excluded per boundary (interval families)")
    p_interp.add_argument("--output", help="write the per-node report (or sweep summary) as CSV")
    p_interp.set_defaults(handler=_cmd_interp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
