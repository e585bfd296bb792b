"""Command-line front end.

Subcommands: ``esp``, ``invert``, ``companion-table``, ``noise-sweep``,
``interp``.  Each subcommand handler prints its stdout and returns a
one-argument writer; `main` alone resolves ``--output``, calls the writer
and writes the ``<file>.manifest.json`` sidecar recording the command,
resolved parameters, seed, library version, and timestamp, so any output
can be regenerated.  A command that fails writes neither.  Seeded commands
are byte-reproducible on one platform.

Exit codes: 0 success, 2 argument/usage error, 3 numerical failure.
``--output`` takes any path; a relative one resolves against the working
directory.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path

from . import __version__
from .errors import NumericalError
from .esp import (
    ESP_BACKENDS,
    esp_all_orders,
    esp_dropped,
    esp_single,
    esp_table,
)
from .interpolation import DEFAULT_EXCLUDE_PER_SIDE, interp_experiment
from .nodes import NODE_FAMILIES, RNG_ALGORITHM, NodeSet, generate_nodes
from .serialize import (
    INTERP_SUMMARY_HEADER,
    companion_table_to_csv,
    esp_table_to_csv,
    float_rows,
    interp_report_to_csv,
    interp_summaries_to_csv,
    interp_summary_row,
    inverse_text_rows,
    inverse_to_csv,
    inverse_to_json,
    order_values_to_csv,
    sweep_to_csv,
    sweep_to_json,
    write_json,
)
from .stability import companion_identity_nmse, noise_sweep
from .vandermonde import compute_inverse, inverse_esp_backend, real_part

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

# companion-table column label -> (inverse route, ESP backend), baseline last
COMPANION_COMBOS = {f"closed_form+{esp}": ("closed_form", esp) for esp in ESP_BACKENDS}
COMPANION_COMBOS["elimination_baseline"] = ("elimination_baseline", "proposed")

_COMPLEX = "%.17g%+.17gj"  # one complex stdout entry from its (re, im) floats


def _parse_list(text: str, kind) -> list:
    """Comma-separated values converted by ``kind`` (complex, float or int);
    blank tokens are skipped, and a bad token is named with its type."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(kind(token))
        except ValueError:
            raise ValueError(f"{token!r} is not a valid {kind.__name__}") from None
    if not values:
        raise ValueError(f"no {kind.__name__} values in {text!r}")
    return values


def _add_nodes_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--nodes", help="comma-separated complex nodes, e.g. 1,2,3 or 1+2j,3")
    group.add_argument("--roots-of-unity", type=int, metavar="N", help="use the Nth roots of unity")
    group.add_argument("--family", choices=sorted(CLI_FAMILIES), help="generate a standard family")
    parser.add_argument("--count", type=int, help="node count (with --family)")


def _nodes_from_args(args) -> NodeSet:
    if (args.family is None) != (args.count is None):
        raise ValueError("--count goes with --family, and --family requires --count")
    if args.nodes is not None:
        return NodeSet(_parse_list(args.nodes, complex))
    if args.roots_of_unity is not None:
        return generate_nodes("roots_of_unity", args.roots_of_unity)
    return generate_nodes(CLI_FAMILIES[args.family], args.count)


def _by_format(args, to_csv, to_json):
    """The writer that ``--format`` picks; ``auto`` picks JSON for a
    ``.json`` output and CSV otherwise."""

    def write(out):
        auto_json = args.format == "auto" and out.suffix.lower() == ".json"
        (to_json if auto_json or args.format == "json" else to_csv)(out)

    return write


def _write_manifest(args, out) -> None:
    seed = getattr(args, "seed", None)
    # every parsed option is a str, int, float, bool or None
    params = {key: value for key, value in sorted(vars(args).items()) if key != "handler"}
    doc = {
        "command": args.command,
        "parameters": params,
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM if seed is not None else None,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": [str(out)],
    }
    write_json(doc, f"{out}.manifest.json")


def _cmd_esp(args):
    nodes = _nodes_from_args(args)
    if args.backend is None:  # resolved here, so the manifest names it
        args.backend = "traub" if args.table else "proposed"
    if args.table:
        if args.drop is not None:
            raise ValueError("--table shows the full-set table; it cannot combine with --drop")
        table = esp_table(nodes, args.backend)
        for row_n, values in enumerate(float_rows(table[1:]), 1):
            cells = " ".join([_COMPLEX] * (row_n + 1)) % tuple(values[: 2 * row_n + 2])
            print(f"n={row_n}: {cells}")
        return partial(esp_table_to_csv, table)

    if args.all_orders:
        first = 0
        if args.drop is None:
            values = esp_all_orders(nodes, args.backend)
        else:
            values = esp_dropped(nodes, args.drop, args.backend)
    else:  # a single order is a one-value sweep that starts at that order
        first = args.order
        values = [esp_single(nodes, args.order, args.backend, drop_index=args.drop)]
    for order, (re, im) in enumerate(float_rows(values), first):
        print("order=%d re=%.17g im=%.17g abs=%.17g" % (order, re, im, abs(complex(re, im))))
    return partial(order_values_to_csv, values, first_order=first)


def _cmd_invert(args):
    nodes = _nodes_from_args(args)
    inverse_backend = CLI_INVERSES[args.inverse]
    matrix = compute_inverse(nodes, inverse_backend, args.esp)
    if args.real:
        matrix = real_part(matrix)
    rows = inverse_text_rows(matrix)
    # an entry prints as re, im with its sign, j: the bytes of _COMPLEX
    print("\n".join(row.replace(",", "j,").replace(";-", "-").replace(";", "+") + "j"
                    for row in rows))
    esp_backend = inverse_esp_backend(inverse_backend, args.esp)
    to_json = partial(
        inverse_to_json, matrix, esp_backend=esp_backend, inverse_backend=inverse_backend
    )
    return _by_format(args, partial(inverse_to_csv, rows), to_json)


def _cmd_companion_table(args):
    table = []
    for n in _parse_list(args.n_list, int):
        nodes = generate_nodes("roots_of_unity", n)
        cells = {
            label: companion_identity_nmse(nodes, compute_inverse(nodes, route, esp))
            for label, (route, esp) in COMPANION_COMBOS.items()
        }
        table.append((n, cells))
    width = max(map(len, COMPANION_COMBOS)) + 2
    print("n".rjust(4) + "".join(label.rjust(width) for label in COMPANION_COMBOS))
    for n, cells in table:
        print(str(n).rjust(4) + "".join(f"{x:.3e}".rjust(width) for x in cells.values()))
    return partial(companion_table_to_csv, table)


def _cmd_noise_sweep(args):
    shift_axis = _parse_list(args.sigma_shift_axis, float)
    mag_axis = _parse_list(args.sigma_mag_axis, float)
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
        f"log10 companion NMSE, n={args.n}, esp={grid.esp_backend or 'none'}, "
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
    return _by_format(args, partial(sweep_to_csv, grid), partial(sweep_to_json, grid))


def _cmd_interp(args):
    # run every fit before printing, so that a failing one leaves stdout empty
    reports = [
        interp_experiment(
            CLI_FUNCTIONS[args.fn], CLI_FAMILIES[args.family], n, args.t,
            CLI_INVERSES[args.inverse], args.esp, exclude_per_side=args.exclude,
        )
        for n in (DEFAULT_INTERP_NS if args.n is None else (args.n,))
    ]
    print(",".join(INTERP_SUMMARY_HEADER))
    for report in reports:
        print(",".join(str(cell) for cell in interp_summary_row(report)))
    if args.n is None:
        return partial(interp_summaries_to_csv, reports)
    return partial(interp_report_to_csv, reports[0])


@cache  # one per process; parse_args returns a fresh Namespace and changes no parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandinv",
        description="ESP kernels, closed-form Vandermonde inversion, and stability benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"vandinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    inverse = dict(choices=sorted(CLI_INVERSES), default="closed-form", help=(
        "closed-form costs O(N^4) with --esp proposed or yang, O(N^3) with traub or "
        "mikkawy; wa-product and baseline cost O(N^3): use wa-product for N in the hundreds"))

    p_esp = sub.add_parser("esp", help="elementary symmetric polynomials")
    _add_nodes_arguments(p_esp)
    what = p_esp.add_mutually_exclusive_group(required=True)
    what.add_argument("--order", type=int, help="single ESP order")
    what.add_argument("--all-orders", action="store_true", help="every order at once")
    what.add_argument("--table", action="store_true", help="print the full triangular table")
    p_esp.add_argument("--backend", choices=ESP_BACKENDS,
                       help="ESP backend (default: traub with --table, proposed otherwise)")
    p_esp.add_argument("--drop", type=int, metavar="I", help="drop the I'th node (1-based)")
    p_esp.add_argument("--output", help="write results as CSV")
    p_esp.set_defaults(handler=_cmd_esp)

    p_inv = sub.add_parser("invert", help="invert the Vandermonde matrix of a node set")
    _add_nodes_arguments(p_inv)
    p_inv.add_argument("--esp", choices=ESP_BACKENDS, default="proposed")
    p_inv.add_argument("--inverse", **inverse)
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
    p_sweep.add_argument("--inverse", **inverse)
    p_sweep.add_argument("--sigma-shift-axis", default=DEFAULT_SWEEP_AXIS,
                         help="comma-separated phase-noise standard deviations")
    p_sweep.add_argument("--sigma-mag-axis", default=DEFAULT_SWEEP_AXIS,
                         help="comma-separated magnitude-noise standard deviations")
    p_sweep.add_argument("--output", help="write the grid (long format)")
    p_sweep.add_argument("--format", choices=("auto", "csv", "json"), default="auto")
    p_sweep.set_defaults(handler=_cmd_noise_sweep)

    p_interp = sub.add_parser("interp", help="interpolation / super-resolution experiment")
    p_interp.add_argument("--fn", choices=sorted(CLI_FUNCTIONS), required=True)
    p_interp.add_argument("--family", choices=sorted(CLI_FAMILIES), required=True)
    p_interp.add_argument("--n", type=int,
                          help="fit-node count; omit to sweep 10..100 in steps of 10")
    p_interp.add_argument("--t", type=float, help="function parameter (family default otherwise)")
    p_interp.add_argument("--esp", choices=ESP_BACKENDS, default="proposed")
    p_interp.add_argument("--inverse", **inverse)
    p_interp.add_argument("--exclude", type=int, default=DEFAULT_EXCLUDE_PER_SIDE,
                          help="dense nodes excluded per boundary (interval families)")
    p_interp.add_argument("--output", help="write the per-node report (or sweep summary) as CSV")
    p_interp.set_defaults(handler=_cmd_interp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        write = args.handler(args)
        if args.output:
            out = Path(args.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            write(out)
            _write_manifest(args, out)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
