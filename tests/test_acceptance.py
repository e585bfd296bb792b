"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Budgets are wall-clock ceilings, asserted alongside the
numerical criteria.
"""

import time

import numpy as np

from vandinv import (
    ESP_BACKENDS,
    NodeSet,
    companion_identity_nmse,
    esp_dropped,
    esp_single,
    generate_nodes,
    interp_experiment,
    inverse_closed_form,
    inverse_wa_product,
    noise_sweep,
)
from vandinv.cli import main

from conftest import (
    esp_bruteforce_oracle,
    matrix_rel_gap,
    random_node_set,
    unit_circle_deviation,
)

SEED = 20260810


class Criterion:
    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, passed, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if passed and elapsed < self.budget else "FAIL"
        print(
            f"ACCEPTANCE {self.number} {status}: {self.name} "
            f"({detail}; {elapsed:.1f}s of {self.budget:.0f}s budget)"
        )
        assert passed, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} runtime {elapsed:.1f}s over budget {self.budget:.0f}s"
        )


def _within(actual, oracle, rel=1e-10, abs_floor=1e-12):
    err = abs(actual - oracle)
    return err <= max(rel * abs(oracle), abs_floor)


def test_criterion_1_oracle_suite():
    crit = Criterion(1, "all ESP backends match the brute-force oracle", 30)
    rng = np.random.default_rng(SEED)
    checked = 0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        ns = random_node_set(rng, n)
        oracle = [esp_bruteforce_oracle(ns, k) for k in range(n + 1)]
        for order in range(1, n + 1):
            for method in ESP_BACKENDS:
                value = esp_single(ns, order, method)
                checked += 1
                if not _within(value, oracle[order]):
                    ok = False
        drop = int(rng.integers(1, n + 1))
        reduced = NodeSet(np.delete(ns.values, drop - 1))
        reduced_oracle = [esp_bruteforce_oracle(reduced, k) for k in range(n)]
        for method in ESP_BACKENDS:
            dropped = esp_dropped(ns, drop, method)
            for order in range(n):
                checked += 1
                if not _within(dropped[order], reduced_oracle[order]):
                    ok = False
    crit.finish(ok, f"200 node sets, {checked} oracle comparisons at rel 1e-10")


def test_criterion_2_unit_circle_esp():
    crit = Criterion(2, "dropped-ESP magnitudes on roots of unity", 10)

    def roots(n):
        return generate_nodes("roots_of_unity", n)

    prop_devs = {
        n: unit_circle_deviation(esp_dropped(roots(n), 1, "proposed"))
        for n in (50, 64, 70)
    }
    traub_dev = unit_circle_deviation(esp_dropped(roots(64), 1, "traub"))
    yang_dev = unit_circle_deviation(esp_dropped(roots(64), 1, "yang"))
    ok = all(d < 1e-6 for d in prop_devs.values()) and traub_dev > 1e-3 and yang_dev > 1e-3
    crit.finish(
        ok,
        "proposed max dev "
        + ", ".join(f"N={n}: {d:.2e}" for n, d in prop_devs.items())
        + f"; traub@64 {traub_dev:.2e}, yang@64 {yang_dev:.2e}",
    )


def test_criterion_3_companion_table():
    crit = Criterion(3, "companion NMSE columns on roots of unity", 60)
    ns_values = list(range(5, 51, 5))
    proposed_col = []
    traub_col = []
    for n in ns_values:
        nodes = generate_nodes("roots_of_unity", n)
        proposed_col.append(
            companion_identity_nmse(nodes, inverse_closed_form(nodes, "proposed"))
        )
        traub_col.append(
            companion_identity_nmse(nodes, inverse_closed_form(nodes, "traub"))
        )
    proposed_ok = all(v < 1e-13 for v in proposed_col)
    traub_tail_ok = traub_col[-1] > 1e-7
    monotone_ok = all(a <= b for a, b in zip(traub_col, traub_col[1:]))
    ok = proposed_ok and traub_tail_ok and monotone_ok
    crit.finish(
        ok,
        f"proposed max {max(proposed_col):.2e} (<1e-13), traub@50 {traub_col[-1]:.2e} "
        f"(>1e-7), traub monotone {monotone_ok}",
    )


def test_criterion_4_noise_sweep_gap():
    crit = Criterion(4, "noise-sweep backend gap at (0.2, 0.1)", 600)
    axis = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    shift_idx, mag_idx = 4, 2  # sigma_shift 0.2, sigma_mag 0.1
    grids = {
        esp: noise_sweep(37, axis, axis, trials=16, seed=SEED, esp_backend=esp)
        for esp in ("proposed", "traub")
    }
    prop_cell = grids["proposed"].log10_nmse[shift_idx, mag_idx]
    traub_cell = grids["traub"].log10_nmse[shift_idx, mag_idx]
    no_failures = not any(g.failed.any() for g in grids.values())
    gap = traub_cell - prop_cell
    ok = no_failures and np.isfinite(gap) and gap >= 3.0
    crit.finish(
        ok,
        f"log10 NMSE proposed {prop_cell:.2f} vs traub {traub_cell:.2f}, gap {gap:.2f} >= 3",
    )


def test_criterion_5_interpolation_anchors():
    crit = Criterion(5, "interpolation anchors", 60)
    cos_roots = interp_experiment(
        "cosine", "roots_of_unity", 100
    ).nmse_after_exclusion
    exp_roots = interp_experiment(
        "exponential", "roots_of_unity", 85
    ).nmse_after_exclusion
    tanh_equid = interp_experiment(
        "tanh", "equidistant", 37
    ).nmse_after_exclusion
    anchor = 5.24e-1
    ok = (
        cos_roots < 1e-10
        and exp_roots < 1e-10
        and anchor / 10 <= tanh_equid <= anchor * 10
    )
    crit.finish(
        ok,
        f"cos/roots/100 {cos_roots:.2e} (<1e-10), exp/roots/85 {exp_roots:.2e} "
        f"(<1e-10), tanh/equid/37 {tanh_equid:.2e} (within 10x of {anchor:.2e})",
    )


def test_criterion_6_factorization_equivalence():
    crit = Criterion(6, "closed form vs W*A factorization", 120)
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        ns = random_node_set(rng, n)
        a = inverse_closed_form(ns)
        b = inverse_wa_product(ns)
        worst = max(worst, matrix_rel_gap(a, b))
    ok = worst < 1e-12
    crit.finish(ok, f"100 node sets, worst entrywise gap {worst:.2e} relative, < 1e-12")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    crit = Criterion(7, "seeded CLI commands are byte-identical", 120)
    sweep_args = [
        "noise-sweep", "--n", "12", "--trials", "3", "--seed", "77",
        "--sigma-shift-axis", "0,0.2", "--sigma-mag-axis", "0,0.1",
    ]
    sweep_a = tmp_path / "sweep_a.csv"
    sweep_b = tmp_path / "sweep_b.csv"
    assert main(sweep_args + ["--output", str(sweep_a)]) == 0
    assert main(sweep_args + ["--output", str(sweep_b)]) == 0
    interp_args = ["interp", "--fn", "cos", "--family", "gauss-lobatto", "--n", "24"]
    interp_a = tmp_path / "interp_a.csv"
    interp_b = tmp_path / "interp_b.csv"
    assert main(interp_args + ["--output", str(interp_a)]) == 0
    assert main(interp_args + ["--output", str(interp_b)]) == 0
    capsys.readouterr()
    sweep_same = sweep_a.read_bytes() == sweep_b.read_bytes()
    interp_same = interp_a.read_bytes() == interp_b.read_bytes()
    ok = sweep_same and interp_same
    crit.finish(ok, f"sweep identical {sweep_same}, interp identical {interp_same}")
