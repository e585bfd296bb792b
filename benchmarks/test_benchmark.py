"""Self-tests of the benchmark, on tiny sizes of each workload.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from vandinv import NodeSet, cli, esp  # noqa: E402
from vandinv import vandermonde  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("tiny", [True, False])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(workload, tiny, tmp_path):
    first = workloads.plan(workload, 11, tmp_path, tiny)
    assert workloads.plan(workload, 11, tmp_path, tiny) == first
    assert workloads.plan(workload, 12, tmp_path, tiny) != first


def _run_tiny(workload, outdir):
    calls = workloads.plan(workload, 5, outdir, tiny=True)
    results = [worker.call(cli, c.argv) for c in calls]
    assert workloads.check(calls, results).ok
    return calls, results


def test_sweep_check_rejects_a_failed_cell_and_a_lost_gap(tmp_path):
    calls, results = _run_tiny("sweep37", tmp_path)
    path = Path(calls[0].output)
    original = json.loads(path.read_text(encoding="utf-8"))

    doc = json.loads(json.dumps(original))
    doc["failed"][0][0] = 1
    doc["log10_nmse"][0][0] = None
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert not workloads.check(calls, results).ok

    doc = json.loads(json.dumps(original))
    doc["log10_nmse"] = [[-6.0] * len(row) for row in doc["log10_nmse"]]  # traub-like
    path.write_text(json.dumps(doc), encoding="utf-8")
    verdict = workloads.check(calls, results)
    assert not verdict.ok and verdict.sweep_gap_log10 < workloads.GAP_FLOOR


def test_interp_roots_check_rejects_an_inaccurate_fit(tmp_path):
    calls, results = _run_tiny("interp-roots", tmp_path)
    code, stdout = results[0]
    header, row = stdout.strip().splitlines()
    cells = row.split(",")
    cells[7] = "1.0000000000000001e-06"  # nmse column, N = 50
    results[0] = (code, "\n".join([header, ",".join(cells)]) + "\n")
    assert not workloads.check(calls, results).ok


def test_interp_io_check_rejects_corrupted_outputs(tmp_path):
    calls, results = _run_tiny("interp-io", tmp_path)

    bad_exit = list(results)
    bad_exit[0] = (3, "")
    assert not workloads.check(calls, bad_exit).ok

    report = Path(calls[0].output)
    lines = report.read_text(encoding="utf-8").splitlines(keepends=True)
    report.write_text("".join(lines[:-1]), encoding="utf-8")
    assert not workloads.check(calls, results).ok
    report.write_text("".join(lines), encoding="utf-8")
    assert workloads.check(calls, results).ok

    inverse_csv = Path(next(c.output for c in calls if c.output.endswith("inverse.csv")))
    header, first, rest = inverse_csv.read_bytes().split(b"\r\n", 2)
    cells = first.split(b",")
    cells[0] = repr(float(cells[0]) + 1e-9).encode()
    inverse_csv.write_bytes(b"\r\n".join([header, b",".join(cells), rest]))
    assert not workloads.check(calls, results).ok


def _proposed_ops(m):
    return sum(m + 4 * m * (n - 1) for n in range(1, m + 1))


def _traub_ops(m):
    return sum(2 * k for k in range(1, m + 1))


def _yang_ops(m):
    return sum(2 * (k - j) + 1 for k in range(1, m + 1) for j in range(k))


def _mikkawy_ops(n):
    return sum(2 * (k - 1) for k in range(2, n + 1))


@pytest.mark.parametrize("n", [2, 3, 7, 37, 100])
def test_esp_cost_models_match_the_loop_counts(n):
    for method, count in (("proposed", _proposed_ops), ("traub", _traub_ops),
                          ("yang", _yang_ops)):
        assert tracing.esp_ops(method, n, dropped=False) == count(n)
        assert tracing.esp_ops(method, n, dropped=True) == count(n - 1)
    assert tracing.esp_ops("mikkawy", n, dropped=True) == _mikkawy_ops(n)
    assert tracing.validate_pairs(n) == n * n


def test_tracer_wraps_every_binding_and_restores_them():
    import vandinv

    originals = (vandinv.esp_dropped, vandermonde.esp_dropped, esp.esp_dropped,
                 cli.compute_inverse, vandermonde.compute_inverse)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vandinv.esp_dropped is vandermonde.esp_dropped is esp.esp_dropped
        assert esp.esp_dropped is not originals[2]
        assert cli.compute_inverse is vandermonde.compute_inverse
        assert cli.compute_inverse is not originals[3]
        nodes = NodeSet([1.0, 2.0, 3.0, 4.0])
        cli.compute_inverse(nodes, "closed_form", "proposed")
    finally:
        tracer.uninstall()
    assert (vandinv.esp_dropped, vandermonde.esp_dropped, esp.esp_dropped,
            cli.compute_inverse, vandermonde.compute_inverse) == originals

    spans = tracer.spans
    names = [s[tracing.NAME] for s in spans]
    assert names[1] == "vandermonde.compute_inverse" and names.count("esp.esp_dropped") == 4
    dropped = [i for i, n in enumerate(names) if n == "esp.esp_dropped"]
    # NodeSet.drop inside esp_dropped re-validates the reduced set
    for i in dropped:
        children = [s[tracing.NAME] for s in spans if s[tracing.PARENT] == i]
        assert "nodes.validate_pairwise_distinct" in children
        assert spans[i][tracing.TAG] == ("proposed", 4)


def test_self_times_subtract_children_and_fold_same_layer_callees():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None, False],
        ["esp.esp_dropped", 0, 1.0, 7.0, ("proposed", 5), False],
        ["esp.esp_proposed", 1, 2.0, 4.0, None, False],
        ["nodes.validate_pairwise_distinct", 1, 5.0, 6.0, 4, False],
    ]
    own, in_layer = tracing.self_times(spans)
    assert own == [4.0, 3.0, 2.0, 1.0]
    assert in_layer == [4.0, 5.0, 2.0, 1.0]
    m = tracing.layer_metrics(spans, traced_walls=[10.0], untraced_walls=[9.0])
    assert m["esp.self_s"] == 5.0 and m["cli.self_s"] == 4.0 and m["nodes.self_s"] == 1.0
    assert m["esp.dropped.proposed.self_s"] == 5.0
    assert m["esp.ops_computed"] == tracing.esp_ops("proposed", 5, dropped=True)
    assert m["nodes.validate.pairs_computed"] == 16
    assert m["trace.coverage"] == 1.0 and m["trace.overhead_s"] == 1.0


def test_speed_probe_keeps_its_samples_off_the_clock():
    probe = reference.SpeedProbe()
    before = probe.clock()
    probe.sample()
    assert probe.clock() - before < 0.25 * probe.samples[0][1]
    with probe.every(0.05):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_rounds_scale_by_the_reference_around_each_stretch():
    ref = reference.REFERENCE_S
    # a stretch run at half speed (reference twice as slow) counts half
    assert run.scaled([(1.0, ref, ref), (2.0, 2 * ref, 2 * ref)]) == pytest.approx(2.0)
    assert run.scaled([(3.0, ref, 2 * ref)]) == pytest.approx(2.0)
