"""Tests of the benchmark itself: oracles, tracer and a smoke-size run.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the null-space oracle ---------------------------------------------------------


@pytest.mark.parametrize(
    "alphas, endowments, expected",
    [
        ([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        ([[0.25, 0.75], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [0.4, 0.6]),
    ],
)
def test_nullspace_oracle_matches_edgeworth_closed_form(alphas, endowments, expected):
    np.testing.assert_allclose(workloads.nullspace_equilibrium(alphas, endowments), expected, atol=1e-15)


def test_nullspace_oracle_matches_two_good_formula():
    # Market clearing for good 1: p1 / p2 = sum_c a_c1 w_c2 / sum_c a_c2 w_c1.
    rng = np.random.default_rng(3)
    for _ in range(50):
        alphas, endowments = workloads.random_consumers(rng, 2, int(rng.integers(1, 6)))
        ratio = (alphas[:, 0] @ endowments[:, 1]) / (alphas[:, 1] @ endowments[:, 0])
        expected = np.array([ratio, 1.0]) / (1.0 + ratio)
        np.testing.assert_allclose(workloads.nullspace_equilibrium(alphas, endowments), expected, rtol=1e-12)


def test_nullspace_oracle_zeroes_the_excess_demand():
    rng = np.random.default_rng(4)
    for goods in (3, 4, 5):
        alphas, endowments = workloads.random_consumers(rng, goods, 4)
        p = workloads.nullspace_equilibrium(alphas, endowments)
        assert np.abs(workloads.cobb_douglas_aed(alphas, endowments, p)).max() < 1e-12


# --- the output checks reject wrong answers --------------------------------------------


def _run_entry(workload, i, work):
    from walraskit import cli

    argv = workload.write(work)[i]
    assert cli.main(argv) == 0
    return Path(argv[argv.index("--out") + 1])


def test_solve_check_rejects_a_moved_price(tmp_path, capsys):
    w = workloads.Solve(seed=1, smoke=True)
    out = _run_entry(w, 0, tmp_path)
    assert w.check(0, 0, out).failed == 0
    path = out / "equilibria.csv"
    header, row = path.read_text().splitlines()[:2]
    fields = row.split(",")
    fields[0] = repr(float(fields[0]) + 1e-6)
    path.write_text(f"{header}\n{','.join(fields)}\n")
    outcome = w.check(0, 0, out)
    assert (outcome.failed, outcome.known_defect) == (1, 0)


def test_sarp_check_rejects_a_false_cycle(tmp_path, capsys):
    w = workloads.Sarp(seed=1, smoke=True)
    out = _run_entry(w, 1, tmp_path)
    assert w.check(1, 0, out).failed == 0
    P, X, _ = w.entries[1]
    assert not workloads.Sarp._valid_cycle(P, X, [0, 0])
    report = out / "report.txt"
    report.write_text(report.read_text().replace("SARP: violation", "SARP: pass"))
    assert w.check(1, 0, out).failed == 1


# --- tracer ---------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    import walraskit
    from tracer import Tracer

    original = walraskit.equilibrium.find_equilibria
    tr = Tracer()
    tr.install()
    try:
        wrapped = walraskit.equilibrium.find_equilibria
        assert wrapped is not original
        assert walraskit.cli.find_equilibria is wrapped
        assert walraskit.genericity.find_equilibria is wrapped
        assert walraskit.find_equilibria is wrapped
    finally:
        tr.uninstall()
    assert walraskit.cli.find_equilibria is original
    assert walraskit.equilibrium.find_equilibria is original


# --- speed normalisation ------------------------------------------------------------------


def test_speedometer_takes_its_samples_out_of_the_window():
    import time

    from speed import INTERVAL_S, REF_S, Speedometer

    with Speedometer() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert len(speed.samples) >= 3
    work, norm = speed.window(t0, t1)
    assert work == pytest.approx(t1 - t0 - sum(speed.samples))
    assert norm == pytest.approx(work * REF_S / np.mean(speed.samples))


# --- smoke-size runs -------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "solve":
        assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_exact_counts_repeat_across_runs(capsys):
    argv = ["--workload", "experiment", "--seed", "9", "--seconds", "0.2", "--trace", "1", "--size", "smoke"]
    counts = []
    for _ in range(2):
        assert run.main(argv) == 0
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["fields.chart_values.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
