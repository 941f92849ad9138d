"""Acceptance suite: ten criteria, each with its stated tolerance.

Each test prints one ``[acceptance] criterion NN PASS`` line on success (run
with ``pytest -s`` or read the captured output); a failing criterion fails
its test.  Shared samples are module-scoped fixtures so the timed criteria
measure only their own work.
"""

import time

import numpy as np
import pytest

import walraskit as wk
from walraskit.cli import main as cli_main
from walraskit.consumers import aed_rows
from walraskit.equilibrium import DEDUP_RADIUS
from support import (
    brute_force_sarp,
    observed_demand,
    edgeworth_asymmetric,
    edgeworth_symmetric,
    oracle_basis_vectors,
    random_economy,
    random_interior_prices,
    scan_zeros_1d,
)


def _pass(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n:02d} PASS: {message}")


@pytest.fixture(scope="module")
def economy_sample():
    """1000 random Cobb-Douglas economies with matched price samples."""
    rng = np.random.default_rng(11)
    sample = []
    for _ in range(1000):
        goods = int(rng.choice([2, 3, 5]))
        economy = random_economy(rng, goods, int(rng.integers(1, 6)))
        prices = random_interior_prices(rng, 100, goods)
        sample.append((economy, prices))
    return sample


@pytest.fixture(scope="module")
def random_l2_economies():
    rng = np.random.default_rng(23)
    return [random_economy(rng, 2, int(rng.integers(1, 6))) for _ in range(50)]


@pytest.fixture(scope="module")
def l2_reports(random_l2_economies):
    return [wk.find_equilibria(e) for e in random_l2_economies]


@pytest.fixture(scope="module")
def edgeworth_reports():
    return [
        wk.find_equilibria(edgeworth_symmetric()),
        wk.find_equilibria(edgeworth_asymmetric()),
    ]


@pytest.fixture(scope="module")
def continuum_economy():
    return wk.build_continuum_economy((0.4, 0.6), grid=201)


def test_criterion_01_walras_law(economy_sample):
    start = time.perf_counter()
    worst = 0.0
    for economy, prices in economy_sample:
        Z = aed_rows(economy, prices)
        worst = max(worst, float(np.abs(np.einsum("ij,ij->i", prices, Z)).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    _pass(1, f"max |p.z| = {worst:.2e} over 100k evaluations in {elapsed:.2f}s")


def test_criterion_02_homogeneity(economy_sample):
    worst = 0.0
    for economy, prices in economy_sample:
        base = aed_rows(economy, prices)
        for lam in (0.5, 2.0, 10.0):
            worst = max(worst, float(np.abs(aed_rows(economy, lam * prices) - base).max()))
    assert worst <= 1e-10
    _pass(2, f"max |z(lam p) - z(p)| = {worst:.2e} for lam in {{0.5, 2, 10}}")


def test_criterion_03_decomposition_round_trip():
    rng = np.random.default_rng(37)
    worst_residual = 0.0
    smallest_mu = np.inf
    for case in range(500):
        goods = int(rng.choice([2, 3, 4]))
        family = wk.CanonicalFamily(
            rng.dirichlet(np.full(goods, 3.0)), rng.uniform(0.5, 2.0, goods)
        )
        p = wk.simplex_point(rng.dirichlet(np.full(goods, 2.0)))
        target = wk.tangent_project(p, rng.standard_normal(goods))
        witness = wk.decompose_at(family, target)
        Z = oracle_basis_vectors(family.alpha, family.endowment_levels, witness.price.coords)
        worst_residual = max(
            worst_residual, float(np.linalg.norm(Z @ witness.mu - target.components))
        )
        smallest_mu = min(smallest_mu, float(witness.mu.min()))
        for i in range(goods):
            assert Z[i, i] < 0.0
            assert np.all(np.delete(Z[:, i], i) > 0.0)
    assert worst_residual <= 1e-8
    assert smallest_mu >= 1.0
    _pass(
        3,
        f"500 targets: max residual {worst_residual:.2e}, min coefficient "
        f"{smallest_mu:.6f}, sign pattern held",
    )


def test_criterion_04_closed_form_equilibria(edgeworth_reports):
    expected = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
    worst = 0.0
    for report, p_star in zip(edgeworth_reports, expected):
        assert len(report.equilibria) == 1
        err = float(np.abs(report.equilibria[0].price.coords - p_star).max())
        worst = max(worst, err)
    assert worst <= 1e-8
    _pass(4, f"both Edgeworth families solved, max |p - p*| = {worst:.2e}")


def test_criterion_05_solver_completeness(random_l2_economies, l2_reports):
    from support import cubic_field

    cases = list(zip(random_l2_economies, l2_reports))
    cubic = cubic_field()
    cases.append((cubic, wk.find_equilibria(cubic)))
    worst = 0.0
    for field_or_economy, report in cases:
        field = wk.economy_field(field_or_economy) if isinstance(field_or_economy, wk.Economy) else field_or_economy
        oracle = scan_zeros_1d(field, n_points=100_001)
        found = np.sort([float(eq.chart[0]) for eq in report.equilibria])
        assert found.size == oracle.size
        if found.size:
            worst = max(worst, float(np.abs(found - oracle).max()))
    assert worst <= DEDUP_RADIUS
    _pass(
        5,
        f"51 fields: zero sets match the 1e5-point scan, max deviation {worst:.2e}",
    )


def test_criterion_06_index_sum(edgeworth_reports, l2_reports):
    rng = np.random.default_rng(59)
    reports = list(edgeworth_reports) + list(l2_reports)
    for report in reports:
        assert report.all_regular
        assert report.index_check == "ok"
    checked = len(reports)
    for goods in (2, 3):
        for _ in range(50):
            report = wk.find_equilibria(random_economy(rng, goods, int(rng.integers(2, 6))))
            assert report.all_regular
            assert report.index_check == "ok"
            checked += 1
    _pass(6, f"index sum = +1 certified for {checked} all-regular reports")


def test_criterion_07_genericity_experiment(continuum_economy):
    start = time.perf_counter()
    baseline = wk.continuum_detector(continuum_economy)
    assert baseline.fired
    spec = wk.PerturbationSpec(epsilon=1e-3, basis="random_fourier", terms=5, seed=4217)
    result = wk.genericity_experiment(continuum_economy, spec, trials=100)
    elapsed = time.perf_counter() - start
    assert result.finite_count == 100
    assert result.all_regular_count == 100
    assert elapsed < 60.0
    _pass(
        7,
        f"unperturbed detector fired on {baseline.interval}; 100/100 perturbed "
        f"trials finite and all-regular in {elapsed:.1f}s",
    )


def test_criterion_08_multiplicity_probe(continuum_economy):
    regular = wk.economy_field(edgeworth_symmetric())
    quadratic = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
    cubic = wk.chart_field(lambda C: -((C - 0.5) ** 3), goods=2)
    assert wk.multiplicity_estimate(regular, wk.ChartPoint([0.5])) == 1
    assert wk.multiplicity_estimate(quadratic, wk.ChartPoint([0.5])) == 2
    assert wk.multiplicity_estimate(cubic, wk.ChartPoint([0.5])) == 3
    flat = wk.multiplicity_estimate(continuum_economy, wk.ChartPoint([0.5]))
    assert flat is None
    _pass(8, "multiplicities 1/2/3 recovered; flat zero exceeds order 8")


def test_criterion_09_sarp_suite():
    rng = np.random.default_rng(73)
    for _ in range(100):
        goods = int(rng.integers(2, 5))
        consumer = wk.Consumer(
            rng.dirichlet(np.full(goods, 3.0)), rng.uniform(0.25, 2.0, goods)
        )
        n_obs = int(rng.integers(2, 51))
        prices = [
            wk.simplex_point(rng.dirichlet(np.full(goods, 2.0))) for _ in range(n_obs)
        ]
        assert wk.sarp_check(observed_demand(consumer, prices)).passed

    violation = wk.sarp_check(
        wk.ObservationDataset([[1, 1], [1, 2]], [[2, 0], [0, 2]])
    )
    assert not violation.passed
    assert set(violation.cycle) == {0, 1}

    matched = 0
    for trial in range(60):
        n = int(rng.integers(2, 9))
        if trial % 2 == 0:
            consumer = wk.Consumer(rng.dirichlet([3.0, 3.0]), rng.uniform(0.25, 2.0, 2))
            prices = [wk.simplex_point(rng.dirichlet([2.0, 2.0])) for _ in range(n)]
            ds = observed_demand(consumer, prices)
        else:
            P = rng.uniform(0.5, 2.0, size=(n, 2))
            X = rng.dirichlet(np.ones(2), size=n) * rng.uniform(5, 15, size=(n, 1)) / P
            ds = wk.ObservationDataset(P, X)
        assert wk.sarp_check(ds).passed == brute_force_sarp(ds.prices, ds.bundles)
        matched += 1
    _pass(
        9,
        f"100 consumer datasets pass; hand violation cycle found; "
        f"{matched} small datasets match brute force",
    )


def test_criterion_10_determinism(continuum_economy, tmp_path):
    economy_path = tmp_path / "continuum.yaml"
    wk.save_economy(economy_path, continuum_economy)
    args = [
        "experiment",
        "--input", str(economy_path),
        "--trials", "100",
        "--epsilon", "1e-3",
        "--seed", "4217",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    bytes1 = (out1 / "experiment.csv").read_bytes()
    bytes2 = (out2 / "experiment.csv").read_bytes()
    assert bytes1 == bytes2
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    _pass(10, f"two seeded runs produced byte-identical CSVs ({len(bytes1)} bytes)")
