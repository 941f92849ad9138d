import dataclasses

import numpy as np
import pytest

import walraskit as wk
from support import cubic_field, random_economy, scan_zeros_1d
from walraskit.equilibrium import (
    DEDUP_RADIUS,
    _dedup,
    _largest_grid_cluster,
    _longest_run,
    _start_grid,
)


class TestFindEquilibria:
    def test_symmetric_edgeworth(self, sym_edgeworth):
        report = wk.find_equilibria(sym_edgeworth)
        assert len(report.equilibria) == 1
        eq = report.equilibria[0]
        assert np.allclose(eq.price.coords, [0.5, 0.5], atol=1e-8)
        assert eq.regularity == "regular"
        assert eq.index == 1
        assert eq.residual <= 1e-9

    def test_asymmetric_edgeworth(self, asym_edgeworth):
        report = wk.find_equilibria(asym_edgeworth)
        assert len(report.equilibria) == 1
        assert np.allclose(report.equilibria[0].price.coords, [0.4, 0.6], atol=1e-8)

    def test_cubic_field_three_zeros(self):
        report = wk.find_equilibria(cubic_field())
        charts = [float(eq.chart[0]) for eq in report.equilibria]
        assert np.allclose(charts, [0.3, 0.5, 0.7], atol=1e-9)
        assert [eq.index for eq in report.equilibria] == [1, -1, 1]
        assert report.index_sum == 1
        assert report.finite_flag

    def test_residuals_reevaluate_below_tolerance(self, rng):
        for _ in range(10):
            e = random_economy(rng, 2, int(rng.integers(1, 6)))
            report = wk.find_equilibria(e)
            for eq in report.equilibria:
                z = wk.aed(e, eq.price)
                assert z.norm() <= 1e-9

    def test_determinism(self, asym_edgeworth):
        r1 = wk.find_equilibria(asym_edgeworth)
        r2 = wk.find_equilibria(asym_edgeworth)
        assert len(r1.equilibria) == len(r2.equilibria)
        for a, b in zip(r1.equilibria, r2.equilibria):
            assert np.array_equal(a.chart, b.chart)
            assert a.residual == b.residual
        assert r1.stats == r2.stats

    def test_pairwise_separation(self, rng):
        cfg = wk.SolverConfig()
        for _ in range(5):
            e = random_economy(rng, 2, 3)
            report = wk.find_equilibria(e, cfg)
            charts = [eq.chart for eq in report.equilibria]
            for i in range(len(charts)):
                for j in range(i + 1, len(charts)):
                    assert np.linalg.norm(charts[i] - charts[j]) > DEDUP_RADIUS

    def test_three_goods_unique_equilibrium(self, rng):
        for _ in range(5):
            e = random_economy(rng, 3, int(rng.integers(1, 5)))
            report = wk.find_equilibria(e)
            assert len(report.equilibria) == 1
            assert report.equilibria[0].regularity == "regular"
            assert report.index_sum == 1

    def test_solver_stats_accounting(self, sym_edgeworth):
        report = wk.find_equilibria(sym_edgeworth)
        s = report.stats
        assert s.starts == 50
        assert s.converged + s.stalled + s.exhausted == s.starts
        assert s.dedup_merges == s.converged - len(report.equilibria)

    def test_exact_zero_ends_its_newton_run(self):
        # Newton lands exactly on the zero of a linear field, where the
        # residual is 0 and no step can improve it.
        report = wk.find_equilibria(wk.chart_field(lambda C: 0.5 - C, goods=2))
        assert report.stats.newton_iterations <= 2 * report.stats.starts
        assert len(report.equilibria) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            wk.SolverConfig(grid_density=0)
        with pytest.raises(ValueError):
            wk.SolverConfig(newton_tol=-1.0)


class TestScanOracle:
    def test_solver_matches_dense_scan_on_cubic(self):
        field = cubic_field()
        report = wk.find_equilibria(field)
        oracle = scan_zeros_1d(field)
        found = np.sort([float(eq.chart[0]) for eq in report.equilibria])
        assert found.size == oracle.size
        assert np.max(np.abs(found - oracle)) <= 1e-6

    def test_solver_matches_dense_scan_random(self, rng):
        for _ in range(10):
            e = random_economy(rng, 2, int(rng.integers(1, 6)))
            field = wk.economy_field(e)
            found = np.sort([float(eq.chart[0]) for eq in wk.find_equilibria(e).equilibria])
            oracle = scan_zeros_1d(field)
            assert found.size == oracle.size
            assert np.max(np.abs(found - oracle)) <= 1e-6


class TestClassify:
    def test_regular_edgeworth(self, sym_edgeworth):
        assert wk.classify(sym_edgeworth, wk.simplex_point([0.5, 0.5])) == ("regular", 1)

    def test_critical_quadratic(self):
        quad = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
        assert wk.classify(quad, wk.ChartPoint([0.5])) == ("critical", 0)

    def test_cubic_middle_zero_negative_index(self):
        assert wk.classify(cubic_field(), wk.ChartPoint([0.5])) == ("regular", -1)

    def test_rejects_non_zero_point(self, sym_edgeworth):
        with pytest.raises(ValueError, match="not a zero"):
            wk.classify(sym_edgeworth, wk.simplex_point([0.3, 0.7]))

    def test_flat_zero_is_critical(self):
        flat = wk.chart_field(lambda C: np.zeros_like(C), goods=2)
        assert wk.classify(flat, wk.ChartPoint([0.5])) == ("critical", 0)


class TestIndexSum:
    def test_certifies_regular_reports(self, sym_edgeworth, asym_edgeworth):
        for e in (sym_edgeworth, asym_edgeworth):
            assert wk.index_sum_check(wk.find_equilibria(e)) is True
        assert wk.index_sum_check(wk.find_equilibria(cubic_field())) is True

    def test_truncated_report_fails(self):
        report = wk.find_equilibria(cubic_field())
        truncated = dataclasses.replace(report, equilibria=report.equilibria[:-1])
        assert wk.index_sum_check(truncated) is False

    def test_refuses_critical_zeros(self):
        quad = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
        report = wk.find_equilibria(quad)
        assert not report.all_regular
        with pytest.raises(ValueError, match="critical"):
            wk.index_sum_check(report)

    def test_random_inward_fields_sum_to_one(self, rng):
        for goods in (2, 3):
            for _ in range(10):
                e = random_economy(rng, goods, int(rng.integers(2, 6)))
                report = wk.find_equilibria(e)
                assert report.all_regular
                assert wk.index_sum_check(report) is True


class TestMultiplicity:
    def test_regular_zero(self, sym_edgeworth):
        assert wk.multiplicity_estimate(sym_edgeworth, wk.ChartPoint([0.5])) == 1

    def test_quadratic_zero(self):
        quad = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
        assert wk.multiplicity_estimate(quad, wk.ChartPoint([0.5])) == 2

    def test_cubic_zero(self):
        cubic = wk.chart_field(lambda C: -((C - 0.5) ** 3), goods=2)
        assert wk.multiplicity_estimate(cubic, wk.ChartPoint([0.5])) == 3

    def test_flat_zero_exceeds_k_max(self):
        from walraskit.genericity import continuum_chart_map

        bump = wk.chart_field(continuum_chart_map(0.4, 0.6), goods=2)
        assert wk.multiplicity_estimate(bump, wk.ChartPoint([0.5]), k_max=8) is None

    def test_two_goods_only(self):
        flat = wk.chart_field(lambda C: np.zeros_like(C), goods=3)
        with pytest.raises(ValueError, match="two goods"):
            wk.multiplicity_estimate(flat, wk.ChartPoint([0.3, 0.3]))

    def test_multiplicity_one_iff_regular(self, rng):
        for _ in range(10):
            e = random_economy(rng, 2, int(rng.integers(1, 5)))
            for eq in wk.find_equilibria(e).equilibria:
                assert (eq.multiplicity == 1) == (eq.regularity == "regular")


class TestContinuumDetector:
    def test_fires_on_flat_interval(self):
        from walraskit.genericity import continuum_chart_map

        bump = wk.chart_field(continuum_chart_map(0.4, 0.6), goods=2)
        report = wk.continuum_detector(bump)
        assert report.fired
        lo, hi = report.interval
        assert abs(lo - 0.4) <= 1e-3
        assert abs(hi - 0.6) <= 1e-3

    def test_quiet_on_edgeworth(self, sym_edgeworth):
        assert not wk.continuum_detector(sym_edgeworth).fired

    def test_quiet_after_tilt(self):
        from walraskit.genericity import continuum_chart_map

        bump = wk.chart_field(continuum_chart_map(0.4, 0.6), goods=2)
        tilted = wk.perturb(bump, wk.PerturbationSpec(1e-3, basis="linear_tilt"))
        assert not wk.continuum_detector(tilted).fired

    def test_fires_on_a_run_ending_at_the_last_scan_point(self):
        field = wk.chart_field(lambda C: np.maximum(0.9 - C, 0.0) ** 3, goods=2)
        report = wk.continuum_detector(field)
        assert report.fired
        lo, hi = report.interval
        assert abs(lo - 0.9) <= 1e-3
        assert hi == 1.0 - wk.ContinuumConfig().boundary_margin_min

    def test_higher_dimensional_cluster(self):
        # a three-good field vanishing on a chart disc around the barycenter
        def fn(C):
            r2 = ((C - 1 / 3) ** 2).sum(axis=1)
            gate = np.maximum(r2 - 0.01, 0.0) ** 2
            return gate[:, None] * (C - 1 / 3)

        field = wk.chart_field(fn, goods=3)
        report = wk.continuum_detector(field, wk.ContinuumConfig(scan_points=1681))
        assert report.fired
        lo, hi = report.interval
        assert np.all(lo <= 1 / 3) and np.all(hi >= 1 / 3)


def _loop_dedup(C, res, radius):
    order = np.argsort(res, kind="stable")
    kept = []
    for k in order:
        if all(np.linalg.norm(C[k] - C[j]) > radius for j in kept):
            kept.append(k)
    return sorted(kept, key=lambda k: tuple(C[k])), len(order) - len(kept)


def _loop_longest_run(mask):
    best_start, best_len, run_start = 0, 0, None
    for i, flag in enumerate(mask):
        if flag and run_start is None:
            run_start = i
        if (not flag or i == len(mask) - 1) and run_start is not None:
            end = i if flag else i - 1
            if end - run_start + 1 > best_len:
                best_start, best_len = run_start, end - run_start + 1
            run_start = None
    return best_start, best_len


def _flood_fill_clusters(C, hit, link):
    remaining = set(np.flatnonzero(hit).tolist())
    clusters = []
    while remaining:
        frontier = [remaining.pop()]
        cluster = list(frontier)
        while frontier:
            k = frontier.pop()
            near = [j for j in remaining if np.linalg.norm(C[j] - C[k]) <= link]
            remaining.difference_update(near)
            cluster += near
            frontier += near
        clusters.append(sorted(cluster))
    return clusters


class TestGrouping:
    """The vectorised grouping helpers against the plain loops they replaced."""

    def test_dedup_is_greedy_along_a_chain(self):
        # 0.8r merges into 0; 1.6r is 0.8r from a merged point but 1.6r from
        # the kept one, so it is kept.
        r = DEDUP_RADIUS
        C = np.array([[0.0], [0.8 * r], [1.6 * r]])
        assert _dedup(C, np.array([1e-14, 2e-14, 3e-14]), r) == ([0, 2], 1)

    def test_dedup_matches_pairwise_loop(self, rng):
        for dim in (1, 2, 3):
            centres = rng.uniform(0.1, 0.3, (5, dim))
            C = centres[rng.integers(0, 5, 200)] + rng.normal(0.0, 0.4, (200, dim)) * DEDUP_RADIUS
            res = rng.choice([0.0, 1e-13, 2e-13], 200)
            assert _dedup(C, res, DEDUP_RADIUS) == _loop_dedup(C, res, DEDUP_RADIUS)

    def test_longest_run_matches_loop(self, rng):
        for mask in ([], [False] * 5, [True] * 5, [True, False, True]):
            assert _longest_run(np.array(mask, dtype=bool)) == _loop_longest_run(mask)
        for _ in range(200):
            mask = rng.random(int(rng.integers(1, 60))) < rng.uniform(0.2, 0.9)
            assert _longest_run(mask) == _loop_longest_run(mask)

    def test_grid_cluster_is_the_largest_flood_fill_cluster(self, rng):
        for dim in (2, 3):
            C = _start_grid(dim, 12, 1e-4)
            spacing = (1.0 - 2e-4) / 11
            for _ in range(20):
                hit = rng.random(len(C)) < 0.3
                got = _largest_grid_cluster(C, hit, spacing).tolist()
                clusters = _flood_fill_clusters(C, hit, 1.5 * spacing)
                largest = max(len(c) for c in clusters)
                # ties go to the cluster holding the lowest index
                assert got == min(c for c in clusters if len(c) == largest)
        assert _largest_grid_cluster(C, np.zeros(len(C), dtype=bool), spacing).size == 0
