import dataclasses

import numpy as np
import pytest

import walraskit as wk
from support import (
    constant_scale_economy,
    cubic_field,
    nullspace_price,
    random_economy,
    scan_zeros_1d,
)
from walraskit import equilibrium, fields
from walraskit.equilibrium import (
    BOUNDARY_MARGIN,
    DEDUP_RADIUS,
    DET_RELATIVE_TOL,
    JOIN_RADIUS,
    NEWTON_TOL,
    _dedup,
    _field_report,
    _largest_grid_cluster,
    _newton_multistart,
    _start_grid,
)
from walraskit.fields import JACOBIAN_CONSISTENCY_TOL, JACOBIAN_STEP
from walraskit.geometry import chart_rows_embed


def _refusing_map(C):
    raise ValueError("chart map refuses rows")


def _nine_good_field():
    alphas = np.full(9, 1.0 / 9.0)
    return wk.economy_field(
        wk.Economy((wk.Consumer(alphas, np.eye(9)[0]), wk.Consumer(alphas, 1.0 - np.eye(9)[0])))
    )


def _tol(field):
    """The Newton tolerance of ``field``: ``NEWTON_TOL`` times its scale."""
    return NEWTON_TOL * equilibrium._scan(field, [None])[0][0]


def _lattice(field, density=50):
    """The solver's lattice for ``field`` at ``grid_density=density``: its
    points and its points per axis."""
    density = max(density, equilibrium._scan_grid(field.dim)[1])
    return _start_grid(field.dim, density), density


def _lattice_starts(field, density=50):
    """The Newton starts of a solve of ``field`` at ``grid_density=density``."""
    C, density = _lattice(field, density)
    P, Z = field.full_values(C)
    W = P * Z if field.price_weighted else Z
    sigma = equilibrium._scan(field, [None])[0][0]
    return equilibrium._candidates(C, density, W, np.linalg.norm(Z, axis=1), sigma)


def _converged(field, C):
    """Hand-made output of a Newton phase whose rows all converged at ``C``."""
    mask = np.ones(len(C), dtype=bool)
    return (C, field.residual_norms(C), mask, ~mask, ~mask, np.zeros(len(C), dtype=np.int64))


def _newton_field(case, rng):
    """A field on which Newton steps need halvings: a weighted three-good
    economy (``"weighted-economy"``), the same perturbed (``"perturbed-economy"``),
    or a perturbed continuum economy (``"perturbed-continuum"``)."""
    if case == "perturbed-continuum":
        continuum = wk.build_continuum_economy((0.4, 0.6), grid=201)
        return wk.perturb(continuum, wk.PerturbationSpec(1e-3, terms=5, seed=3))
    field = wk.economy_field(random_economy(rng, 3, 3))
    if case == "perturbed-economy":
        return wk.perturb(field, wk.PerturbationSpec(1e-3, seed=4))
    return field


def _one_call_per_step_size(evaluate, newton_map, rows, state, weighted):
    """``equilibrium._damped_step`` as a loop with one call per step size."""
    C, G, res, _ = (a[rows] for a in state)
    delta = equilibrium._newton_direction(newton_map, C, G, rows)
    hit, live = np.zeros(len(C), bool), np.ones(len(C), bool)
    for lam in equilibrium._STEP_SIZES:
        i = np.flatnonzero(live & ~hit)
        trial = C[i] - lam * delta[i]
        live[i[(trial == C[i]).all(axis=1)]] = False
        ask = live[i] & equilibrium._interior(trial)
        if not ask.any():
            continue
        i, trial = i[ask], trial[ask]
        G, R, Z = equilibrium._newton_state(evaluate, trial, rows[i], weighted)
        ok = R <= (1.0 - 0.5 * lam) * res[i]
        for a, v in zip(state, (trial, G, R, Z)):
            a[rows[i[ok]]] = v[ok]
        hit[i[ok]] = True
    return rows[hit]


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
        assert s.starts == len(_lattice_starts(wk.economy_field(sym_edgeworth)))
        assert s.converged + s.stalled + s.exhausted == s.starts
        assert s.dedup_merges == s.converged - len(report.equilibria)

    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_every_start_is_counted(self, goods, rng):
        s = wk.find_equilibria(random_economy(rng, goods, 3)).stats
        assert s.converged + s.stalled + s.exhausted == s.starts

    def test_start_with_nan_residual_counts_as_stalled(self):
        field = wk.chart_field(lambda C: np.where(C > 0.7, np.nan, 0.5 - C), goods=2)
        starts = _start_grid(1, 50)
        _, _, converged, stalled, exhausted, _ = _newton_multistart(
            lambda C, rows: field.chart_values(C), starts, _tol(field)
        )
        assert (converged.sum(), stalled.sum(), exhausted.sum()) == (35, 15, 0)
        # A lattice point with a NaN residual is no start of a solve.
        s = wk.find_equilibria(field).stats
        assert (s.converged, s.stalled, s.exhausted) == (s.starts, 0, 0)

    def test_exact_zero_ends_its_newton_run(self):
        # Newton lands exactly on the zero of a linear field, where the
        # residual is 0 and no step can improve it.
        report = wk.find_equilibria(wk.chart_field(lambda C: 0.5 - C, goods=2))
        assert report.stats.newton_iterations <= 2 * report.stats.starts
        assert len(report.equilibria) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            wk.SolverConfig(grid_density=0)
        for density in (1, 2.5, True):
            with pytest.raises(ValueError, match="grid_density must be an integer of at least 2"):
                wk.SolverConfig(grid_density=density)
        # The tolerance is NEWTON_TOL times the field's scale, not a setting.
        with pytest.raises(TypeError, match="newton_tol"):
            wk.SolverConfig(newton_tol=1e-10)
        assert wk.SolverConfig(grid_density=np.int64(2)).grid_density == 2

    @pytest.mark.parametrize(
        "field, cfg, message",
        [
            (
                wk.economy_field(
                    wk.Economy(
                        (
                            wk.Consumer([0.1, 0.2, 0.3, 0.4], [1, 0, 0, 0]),
                            wk.Consumer([0.4, 0.3, 0.2, 0.1], [0, 1, 1, 1]),
                        )
                    )
                ),
                wk.SolverConfig(grid_density=70),
                "start grid of 70^3 points is too large; lower grid_density (limit 250000 starts)",
            ),
            (
                # 4^8 starts pass; the continuum scan's 11^8 grid does not
                _nine_good_field(),
                wk.SolverConfig(grid_density=4),
                "continuum scan grid of 11^8 points is too large (limit 250000 points)",
            ),
            (
                wk.chart_field(_refusing_map, goods=2),
                wk.SolverConfig(),
                "chart map refuses rows",
            ),
        ],
        ids=["start_grid_too_large", "scan_grid_too_large", "chart_map_error"],
    )
    def test_errors_keep_their_type_and_text(self, field, cfg, message):
        with pytest.raises(ValueError) as err:
            wk.find_equilibria(field, cfg)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_continuum_scan_refuses_a_grid_too_large(self):
        with pytest.raises(ValueError, match="continuum scan grid of 11\\^8 points"):
            wk.continuum_detector(_nine_good_field())


# Two-good chart fields with one degenerate zero, at 0.5, of the given order.
DEGENERATE_ZEROS = [
    (3, lambda C: -((C - 0.5) ** 3)),
    (4, lambda C: (C - 0.5) ** 4 * (1.0 + C)),
    (5, lambda C: 1e13 * (C - 0.5) ** 5),
    (6, lambda C: (C - 0.5) ** 6 * (1.0 + C)),
    (7, lambda C: -((C - 0.5) ** 7)),
]


class TestFlatZeroJoin:
    """Newton stops on either side of a degenerate zero; one zero is reported."""

    @pytest.mark.parametrize("order, fn", DEGENERATE_ZEROS)
    def test_degenerate_zero_is_reported_once(self, order, fn):
        report = wk.find_equilibria(wk.chart_field(fn, goods=2))
        s = report.stats
        assert s.converged == s.starts
        assert len(report.equilibria) == 1
        eq = report.equilibria[0]
        assert (eq.regularity, eq.index, eq.multiplicity) == ("critical", 0, order)
        assert abs(eq.chart[0] - 0.5) <= JOIN_RADIUS
        assert s.dedup_merges == s.converged - 1

    @pytest.mark.parametrize("order, fn", DEGENERATE_ZEROS)
    def test_zeros_on_either_side_are_joined(self, order, fn):
        # Newton output that stopped 1.2e-6 below and 2.9e-6 above the zero.
        field = wk.chart_field(fn, goods=2)
        C = np.array([[0.5 - 1.2e-6], [0.5 + 2.9e-6]])
        scan = equilibrium._scan(field, [None])[0]
        report = _field_report(field, _converged(field, C), slice(None), *scan)
        (eq,) = report.equilibria
        assert (eq.regularity, eq.index, eq.multiplicity) == ("critical", 0, order)
        assert report.stats.dedup_merges == 1

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_close_zeros_with_a_nonzero_midpoint_stay_apart(self, scale):
        # zeros 5e-5 apart, both regular; the field is -6.25e-10 * scale
        # between them, far above NEWTON_TOL * sigma at either scale.  They
        # lie within one lattice spacing, so a solve may start Newton near
        # one of them only: the report is built from Newton output at both.
        field = wk.chart_field(lambda C: scale * (C - 0.5) * (C - 0.50005), goods=2)
        C = np.array([[0.5], [0.50005]])
        scan = equilibrium._scan(field, [None])[0]
        report = _field_report(field, _converged(field, C), slice(None), *scan)
        charts = [float(eq.chart[0]) for eq in report.equilibria]
        assert np.allclose(charts, [0.5, 0.50005], rtol=0.0, atol=1e-9)
        assert [eq.index for eq in report.equilibria] == [1, -1]


class TestPriceWeightedNewton:
    """Economy fields are solved by Newton on p * z, judged on |z|."""

    @pytest.mark.parametrize("goods", [2, 3, 4])
    @pytest.mark.parametrize("concentration", [1.0, 5.0])
    def test_constant_scale_economies(self, goods, concentration, rng):
        for n in range(1, 7):
            e = constant_scale_economy(rng, goods, n, concentration)
            report = wk.find_equilibria(e)
            s = report.stats
            assert len(report.equilibria) == 1
            eq = report.equilibria[0]
            assert (eq.regularity, eq.index) == ("regular", 1)
            assert np.abs(eq.price.coords - nullspace_price(e)).max() <= 1e-12
            assert s.converged == s.starts
            # About 11 iterations per start on z at l = 4.  Here a start
            # converges in one step and stops at the next, or is merged;
            # polishing at rounding level adds at most two steps.
            assert s.newton_iterations <= 2 * s.starts + 2

    @pytest.mark.parametrize("goods", [2, 3, 4, 5])
    def test_the_first_start_is_the_equilibrium(self, goods, rng):
        # p * z is affine in the chart for constant scales, so the zero of
        # its piecewise-linear interpolant, the first start, is the
        # equilibrium before any Newton step.
        seen = 0
        for n in range(1, 7):
            e = constant_scale_economy(rng, goods, n, 1.0)
            field, exact = wk.economy_field(e), nullspace_price(e)
            density = _lattice(field, 16 if goods == 5 else 50)[1]
            # There is a PL zero unless the zero's cell has a corner off the lattice.
            axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
            corner = ((exact[:-1] - BOUNDARY_MARGIN) // (axis[1] - axis[0])).astype(int)
            if axis[corner + 1].sum() <= 1.0 - BOUNDARY_MARGIN:
                first = _lattice_starts(field, density)[:1]
                assert np.abs(chart_rows_embed(first)[0] - exact).max() <= 1e-12
                seen += 1
        assert seen >= 4

    def test_only_economy_fields_are_weighted(self, sym_edgeworth):
        field = wk.economy_field(sym_edgeworth)
        assert field.price_weighted
        assert not wk.chart_field(lambda C: 0.5 - C, goods=2).price_weighted
        assert wk.perturb(field, wk.PerturbationSpec(0.0)) is field
        assert not wk.perturb(field, wk.PerturbationSpec(1e-3)).price_weighted

    def test_residuals_are_those_of_the_field(self, monkeypatch, sym_edgeworth):
        # One iteration leaves the residuals far from zero, where |p * z|
        # and |z| differ.
        monkeypatch.setattr(equilibrium, "NEWTON_MAX_ITER", 1)
        field = wk.economy_field(sym_edgeworth)
        cfg = wk.SolverConfig()
        starts = _start_grid(1, cfg.grid_density)
        tol = _tol(field)
        C, res, converged, *_ = _newton_multistart(
            lambda C, rows: field.chart_values(C), starts, tol, weighted=True
        )
        assert 0 < converged.sum() < len(C)
        assert np.allclose(res, field.residual_norms(C), rtol=1e-12, atol=0.0)
        assert np.array_equal(converged, res <= tol)


class TestNewtonMultistart:
    @pytest.mark.parametrize("case", ["weighted-economy", "perturbed-continuum"])
    def test_an_iteration_makes_at_most_2d_plus_2_calls(self, case, rng):
        # One for the Jacobian stencils and one for the whole step ladder,
        # after the one call for the starts.
        field = _newton_field(case, rng)
        calls = []

        def spy(C, rows):
            calls.append(len(C))
            return field.chart_values(C)

        cfg = wk.SolverConfig()
        starts = _start_grid(field.dim, cfg.grid_density)
        converged, *_, iterations = _newton_multistart(
            spy, starts, _tol(field), field.price_weighted
        )[2:]
        assert converged.any()
        # Every pass of the loop advances the row with the most iterations.
        assert len(calls) - 1 == 2 * int(iterations.max())

    @pytest.mark.parametrize(
        "order, fn",
        DEGENERATE_ZEROS + [(None, None)],
        ids=[f"order-{order}" for order, _ in DEGENERATE_ZEROS] + ["economy-l4"],
    )
    def test_merged_rows_end_at_the_point_of_a_row_not_merged(self, monkeypatch, order, fn, rng):
        if fn is None:
            field = wk.economy_field(constant_scale_economy(rng, 4, 3))
        else:
            field = wk.chart_field(fn, goods=2)
        owners = []
        merge = equilibrium._merge_converged

        def spy(C, zres, active, owner, tol, block):
            # One array, updated in place by every merge.
            owners.append(owner)
            merge(C, zres, active, owner, tol, block)

        monkeypatch.setattr(equilibrium, "_merge_converged", spy)
        cfg = wk.SolverConfig()
        starts = _start_grid(field.dim, cfg.grid_density)
        C, res, converged, *_ = _newton_multistart(
            lambda C, rows: field.chart_values(C), starts, _tol(field), field.price_weighted
        )
        merged = owners[-1] != np.arange(len(C))
        # Around the order-7 zero, rows creep toward it at one rate and
        # never come within the merge radius of each other.
        assert merged.any() == (order != 7)
        assert converged[merged].all()
        ends = {(tuple(c), r) for c, r in zip(C[~merged].tolist(), res[~merged].tolist())}
        assert all((tuple(c), r) in ends for c, r in zip(C[merged].tolist(), res[merged].tolist()))

    @pytest.mark.parametrize(
        "case", ["weighted-economy", "perturbed-economy", "perturbed-continuum", "order-3"]
    )
    def test_one_call_per_ladder_matches_one_call_per_step_size(self, monkeypatch, case, rng):
        if case == "order-3":
            field = wk.chart_field(DEGENERATE_ZEROS[0][1], goods=2)
        else:
            field = _newton_field(case, rng)
        cfg = wk.SolverConfig()
        starts = _start_grid(field.dim, cfg.grid_density)
        tol = _tol(field)

        def run():
            calls = []

            def counted(C, rows):
                calls.append(len(C))
                return field.chart_values(C)

            return _newton_multistart(counted, starts, tol, field.price_weighted), calls

        (fast, fast_calls) = run()
        monkeypatch.setattr(equilibrium, "_damped_step", _one_call_per_step_size)
        (slow, slow_calls) = run()
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)
        assert len(fast_calls) <= len(slow_calls)

    def test_zero_jacobian_stalls_every_start_after_one_iteration(self):
        calls = []

        def constant(C, rows):
            calls.append(len(C))
            return np.full_like(C, 0.25)

        cfg = wk.SolverConfig()
        starts = _start_grid(2, cfg.grid_density)
        _, _, converged, stalled, exhausted, iterations = _newton_multistart(
            constant, starts, NEWTON_TOL
        )
        assert stalled.all() and not converged.any() and not exhausted.any()
        assert (iterations == 1).all()
        # the starts, then one call for the four stencil rows of each start;
        # no zero step is tried
        assert calls == [len(starts), 4 * len(starts)]


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
            assert wk.find_equilibria(e).index_check == "ok"
        assert wk.find_equilibria(cubic_field()).index_check == "ok"

    def test_truncated_report_fails(self):
        report = wk.find_equilibria(cubic_field())
        truncated = dataclasses.replace(report, equilibria=report.equilibria[:-1])
        assert truncated.index_check == "MISMATCH"

    def test_refuses_critical_zeros(self):
        quad = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
        report = wk.find_equilibria(quad)
        assert not report.all_regular
        assert report.index_check == "n/a"

    def test_self_check_status(self):
        report = wk.find_equilibria(cubic_field())
        assert report.index_check == "ok"
        truncated = dataclasses.replace(report, equilibria=report.equilibria[:-1])
        assert truncated.index_check == "MISMATCH"
        continuum = wk.ContinuumReport(True, (0.3, 0.4), 25)
        assert dataclasses.replace(truncated, continuum=continuum).index_check == "n/a"
        quad = wk.chart_field(lambda C: -((C - 0.5) ** 2), goods=2)
        assert wk.find_equilibria(quad).index_check == "n/a"

    def test_random_inward_fields_sum_to_one(self, rng):
        for goods in (2, 3):
            for _ in range(10):
                e = random_economy(rng, goods, int(rng.integers(2, 6)))
                report = wk.find_equilibria(e)
                assert report.all_regular
                assert report.index_check == "ok"


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
        assert wk.multiplicity_estimate(bump, wk.ChartPoint([0.5])) is None

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
        assert hi == 1.0 - equilibrium.BOUNDARY_MARGIN

    def test_higher_dimensional_cluster(self, monkeypatch):
        # a three-good field vanishing on a chart disc around the barycenter
        def fn(C):
            r2 = ((C - 1 / 3) ** 2).sum(axis=1)
            gate = np.maximum(r2 - 0.01, 0.0) ** 2
            return gate[:, None] * (C - 1 / 3)

        field = wk.chart_field(fn, goods=3)
        monkeypatch.setattr(equilibrium, "CONTINUUM_SCAN_POINTS", 1681)
        report = wk.continuum_detector(field)
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

    def test_one_dimensional_scan_finds_the_first_longest_run(self, rng, monkeypatch):
        # zeros on a random mask over the scan points: the detector must
        # report the loop's first longest run
        m = 1e-4
        tie = np.array([True] * 20 + [False] + [True] * 20 + [False] * 4)
        masks = [tie, tie[::-1], np.zeros(30, dtype=bool), np.ones(30, dtype=bool)]
        for _ in range(40):
            masks.append(rng.random(int(rng.integers(11, 80))) < rng.uniform(0.5, 0.98))
        fired = 0
        for mask in masks:
            n = mask.size
            xs = np.linspace(m, 1.0 - m, n)

            def fn(C, mask=mask, xs=xs):
                k = np.rint((C[:, 0] - xs[0]) / (xs[1] - xs[0])).astype(int)
                return np.where(mask[k], 0.0, 1.0)[:, None]

            field = wk.chart_field(fn, goods=2)
            monkeypatch.setattr(equilibrium, "CONTINUUM_SCAN_POINTS", n)
            report = wk.continuum_detector(field)
            start, length = _loop_longest_run(mask.tolist())
            assert report.points_hit == int(mask.sum())
            assert report.fired == (length >= 20)
            if report.fired:
                fired += 1
                assert report.interval == (xs[start], xs[start + length - 1])
                assert all(type(v) is float for v in report.interval)
            else:
                assert report.interval is None
        assert fired >= 8

    def test_grid_cluster_is_the_largest_flood_fill_cluster(self, rng):
        for dim in (2, 3):
            C = _start_grid(dim, 12)
            spacing = (1.0 - 2e-4) / 11
            for _ in range(20):
                hit = rng.random(len(C)) < 0.3
                got = _largest_grid_cluster(C, hit, spacing).tolist()
                clusters = _flood_fill_clusters(C, hit, 1.5 * spacing)
                largest = max(len(c) for c in clusters)
                # ties go to the cluster holding the lowest index
                assert got == min(c for c in clusters if len(c) == largest)
        assert _largest_grid_cluster(C, np.zeros(len(C), dtype=bool), spacing).size == 0


class _Reference:
    """The per-zero classification path, one field evaluation per probe set:
    the field's scale, the not-a-zero check, the Jacobians at steps h and
    h/2, the determinant rule and the two-good window fit."""

    def __init__(self, field, c, k_max=8):
        self.field = field
        c = np.asarray(c, dtype=float)
        d = c.size
        sigma = self.sigma = self.scale()
        self.residual = float(field.residual_norms(c[None, :])[0])
        if self.residual > 1e-9 * sigma:
            raise ValueError("point is not a zero of the field")
        h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(c)))
        J1 = self.fd_jacobian(c, h)
        J2 = self.fd_jacobian(c, h / 2.0)
        size = max(np.abs(J1).max(), np.abs(J2).max())
        consistent = not np.abs(J1 - J2).max() > JACOBIAN_CONSISTENCY_TOL * size + 1e-12 * sigma
        self.jacobian = J2 if consistent else None
        self.regularity, self.index = "critical", 0
        if consistent:
            det = float(np.linalg.det(J2))
            size = max(float(np.abs(J2).max()), sigma)
            if not abs(det) <= DET_RELATIVE_TOL * size**d:
                self.regularity, self.index = "regular", 1 if (-1) ** d * det > 0 else -1
        self.multiplicity = self.fit(float(c[0]), k_max, sigma) if d == 1 else None

    def scale(self):
        """The largest finite |p * z| on the continuum scan grid."""
        C = equilibrium._scan_grid(self.field.dim)[0]
        P, Z = self.field.full_values(C)
        W = np.linalg.norm(P * Z, axis=1)
        return float(W[np.isfinite(W)].max())

    def fd_jacobian(self, c, h):
        d = c.size
        vals = self.field.chart_values(np.vstack([c + h * np.eye(d), c - h * np.eye(d)]))
        return (vals[:d] - vals[d:]).T / (2.0 * h)

    def fit(self, c0, k_max, sigma):
        r = min(0.02, 0.5 * min(c0, 1.0 - c0))
        s = np.linspace(-1.0, 1.0, 4 * k_max + 1)
        g = self.window = self.field.chart_values((c0 + r * s)[:, None])[:, 0]
        scale = float(np.abs(g).max())
        if scale <= 1e-12 * sigma:
            return None
        b, *_ = np.linalg.lstsq(np.vander(s, k_max + 1, increasing=True), g, rcond=None)
        for m in range(1, k_max + 1):
            if abs(b[m]) >= 1e-3 * scale:
                return m
        return None


def _scaled(e, factor):
    return wk.Economy(tuple(wk.Consumer(c.alpha, np.asarray(c.endowment) * factor) for c in e.consumers))


def _synthetic_fields():
    """Two-good chart fields with a zero at 0.5 of every local type."""
    maps = (
        lambda C: -((C - 0.5) ** 2),
        lambda C: -((C - 0.5) ** 3),
        lambda C: np.zeros_like(C),
        lambda C: np.abs(C - 0.5) ** 1.3,
        # J at h and h/2 differ by about 1e-11: consistent only through the
        # floor that grows with the field's scale
        lambda C: 1e13 * (C - 0.5) ** 5,
    )
    return [wk.chart_field(fn, goods=2) for fn in maps] + [cubic_field()]


def _reference_fields(rng):
    """(field, solver config) for every field the rows core is held to."""
    out = []
    for goods in (2, 3, 4):
        for _ in range(2):
            e = random_economy(rng, goods, 3)
            for factor in (1.0, 1e6):
                cfg = wk.SolverConfig(grid_density=12 if goods == 4 else 50)
                out.append((wk.economy_field(_scaled(e, factor)), cfg))
    base = wk.build_continuum_economy((0.4, 0.6), grid=201)
    bases = (("linear_tilt", 1e-3), ("polynomial", 1e-2), ("random_fourier", 1e-3), ("random_fourier", 1e-4))
    for basis, eps in bases:
        for seed in (3, 4):
            spec = wk.PerturbationSpec(eps, basis=basis, seed=seed)
            out.append((wk.perturb(base, spec), wk.SolverConfig()))
    return out + [(field, wk.SolverConfig()) for field in _synthetic_fields()]


class TestClassifyRows:
    """The rows core against the per-zero path it replaced."""

    def check(self, field, c, eq=None):
        ref = _Reference(field, c)
        tol = 1e-13 * ref.sigma
        assert wk.classify(field, c) == (ref.regularity, ref.index)
        if ref.jacobian is None:
            with pytest.raises(wk.JacobianConsistencyError):
                wk.chart_jacobian(field, c)
        else:
            J = wk.chart_jacobian(field, c)
            assert np.array_equal(J, ref.jacobian)
        if field.goods == 2:
            assert wk.multiplicity_estimate(field, c) == ref.multiplicity
            window = np.linspace(-1.0, 1.0, 33)
            G = fields._probe_rows(field, np.atleast_2d(c), equilibrium._scan(field, [None])[0][0], window)[3]
            assert np.array_equal(G[0, :, 0], ref.window)
        if eq is not None:
            assert (eq.regularity, eq.index) == (ref.regularity, ref.index)
            assert eq.multiplicity == ref.multiplicity
            assert abs(eq.residual - ref.residual) <= tol

    def test_matches_the_per_zero_path(self, rng):
        seen = 0
        for field, cfg in _reference_fields(rng):
            report = wk.find_equilibria(field, cfg)
            # Off the zeros by 1e-12: at x1e6 a residual above 1e-9 that still
            # passes the not-a-zero test, relative to the field's size.
            C = np.array([eq.chart + 1e-12 for eq in report.equilibria])
            n = len(C)
            mask = np.ones(n, dtype=bool)
            newton = (C, np.zeros(n), mask, ~mask, ~mask, np.zeros(n, dtype=np.int64))
            shifted = _field_report(field, newton, slice(None), *equilibrium._scan(field, [None])[0])
            for eq in report.equilibria + shifted.equilibria:
                self.check(field, eq.chart, eq)
                seen += 1
        assert seen >= 60

    def test_synthetic_zeros_one_point_at_a_time(self):
        for field in _synthetic_fields():
            self.check(field, np.array([0.5]))

    def test_not_a_zero_names_the_first_failing_zero_in_order(self):
        # values 0, 1e-3 and 2e-3 at the chart points 0.3, 0.5 and 0.7
        field = wk.chart_field(lambda C: 1e-3 * ((C > 0.4) + (C > 0.6)), goods=2)
        C = np.array([[0.3], [0.5], [0.7]])
        with pytest.raises(ValueError, match=r"not a zero of the field \(residual 1\.414e-03\)"):
            equilibrium._classify_rows(field, C, equilibrium._scan(field, [None])[0][0])

    def test_report_evaluates_the_field_once(self):
        for fn, n_zeros in ((lambda C: 0.5 - C, 1), (lambda C: -(C - 0.3) * (C - 0.5) * (C - 0.7), 3)):
            calls = []

            def counted(C, fn=fn):
                calls.append(len(C))
                return fn(C)

            field = wk.chart_field(counted, goods=2)
            sigma, continuum = equilibrium._scan(field, [None])[0]
            starts = _start_grid(1, wk.SolverConfig().grid_density)
            newton = _newton_multistart(
                lambda C, rows: field.chart_values(C), starts, NEWTON_TOL * sigma
            )
            calls.clear()
            report = _field_report(field, newton, slice(None), sigma, continuum)
            assert len(report.equilibria) == n_zeros
            # one probe evaluation for all zeros
            assert len(calls) == 1


class TestEvaluationCount:
    """A solve evaluates the field in one scan call, one lattice call unless
    the lattice is the scan grid, its Newton phase and one probe call for all
    zeros; the flat-zero join takes one call more."""

    @pytest.mark.parametrize(
        "case, zeros",
        [("cubic", 3), ("order-3", 1), ("economy-l3", 1), ("economy-l4", 1)],
    )
    def test_find_equilibria(self, monkeypatch, case, zeros, rng):
        if case.startswith("economy"):
            base = wk.economy_field(random_economy(rng, int(case[-1]), 3))
        else:
            base = cubic_field() if case == "cubic" else wk.chart_field(DEGENERATE_ZEROS[0][1], goods=2)
        calls, newton_calls = [], []

        def counted(C):
            calls.append(len(C))
            return base.chart_values(C)

        field = dataclasses.replace(base, chart_fn=counted)
        phase = equilibrium._newton_multistart

        def spy(*args):
            first = len(calls)
            out = phase(*args)
            newton_calls.append(calls[first:])
            return out

        monkeypatch.setattr(equilibrium, "_newton_multistart", spy)
        report = wk.find_equilibria(field)
        d = field.dim
        scan, lattice = len(equilibrium._scan_grid(d)[0]), len(_lattice(field)[0])
        head = [scan] if lattice == scan else [scan, lattice]
        probe = 1 + 4 * d + (33 if d == 1 else 0)
        (newton,) = newton_calls
        assert newton[0] == report.stats.starts
        assert calls == head + newton + [zeros * probe]
        assert len(report.equilibria) == zeros

    def test_the_join_takes_one_call_more(self):
        calls = []

        def counted(C):
            calls.append(len(C))
            return DEGENERATE_ZEROS[0][1](C)

        field = wk.chart_field(counted, goods=2)
        scan = equilibrium._scan(field, [None])[0]
        C = np.array([[0.4999988], [0.5000029]])
        newton = _converged(wk.chart_field(DEGENERATE_ZEROS[0][1], goods=2), C)
        calls.clear()
        report = _field_report(field, newton, slice(None), *scan)
        assert len(report.equilibria) == 1
        # two zeros' probe rows, then the midpoint of the one close pair
        assert calls == [2 * (1 + 4 + 33), 1]

    @pytest.mark.parametrize("goods, budget", [(2, 2100), (4, 25_000)])
    def test_a_solve_evaluates_few_rows(self, goods, budget, rng):
        # Newton from every point of the 50-per-axis grid took 310,128 rows
        # at l = 4.
        for n in range(2, 7):
            rows = []
            base = wk.economy_field(random_economy(rng, goods, n))

            def counted(C, base=base):
                rows.append(len(C))
                return base.chart_values(C)

            report = wk.find_equilibria(dataclasses.replace(base, chart_fn=counted))
            assert len(report.equilibria) == 1
            assert sum(rows) <= budget
