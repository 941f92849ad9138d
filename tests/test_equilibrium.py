import dataclasses
import re

import numpy as np
import pytest

import walraskit as wk
from support import (
    ARENA,
    ARENA_REFUSED,
    constant_scale_economy,
    cubic_field,
    multi_equilibrium_economy,
    nullspace_price,
    random_economy,
    scale_path_equilibria,
    scan_zeros_1d,
)
from walraskit import equilibrium, genericity
from walraskit.equilibrium import (
    BOUNDARY_MARGIN,
    DEDUP_RADIUS,
    DEFLATION_MAX_ITER,
    DET_RELATIVE_TOL,
    JACOBIAN_CONSISTENCY_TOL,
    JACOBIAN_STEP,
    JOIN_RADIUS,
    NEWTON_TOL,
    _cover,
    _newton_multistart,
)
from walraskit.fields import _full_rows
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
    return NEWTON_TOL * equilibrium._scan(field)[0]


def _region_points(dim, density):
    """The points of the lattice of ``density`` points per axis in the chart
    region, in index order."""
    return equilibrium._scan_level(dim, density)[0]


def _scan_starts(field):
    """The Newton starts of a solve of ``field`` that its scan grid gives."""
    evaluate = equilibrium._stacked_map(field, [None])
    _, *scan, _ = equilibrium._scan_stage(evaluate, equilibrium._base_grid(field), 1)
    return equilibrium._starts(*scan)[0]


def _evaluator(chart_map, weighted=False):
    """The map a Newton phase reads (``_solve``'s ``phase`` over
    ``equilibrium._stacked_map``) of the chart map ``chart_map(C, rows)``:
    its Newton map ``p * z`` when ``weighted``, else ``z``, and the field
    ``z``, as full rows."""

    def evaluate(C, rows):
        P, Z = _full_rows(C, chart_map(C, rows))
        return (P * Z if weighted else Z), Z

    return evaluate


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _newton(chart_map, starts, tol, weighted=False, **caps):
    """``_newton_multistart`` from ``starts``, rows of one field, on
    ``_evaluator(chart_map, weighted)``, with its iteration ``caps``."""
    labels = np.zeros(len(starts), dtype=int)
    return _newton_multistart(_evaluator(chart_map, weighted), starts, tol, labels, **caps)


def _converged(field, C):
    """Hand-made output of a Newton phase whose rows all converged at ``C``."""
    mask = np.ones(len(C), dtype=bool)
    return (C, field.residual_norms(C), mask, ~mask, ~mask, np.zeros(len(C), dtype=np.int64))


def _field_report(field, newton, rows, sigma, continuum):
    """The report on the one field ``field`` (scale ``sigma``, continuum
    report ``continuum``) from its rows ``rows`` of the Newton phases
    ``newton``: the one-field case of ``_reports``."""
    newton = tuple(a[rows] for a in newton)
    labels = np.zeros(len(newton[0]), dtype=int)
    evaluate = equilibrium._stacked_map(field, [None])
    deflated = np.zeros(len(labels), dtype=bool)
    (report,) = equilibrium._reports(evaluate, newton, labels, deflated, np.array([sigma]), [continuum])
    return report


def _assert_same_report(a, b):
    """``a`` and ``b`` are the same report of a two-good field, to the bit."""
    assert (a.stats, a.continuum) == (b.stats, b.continuum)
    assert len(a.equilibria) == len(b.equilibria)
    for x, y in zip(a.equilibria, b.equilibria):
        assert np.array_equal(x.chart, y.chart) and np.array_equal(x.price.coords, y.price.coords)
        for name in ("residual", "regularity", "index", "multiplicity"):
            assert getattr(x, name) == getattr(y, name)


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


def _with_stencils(X):
    """The points ``X``, each followed by its ``2d`` ``_stencil`` rows, as
    the rows of one call."""
    return np.concatenate([X[:, None, :], equilibrium._stencil(X)[1][:, 0]], axis=1).reshape(-1, X.shape[1])


def _one_call_per_step_size(evaluate, rows, state, converged, halvings):
    """``equilibrium._damped_step`` as a loop that makes its own call for
    the Jacobian stencils of every row, then one call per step size of the
    first ``halvings + 1``, with no stencil rows; a converged row is asked
    the full step only.  It neither reads nor keeps the Jacobians of
    ``state``."""
    C, G, res = (a[rows] for a in state[:3])
    m, d = C.shape
    s, stencil = equilibrium._stencil(C)
    W, _ = evaluate(stencil.reshape(-1, d), np.repeat(rows, 2 * d))
    J = equilibrium._difference_quotient(W[:, :-1].reshape(m, 2 * d, d), s)
    delta = equilibrium._newton_direction(J, G)
    hit, live = np.zeros(len(C), bool), np.ones(len(C), bool)
    for lam in equilibrium._STEP_SIZES[: halvings + 1]:
        i = np.flatnonzero(live & ~hit & ((lam == 1.0) | ~converged))
        trial = C[i] - lam * delta[i]
        live[i[(trial == C[i]).all(axis=1)]] = False
        ask = live[i] & equilibrium._interior(trial)
        if not ask.any():
            continue
        i, trial = i[ask], trial[ask]
        W, Z = evaluate(trial, rows[i])
        R = np.linalg.norm(W, axis=1)
        ok = R <= (1.0 - 0.5 * lam) * res[i]
        for a, v in zip(state, (trial, W[:, :-1], R, np.linalg.norm(Z, axis=1))):
            a[rows[i[ok]]] = v[ok]
        hit[i[ok]] = True
    return rows[hit]


class TestFindEquilibria:
    def test_symmetric_edgeworth(self, sym_edgeworth, as_input):
        report = wk.find_equilibria(as_input(sym_edgeworth))
        assert len(report.equilibria) == 1
        eq = report.equilibria[0]
        assert np.allclose(eq.price.coords, [0.5, 0.5], atol=1e-8)
        assert eq.regularity == "regular"
        assert eq.index == 1
        assert eq.residual <= 1e-9

    def test_asymmetric_edgeworth(self, asym_edgeworth, as_input):
        report = wk.find_equilibria(as_input(asym_edgeworth))
        assert len(report.equilibria) == 1
        assert np.allclose(report.equilibria[0].price.coords, [0.4, 0.6], atol=1e-8)

    def test_cubic_field_three_zeros(self):
        report = wk.find_equilibria(cubic_field())
        charts = [float(eq.chart[0]) for eq in report.equilibria]
        assert np.allclose(charts, [0.3, 0.5, 0.7], atol=1e-9)
        assert [eq.index for eq in report.equilibria] == [1, -1, 1]
        assert report.index_sum == 1
        assert report.finite_flag

    def test_an_error_on_newtons_rows_is_raised(self):
        # The map evaluates cleanly on the 2,001-point scan grid and raises
        # on every other batch of rows, so the solve fails in Newton's phase.
        scan = len(equilibrium._scan_grid(1)[0])
        raised = []

        def fn(C):
            if len(C) != scan:
                raised.append(RuntimeError("not the scan grid"))
                raise raised[-1]
            return 0.5 - C

        with pytest.raises(RuntimeError) as info:
            wk.find_equilibria(wk.chart_field(fn, goods=2))
        assert len(raised) == 1 and info.value is raised[0]

    def test_residuals_reevaluate_below_tolerance(self, rng, as_input):
        for _ in range(10):
            e = random_economy(rng, 2, int(rng.integers(1, 6)))
            report = wk.find_equilibria(as_input(e))
            for eq in report.equilibria:
                z = wk.aed(e, eq.price)
                assert z.norm() <= 1e-9

    def test_determinism(self, asym_edgeworth, as_input):
        r1 = wk.find_equilibria(as_input(asym_edgeworth))
        r2 = wk.find_equilibria(as_input(asym_edgeworth))
        assert len(r1.equilibria) == len(r2.equilibria)
        for a, b in zip(r1.equilibria, r2.equilibria):
            assert np.array_equal(a.chart, b.chart)
            assert a.residual == b.residual
        assert r1.stats == r2.stats

    def test_pairwise_separation(self, rng):
        for _ in range(5):
            e = random_economy(rng, 2, 3)
            report = wk.find_equilibria(wk.economy_field(e))
            charts = [eq.chart for eq in report.equilibria]
            for i in range(len(charts)):
                for j in range(i + 1, len(charts)):
                    assert np.linalg.norm(charts[i] - charts[j]) > DEDUP_RADIUS

    def test_three_goods_unique_equilibrium(self, rng, as_input):
        for _ in range(5):
            e = random_economy(rng, 3, int(rng.integers(1, 5)))
            report = wk.find_equilibria(as_input(e))
            assert len(report.equilibria) == 1
            assert report.equilibria[0].regularity == "regular"
            assert report.index_sum == 1

    def test_solver_stats_accounting(self, sym_edgeworth):
        field = wk.economy_field(sym_edgeworth)
        report = wk.find_equilibria(field)
        s = report.stats
        assert s.starts == len(_scan_starts(field)) and s.deflated == 0
        assert s.converged + s.stalled + s.exhausted == s.starts
        assert s.dedup_merges == s.converged - len(report.equilibria)

    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_every_start_is_counted(self, goods, rng):
        s = wk.find_equilibria(wk.economy_field(random_economy(rng, goods, 3))).stats
        assert s.converged + s.stalled + s.exhausted == s.starts

    def test_start_with_nan_residual_counts_as_stalled(self):
        field = wk.chart_field(lambda C: np.where(C > 0.7, np.nan, 0.5 - C), goods=2)
        starts = _region_points(1, 50)
        _, _, converged, stalled, exhausted, _ = _newton(
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

    def test_the_solver_takes_no_settings(self, sym_edgeworth):
        # The scan grid, the deflation phase and the tolerance (NEWTON_TOL
        # times the field's scale) follow from the field alone.
        field = wk.economy_field(sym_edgeworth)
        with pytest.raises(TypeError):
            wk.find_equilibria(field, 50)
        with pytest.raises(TypeError):
            wk.find_equilibria(field, newton_tol=1e-10)
        assert not hasattr(wk, "SolverConfig")

    @pytest.mark.parametrize(
        "field, message",
        [
            (
                # the continuum scan's 11^8 grid is too large
                _nine_good_field(),
                "continuum scan grid of 11^8 points is too large (limit 250000 points)",
            ),
            (
                wk.chart_field(_refusing_map, goods=2),
                "chart map refuses rows",
            ),
        ],
        ids=["scan_grid_too_large", "chart_map_error"],
    )
    def test_errors_keep_their_type_and_text(self, field, message):
        with pytest.raises(ValueError) as err:
            wk.find_equilibria(field)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_a_four_good_solve_deflates_next_to_its_zero(self):
        # The 13-per-axis scan grid of three chart axes finds the zero, and
        # Newton is deflated next to it, finding no other.
        economy = wk.Economy(
            (
                wk.Consumer([0.1, 0.2, 0.3, 0.4], [1, 0, 0, 0]),
                wk.Consumer([0.4, 0.3, 0.2, 0.1], [0, 1, 1, 1]),
            )
        )
        report = wk.find_equilibria(wk.economy_field(economy))
        (eq,) = report.equilibria
        # With no zero ahead, a deflation row stalls where the shifted
        # factor flattens instead of running to its iteration cap.
        assert report.stats.deflated > 0 and report.stats.exhausted == 0
        assert (eq.regularity, eq.index, report.index_check) == ("regular", 1, "ok")
        assert np.abs(eq.price.coords - nullspace_price(economy)).max() <= 1e-9

    def test_continuum_scan_refuses_a_grid_too_large(self):
        with pytest.raises(ValueError, match="continuum scan grid of 11\\^8 points"):
            wk.continuum_detector(_nine_good_field())


class TestClosedForm:
    """A constant-scale economy with a positive aggregate endowment of every
    good is answered in closed form; its field, and every other input, by
    the grid."""

    @pytest.mark.parametrize("goods", [2, 3, 4, 5, 6])
    def test_the_closed_form_and_the_grid_agree(self, goods, rng):
        for n in range(1, 6):
            economy = constant_scale_economy(rng, goods, n)
            for factor in (1.0, 1e-8, 1e8):
                e = wk.Economy(tuple(wk.Consumer(c.alpha, c.endowment * factor, c.scale) for c in economy.consumers))
                closed, grid = wk.find_equilibria(e), wk.find_equilibria(wk.economy_field(e))
                assert (closed.method, closed.declined) == ("closed form", None)
                assert grid.method == "grid" and grid.stats.starts > 0
                assert closed.stats == equilibrium.SolverStats(0, 0, 0, 0, 0, 0, 0)
                assert not closed.continuum.fired
                assert closed.index_check == grid.index_check == "ok"
                (a,), (b,) = closed.equilibria, grid.equilibria
                assert np.abs(a.price.coords - b.price.coords).max() <= 1e-9
                assert (a.regularity, a.index, a.multiplicity) == (b.regularity, b.index, b.multiplicity)

    @pytest.mark.parametrize(
        "consumers",
        [
            (wk.Consumer([1e-5, 1.0 - 1e-5], [1, 1]),) * 2,
            (wk.Consumer([1e-6, 1.0 - 1e-6], [1, 1]),) * 2,
            (wk.Consumer([1e-6, 0.5, 0.5 - 1e-6], [1, 1, 1]),),
        ],
        ids=["two-consumers-1e-5", "two-consumers-1e-6", "one-consumer-l3"],
    )
    def test_an_equilibrium_near_a_face(self, consumers):
        # The grid's chart region ends BOUNDARY_MARGIN from every face, and
        # it reports no equilibrium of these; the closed form has no margin.
        report = wk.find_equilibria(wk.Economy(consumers))
        alpha, omega = consumers[0].alpha, consumers[0].endowment
        expected = alpha / omega / (alpha / omega).sum()
        (eq,) = report.equilibria
        np.testing.assert_allclose(eq.price.coords, expected, rtol=1e-12, atol=0.0)
        assert (eq.regularity, eq.index, report.index_check) == ("regular", 1, "ok")
        assert report.method == "closed form"

    def test_no_field_is_evaluated(self, monkeypatch, asym_edgeworth):
        calls = []
        chart_values = wk.TangentField.chart_values

        def counted(self, C):
            calls.append(len(C))
            return chart_values(self, C)

        monkeypatch.setattr(wk.TangentField, "chart_values", counted)
        economy = constant_scale_economy(np.random.default_rng(1), 4, 3)
        for e in (asym_edgeworth, economy):
            assert wk.find_equilibria(e).method == "closed form"
        assert calls == []
        wk.find_equilibria(wk.economy_field(asym_edgeworth))
        assert calls

    @pytest.mark.parametrize(
        "economy, declined",
        [
            (multi_equilibrium_economy(2, 0), "the scale of consumer 0 is not constant"),
            (
                wk.Economy((wk.Consumer([0.5, 0.5], [1, 0]), wk.Consumer([0.25, 0.75], [2, 0]))),
                "good 1 has no aggregate endowment",
            ),
        ],
        ids=["varying-scale", "no-endowment"],
    )
    def test_an_economy_it_declines_gets_the_grids_report(self, economy, declined):
        report, grid = wk.find_equilibria(economy), wk.find_equilibria(wk.economy_field(economy))
        assert (report.method, report.declined) == ("grid", declined)
        assert grid.declined == "the input is a field, not an economy"
        _assert_same_report(report, grid)

    def test_a_failed_check_declines(self, monkeypatch, asym_edgeworth):
        # Excess demand off by 1e-6 of the scale at the null vector: the
        # closed form declines, and the grid, which evaluates the economy's
        # own field, answers.
        aed_rows = equilibrium.aed_rows
        monkeypatch.setattr(equilibrium, "aed_rows", lambda e, P: aed_rows(e, P) + 1e-6)
        report = wk.find_equilibria(asym_edgeworth)
        assert report.method == "grid"
        assert report.declined.startswith("the null vector failed its check: point is not a zero")
        (eq,) = report.equilibria
        assert np.abs(eq.price.coords - [0.4, 0.6]).max() <= 1e-12


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
        scan = equilibrium._scan(field)
        report = _field_report(field, _converged(field, C), slice(None), *scan)
        (eq,) = report.equilibria
        assert (eq.regularity, eq.index, eq.multiplicity) == ("critical", 0, order)
        assert report.stats.dedup_merges == 1

    # The offset from 0.5 of the one reported zero of each order before
    # converged rows took only full steps: the start, the PL zero, is one
    # rounding away from it.
    OFFSETS = dict.fromkeys(range(3, 8), 1.1102230246251565e-16)

    @pytest.mark.parametrize("order, fn", DEGENERATE_ZEROS)
    def test_degenerate_zero_is_polished_as_before(self, order, fn):
        (eq,) = wk.find_equilibria(wk.chart_field(fn, goods=2)).equilibria
        assert (eq.regularity, eq.multiplicity) == ("critical", order)
        assert abs(eq.chart[0] - 0.5) <= self.OFFSETS[order]

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_close_zeros_with_a_nonzero_midpoint_stay_apart(self, scale):
        # zeros 5e-5 apart, both regular; the field is -6.25e-10 * scale
        # between them, far above NEWTON_TOL * sigma at either scale.  They
        # lie within one lattice spacing, so a solve may start Newton near
        # one of them only: the report is built from Newton output at both.
        field = wk.chart_field(lambda C: scale * (C - 0.5) * (C - 0.50005), goods=2)
        C = np.array([[0.5], [0.50005]])
        scan = equilibrium._scan(field)
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
            report = wk.find_equilibria(wk.economy_field(e))
            s = report.stats
            assert len(report.equilibria) == 1
            eq = report.equilibria[0]
            assert (eq.regularity, eq.index) == ("regular", 1)
            assert np.abs(eq.price.coords - nullspace_price(e)).max() <= 1e-12
            # Every lattice start converges; no deflation row finds a second zero.
            assert s.converged == s.starts - s.deflated
            # About 11 iterations per start on z at l = 4.  Here a start
            # converges in one step and stops at the next, or is merged;
            # polishing at rounding level adds at most two steps.
            assert s.newton_iterations <= 2 * s.converged + 2 + DEFLATION_MAX_ITER * s.deflated

    @pytest.mark.parametrize("goods", [2, 3, 4, 5])
    def test_the_first_start_is_the_equilibrium(self, goods, rng):
        # p * z is affine in the chart for constant scales, so the zero of
        # its piecewise-linear interpolant, the first start, is the
        # equilibrium before any Newton step.  The zero's cell of the scan
        # grid (11 points per axis at l = 5) is often cut by the face, so
        # twelve economies are drawn for four such checks.
        seen = 0
        for n in range(1, 13):
            e = constant_scale_economy(rng, goods, n, 1.0)
            field, exact = wk.economy_field(e), nullspace_price(e)
            density = equilibrium._scan_grid(field.dim)[1]
            # There is a PL zero unless the zero's cell has a corner off the lattice.
            axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
            corner = ((exact[:-1] - BOUNDARY_MARGIN) // (axis[1] - axis[0])).astype(int)
            if axis[corner + 1].sum() <= 1.0 - BOUNDARY_MARGIN:
                first = _scan_starts(field)[:1]
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
        field = wk.economy_field(sym_edgeworth)
        starts = _region_points(1, 50)
        tol = _tol(field)
        C, res, converged, *_ = _newton(
            lambda C, rows: field.chart_values(C), starts, tol, weighted=True, max_iter=1
        )
        assert 0 < converged.sum() < len(C)
        assert np.allclose(res, field.residual_norms(C), rtol=1e-12, atol=0.0)
        assert np.array_equal(converged, res <= tol)


class TestNewtonMultistart:
    @pytest.mark.parametrize("case", ["weighted-economy", "perturbed-continuum"])
    def test_an_iteration_makes_at_most_2d_plus_2_calls(self, monkeypatch, case, rng):
        # Every point is evaluated with its 2d stencil rows; no call holds
        # stencil rows alone.  The first call holds every start.  A pass
        # then makes one call for the live, interior full steps of its rows
        # and, only when a row that has not converged failed its full step,
        # one more for the live, interior shorter steps of those rows.
        field = _newton_field(case, rng)
        d = field.dim
        calls, passes = [], []
        step = equilibrium._damped_step

        def spy(C, rows):
            calls.append(C.copy())
            return field.chart_values(C)

        def step_spy(evaluate, rows, state, converged, halvings):
            C, G, res, _, J = (a[rows].copy() for a in state)
            T = C[:, None, :] - equilibrium._STEP_SIZES[:, None] * equilibrium._newton_direction(J, G)[:, None, :]
            ask = np.logical_and.accumulate((T != C[:, None, :]).any(axis=2), axis=1) & equilibrium._interior(T)
            residuals = []

            def seen(X, r):
                out = evaluate(X, r)
                residuals.append(np.linalg.norm(out[0][:: 1 + 2 * d], axis=1))
                return out

            before = len(calls)
            took = step(seen, rows, state, converged, halvings)
            full = ask[:, 0]
            accepted = np.zeros(len(rows), dtype=bool)
            if full.any():
                accepted[full] = residuals[0] <= 0.5 * res[full]
            i, j = np.nonzero(ask[:, 1:] & ~(accepted | converged)[:, None])
            expected = [X for X in (T[full, 0], T[i, j + 1]) if len(X)]
            made = calls[before:]
            assert len(made) == len(expected)
            for X, points in zip(made, expected):
                assert np.array_equal(X, _with_stencils(points))
            passes.append((len(made), i.size, converged.all(), len(took)))
            return took

        monkeypatch.setattr(equilibrium, "_damped_step", step_spy)
        starts = _region_points(d, 50)
        converged, *_, iterations = _newton(spy, starts, _tol(field), field.price_weighted)[2:]
        assert converged.any()
        assert np.array_equal(calls[0], _with_stencils(starts))
        # Every pass of the loop advances the row with the most iterations.
        assert len(passes) == int(iterations.max())
        # The perturbed continuum's rows backtrack, in a second call; the
        # weighted economy's take full steps only.
        assert any(shorter for _, shorter, *_ in passes) == (case == "perturbed-continuum")
        polish = 0
        for made, shorter, polishing, took in passes:
            # A call for the full steps is made whenever some row accepts one.
            assert made <= 2 and (made >= 1 or not took)
            # Here every row converged by a full step, so a pass of converged
            # rows makes the full-step call only.
            if polishing:
                polish += 1
                assert made == 1 and not shorter
        assert polish > 0
        assert len(calls) == 1 + sum(made for made, *_ in passes)

    @pytest.mark.parametrize("case", ["perturbed-economy", "perturbed-continuum"])
    def test_every_step_keeps_the_jacobian_of_its_point(self, monkeypatch, case, rng):
        # A row that took a shorter step, like one that took the full step,
        # starts its next step from the Jacobian that a stencil call of its
        # own at its new point gives, to the bit.
        field = _newton_field(case, rng)
        d = field.dim
        step = equilibrium._damped_step
        shorter = []

        def step_spy(evaluate, rows, state, converged, halvings):
            C, G, J = state[0][rows].copy(), state[1][rows], state[4][rows]
            full = C - equilibrium._newton_direction(J, G)
            took = step(evaluate, rows, state, converged, halvings)
            at = state[0][took]
            shorter.append(np.count_nonzero((at != full[np.isin(rows, took)]).any(axis=1)))
            W, _ = evaluate(equilibrium._stencil(at)[1].reshape(-1, d), np.repeat(took, 2 * d))
            assert np.array_equal(state[4][took], equilibrium._jacobians(W.reshape(len(took), 2 * d, d + 1)))
            return took

        monkeypatch.setattr(equilibrium, "_damped_step", step_spy)
        starts = _region_points(d, 50)
        _newton(lambda C, rows: field.chart_values(C), starts, _tol(field), field.price_weighted)
        assert sum(shorter) > 0

    @pytest.mark.parametrize(
        "order, fn",
        DEGENERATE_ZEROS + [(None, None)],
        ids=[f"order-{order}" for order, _ in DEGENERATE_ZEROS] + ["economy-l4"],
    )
    def test_merged_rows_have_converged(self, monkeypatch, order, fn, rng):
        if fn is None:
            field = wk.economy_field(constant_scale_economy(rng, 4, 3))
        else:
            field = wk.chart_field(fn, goods=2)
        starts = _region_points(field.dim, 50)
        merged = np.zeros(len(starts), dtype=bool)
        merge = equilibrium._merge_converged

        def spy(C, zres, active, tol, labels):
            before = active.copy()
            merge(C, zres, active, tol, labels)
            merged[before & ~active] = True

        monkeypatch.setattr(equilibrium, "_merge_converged", spy)
        converged = _newton(lambda C, rows: field.chart_values(C), starts, _tol(field), field.price_weighted)[2]
        # Around the order-7 zero, rows creep toward it at one rate and
        # never come within the merge radius of each other.
        assert merged.any() == (order != 7)
        assert converged[merged].all()

    @pytest.mark.parametrize(
        "case", ["weighted-economy", "perturbed-economy", "perturbed-continuum", "order-3"]
    )
    def test_one_call_per_ladder_matches_one_call_per_step_size(self, monkeypatch, case, rng):
        if case == "order-3":
            field = wk.chart_field(DEGENERATE_ZEROS[0][1], goods=2)
        else:
            field = _newton_field(case, rng)
        starts = _region_points(field.dim, 50)
        tol = _tol(field)

        def run():
            calls = []

            def counted(C, rows):
                calls.append(len(C))
                return field.chart_values(C)

            return _newton(counted, starts, tol, field.price_weighted), calls

        (fast, fast_calls) = run()
        monkeypatch.setattr(equilibrium, "_damped_step", _one_call_per_step_size)
        (slow, slow_calls) = run()
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)
        assert len(fast_calls) < len(slow_calls)

    def test_a_chunk_whose_terms_have_no_stack_matches_a_stencil_call_per_pass(self, monkeypatch):
        # The per-field path of _term_rows reads each field's block of rows,
        # so every call of the chunk's phases keeps its rows sorted.
        base = wk.chart_field(np.zeros_like, goods=2)
        phase = equilibrium._newton_multistart

        def run():
            phases = []

            def spy(*args):
                phases.append(phase(*args))
                return phases[-1]

            monkeypatch.setattr(equilibrium, "_newton_multistart", spy)
            return equilibrium._solve(base, TestChunkReports.JOINED), phases

        fused, fused_phases = run()
        monkeypatch.setattr(equilibrium, "_damped_step", _one_call_per_step_size)
        reference, reference_phases = run()
        assert len(fused_phases) == len(reference_phases) > 0
        for a, b in zip(fused_phases, reference_phases):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(fused, reference):
            _assert_same_report(a, b)

    @pytest.mark.parametrize("case", ["multi-l3-seed0", "perturbed-continuum"])
    def test_a_converged_row_takes_only_full_steps(self, monkeypatch, case, rng):
        # A weighted three-good economy with three zeros, and a field whose
        # rows backtrack on the way to its zeros.
        if case == "multi-l3-seed0":
            field = wk.economy_field(multi_equilibrium_economy(3, 0))
        else:
            field = _newton_field(case, rng)
        tol = _tol(field)
        direction, step = equilibrium._newton_direction, equilibrium._damped_step
        deltas, steps = [], []

        def direction_spy(*args):
            deltas.append(direction(*args))
            return deltas[-1]

        def step_spy(evaluate, rows, state, converged, halvings):
            before = state[0][rows], state[3][rows]
            took = step(evaluate, rows, state, converged, halvings)
            steps.append((rows, *before, state[0][rows], np.isin(rows, took), deltas[-1], converged))
            return took

        monkeypatch.setattr(equilibrium, "_newton_direction", direction_spy)
        monkeypatch.setattr(equilibrium, "_damped_step", step_spy)
        starts = _region_points(field.dim, 50)
        _newton(lambda C, rows: field.chart_values(C), starts, tol, field.price_weighted)
        full, damped = [], []
        for rows, C, zres, after, took, delta, converged in steps:
            assert np.array_equal(converged, zres <= tol)
            whole = (after == C - delta).all(axis=1)
            full.append(took & converged & whole)
            damped.append(took & ~whole)
            # No converged row accepts a step shorter than the full one.
            assert not (took & converged & ~whole).any()
        # Converged rows polish, and the spy sees the rows that backtrack.
        assert np.concatenate(full).any() and np.concatenate(damped).any()

    def test_zero_jacobian_stalls_every_start_after_one_iteration(self):
        calls = []

        def constant(C, rows):
            calls.append(len(C))
            return np.full_like(C, 0.25)

        starts = _region_points(2, 50)
        _, _, converged, stalled, exhausted, iterations = _newton(constant, starts, NEWTON_TOL)
        assert stalled.all() and not converged.any() and not exhausted.any()
        assert (iterations == 1).all()
        # one call for the starts, each with its four stencil rows; no zero
        # step is tried
        assert calls == [(1 + 4) * len(starts)]


class TestKnownEquilibria:
    """Economies with three known equilibria at l = 3 and 4."""

    @pytest.mark.parametrize("goods", [3, 4])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_equilibrium_is_found(self, goods, seed):
        economy = multi_equilibrium_economy(goods, seed)
        exact = scale_path_equilibria(economy)
        assert len(exact) == 3
        report = wk.find_equilibria(economy)
        found = np.array([eq.price.coords for eq in report.equilibria])
        assert found.shape == exact.shape
        assert np.abs(np.sort(found[:, 0]) - np.sort(exact[:, 0])).max() <= 1e-8
        # Several of these zeros are regular but reported critical, since the
        # determinant rule judges J against the field's global scale; a
        # report whose zeros are all regular sums to +1.
        assert report.index_check in ("ok", "n/a")

    def test_the_refused_arena_seeds_are_those_whose_scale_is_negative(self):
        # Consumer 0's scale is a0 + a1 c_1 + a2 c_1^2, and c_1 covers (0, 1)
        # on the open simplex: the scale is negative there iff it is at
        # c_1 = 0, at c_1 = 1, or at its vertex when the vertex lies in (0, 1).
        def negative(goods, seed):
            terms = multi_equilibrium_economy(goods, seed).consumers[0].scale.terms
            assert [powers for _, powers in terms] == [(j,) + (0,) * (goods - 2) for j in range(3)]
            (a0, a1, a2) = (coeff for coeff, _ in terms)
            values = [a0, a0 + a1 + a2]
            if a2 != 0.0 and 0.0 < -a1 / (2.0 * a2) < 1.0:
                values.append(a0 - a1**2 / (4.0 * a2))
            return min(values) < 0.0

        assert {g: tuple(k for k in seeds if negative(g, k)) for g, seeds in ARENA.items()} == ARENA_REFUSED
        message = "scale must be strictly positive at every evaluated price"
        for goods, seeds in ARENA_REFUSED.items():
            for seed in seeds:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    wk.find_equilibria(multi_equilibrium_economy(goods, seed))

    # Two of its zeros, 0.39994 and 0.40006, lie within 1.2e-4 of a fold; the
    # lattice does not separate them, and the solve reports the second and
    # 0.7 only (ROADMAP item 24, deflation).
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 24")
    def test_a_pair_near_a_fold_is_found(self):
        cubic = [-1.0, 0.0, 0.03, 0.002 - 1e-9]
        field = wk.chart_field(lambda C: np.polyval(cubic, C - 0.5), goods=2)
        exact = np.sort(np.roots(cubic).real) + 0.5
        report = wk.find_equilibria(field)
        found = np.sort([eq.chart[0] for eq in report.equilibria])
        assert found.shape == exact.shape
        assert np.abs(found - exact).max() <= 1e-6
        assert report.index_check == "ok"

    def test_the_oracle_roots_are_equilibria(self):
        for goods, seed in ((3, 2), (4, 1)):
            economy = multi_equilibrium_economy(goods, seed)
            P = scale_path_equilibria(economy)
            assert np.abs(wk.consumers.aed_rows(economy, P)).max() <= 1e-12
        # The three zeros at l = 4 seed 1, to five digits.
        assert np.round(P[:, 0], 5).tolist() == [0.28151, 0.29446, 0.3076]


class TestManyGoods:
    """Default solves at five and six goods, against the null-space price."""

    # Two consumers of six goods, the second endowed with three goods only.
    SIX = wk.Economy(
        (
            wk.Consumer([0.1, 0.1, 0.1, 0.2, 0.2, 0.3], [1, 1, 1, 1, 1, 1]),
            wk.Consumer([0.3, 0.2, 0.2, 0.1, 0.1, 0.1], [2, 0, 1, 0, 1, 0]),
        )
    )

    @pytest.mark.parametrize("goods, n", [(5, 2), (5, 4), (6, 2), (6, 3), (6, None)])
    def test_constant_scale_economies(self, goods, n, rng):
        economy = constant_scale_economy(rng, goods, n) if n else self.SIX
        report = wk.find_equilibria(wk.economy_field(economy))
        (eq,) = report.equilibria
        assert np.abs(eq.price.coords - nullspace_price(economy)).max() <= 1e-9
        assert report.finite_flag
        assert report.index_check == "ok"


def _face_economy(scale=None):
    """A four-good constant-scale economy whose equilibrium has ``p_4``
    about 0.03, so its chart point lies within one scan-grid spacing of the
    face ``sum(c) = 1 - BOUNDARY_MARGIN``; with ``scale``, consumer 1 gets
    ``1 + scale * (c_1 - p_1)``, which keeps that equilibrium."""
    alphas = ([0.319, 0.419, 0.218, 0.044], [0.418, 0.333, 0.217, 0.032])
    endowments = ([1.512, 1.434, 1.4, 2.906], [1.276, 0.452, 1.421, 0.523])
    consumers = [wk.Consumer(a, w) for a, w in zip(alphas, endowments)]
    economy = wk.Economy(tuple(consumers))
    p = nullspace_price(economy)
    if scale is not None:
        poly = wk.PolynomialScale(((1.0 - scale * p[0], (0, 0, 0)), (scale, (1, 0, 0))))
        economy = wk.Economy((wk.Consumer(alphas[0], endowments[0], poly), consumers[1]))
    return economy, p


class TestSlantedFace:
    """Zeros close to the face ``sum(c) = 1 - BOUNDARY_MARGIN``, which cuts
    the scan-grid cells around them."""

    @pytest.mark.parametrize("scale", [None, 0.9, -0.9], ids=["constant", "poly+", "poly-"])
    def test_zero_at_a_small_last_price(self, scale):
        economy, p = _face_economy(scale)
        assert 0.025 <= p[3] <= 0.035
        report = wk.find_equilibria(wk.economy_field(economy))
        assert min(np.abs(eq.price.coords - p).max() for eq in report.equilibria) <= 1e-9
        if scale is None:
            (eq,) = report.equilibria
            assert (eq.regularity, eq.index) == ("regular", 1)

    def test_a_cut_cell_is_screened_on_the_corners_it_has(self):
        # One 2-d cell whose corner (1, 1) lies beyond the face (row -1).
        vertex = np.array([[[0, 1], [2, -1]]])
        G = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [np.nan, np.nan]])
        assert equilibrium._sign_screen(G, vertex).tolist() == [[[True]]]
        assert equilibrium._sign_screen(np.abs(G), vertex).tolist() == [[[False]]]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_screen_matches_a_loop_over_cells(self, d, rng):
        G = rng.normal(size=(40, d))
        G[rng.random(G.shape) < 0.1] = 0.0
        G[rng.random(40) < 0.2] = np.nan
        vertex = rng.integers(-1, 39, size=(3,) + (4,) * d)
        screen = equilibrium._sign_screen(np.vstack([G[:39], np.full(d, np.nan)]), vertex)
        for q, *k in np.ndindex(screen.shape):
            corners = [vertex[(q, *np.add(k, b))] for b in np.ndindex((2,) * d)]
            values = np.array([G[r] for r in corners if r >= 0 and not np.isnan(G[r]).any()]).reshape(-1, d)
            both = (values >= 0).any(axis=0) & (values <= 0).any(axis=0)
            assert screen[(q, *k)] == both.all()


class TestScanGridZeros:
    """Zeros on and between scan-grid points, the face vertex of a two-good
    scan grid among them, with and without deflation."""

    def test_two_good_face_zero_above_the_scan_density(self):
        # 0.99988 lies in the last cell of the scan grid, whose right end
        # 0.9999 is on the face sum(c) = 1 - BOUNDARY_MARGIN.
        field = wk.chart_field(lambda C: 0.99988 - C, goods=2)
        assert np.abs(_scan_starts(field)[:, 0] - 0.99988).min() <= 1e-12
        (eq,) = wk.find_equilibria(field).equilibria
        assert abs(eq.chart[0] - 0.99988) <= 1e-12
        # An economy whose equilibrium lies in that last cell, found by the
        # scan grid's starts alone: two goods are never deflated.
        economy = wk.Economy((wk.Consumer([0.9995, 0.0005], [0, 1]), wk.Consumer([0.5, 0.5], [0.001, 0])))
        report = wk.find_equilibria(wk.economy_field(economy))
        assert (report.index_check, report.stats.deflated) == ("ok", 0)
        assert len(report.equilibria) >= 1

    @pytest.mark.parametrize("fraction", [0.5, 1.0 / 3.0], ids=["half", "third"])
    def test_a_zero_between_scan_grid_points_of_two_goods(self, fraction):
        # Half or a third of a scan spacing past a scan-grid point.
        x = equilibrium._axis(2001)[300] + fraction * equilibrium._spacing(2001)
        economy = wk.Economy((wk.Consumer([0.5, 0.5], [1.0 - x, x]),))
        report = wk.find_equilibria(wk.economy_field(economy))
        (eq,) = report.equilibria
        assert abs(eq.chart[0] - x) <= 1e-12
        assert (eq.regularity, report.index_check) == ("regular", "ok")

    @pytest.mark.parametrize("goods", [3, 4])
    def test_a_zero_between_scan_grid_points(self, goods):
        per_dim = equilibrium._scan_grid(goods - 1)[1]
        # A third of a scan spacing past the scan-grid point nearest
        # (0.2, 0.3, 0.25) along every axis.
        K = np.rint(np.array([0.2, 0.3, 0.25])[: goods - 1] * (per_dim - 1)).astype(int)
        c = equilibrium._axis(per_dim)[K] + equilibrium._spacing(per_dim) / 3.0
        p = np.append(c, 1.0 - c.sum())
        alpha = np.linspace(1.0, 2.0, goods) / np.linspace(1.0, 2.0, goods).sum()
        # One consumer: the equilibrium is alpha / endowment, normalised.
        report = wk.find_equilibria(wk.economy_field(wk.Economy((wk.Consumer(alpha, alpha / p),))))
        (eq,) = report.equilibria
        assert np.abs(eq.chart - c).max() <= 1e-12
        assert (eq.regularity, report.index_check) == ("regular", "ok")

    def test_a_degenerate_zero_is_reported_once_within_its_band(self):
        # Its hits, |z| <= 1e-9 sigma, reach about 8e-4 from z, over many
        # scan-grid points, and deflation next to it adds no zero.
        z = np.array([0.2, 0.3, 0.25])
        field = wk.chart_field(lambda C: -((C - z) ** 3), goods=4)
        (eq,) = wk.find_equilibria(field).equilibria
        band = (NEWTON_TOL * equilibrium._scan(field)[0]) ** (1.0 / 3.0)
        assert np.abs(eq.chart - z).max() <= band
        assert eq.regularity == "critical"

    @pytest.mark.parametrize(
        "goods, fn",
        [
            (4, lambda C: -((C - [0.2, 0.3, 0.25]) ** 3)),
            (3, lambda C: np.column_stack([-((C[:, 0] - 0.2) ** 5), -((C[:, 1] - 0.2) ** 3)])),
        ],
        ids=["order-3-l4", "orders-5-3-l3"],
    )
    def test_deflation_adds_no_zero_next_to_a_degenerate_one(self, monkeypatch, goods, fn):
        # Every point within about (1e-11 sigma)^(1/k) of a zero of order k,
        # along that axis, meets the Newton tolerance, and the factor does
        # not repel Newton from it: deflation rows that converge there have
        # come back to it.  No deflation round is the plain solve.
        field = wk.chart_field(fn, goods=goods)
        report = wk.find_equilibria(field)
        monkeypatch.setattr(equilibrium, "DEFLATION_ROUNDS", 0)
        plain = wk.find_equilibria(field)
        assert plain.stats.deflated == 0 < report.stats.deflated
        assert [eq.chart.tolist() for eq in report.equilibria] == [eq.chart.tolist() for eq in plain.equilibria]
        assert all(eq.regularity == "critical" for eq in report.equilibria)

    def test_a_zero_inside_a_shared_simplex_face_is_reported_once(self):
        # c0 = c1 is the face shared by the two Freudenthal simplices of a
        # cell, so both hold the zero and Newton merges their starts.
        spacing = equilibrium._spacing(45)
        mid = equilibrium._axis(45)[14] + 0.5 * spacing
        field = wk.chart_field(lambda C: np.column_stack([C[:, 1] - C[:, 0], 2 * mid - C.sum(axis=1)]), goods=3)
        report = wk.find_equilibria(field)
        (eq,) = report.equilibria
        assert np.abs(eq.chart - mid).max() <= 1e-12
        assert eq.regularity == "regular"
        assert report.stats.dedup_merges == report.stats.converged - 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_the_scan_grid_is_c_ordered(self, dim):
        # A chart map can round differently on a Fortran-ordered array of the
        # same points, and every sigma, hit and scan-grid start follows it.
        assert equilibrium._scan_grid(dim)[0].flags.c_contiguous


def _reference_region_rows(dim, density):
    """The row of each point of the lattice of ``density`` points per axis
    among its points in the chart region, in index order, and -1 for a point
    outside."""
    inside = equilibrium._interior(equilibrium._axis(density)[np.indices((density,) * dim).reshape(dim, -1).T])
    return np.where(inside, np.cumsum(inside) - 1, -1).reshape((density,) * dim)


# The scan density of each dimension, then 50 and 120 points per axis where
# the reference's whole lattice stays under two million points.
LAYOUT_CASES = [(dim, None) for dim in range(1, 6)] + [(dim, k) for k in (50, 120) for dim in (1, 2, 3)]


class TestScanLevel:
    @pytest.mark.parametrize(
        "dim, density", LAYOUT_CASES, ids=[f"l{dim + 1}-{k or 'scan'}" for dim, k in LAYOUT_CASES]
    )
    def test_the_scan_level_is_the_reference_lattice(self, dim, density):
        density = density or equilibrium._scan_grid(dim)[1]
        rows = _reference_region_rows(dim, density)
        # Uncached: the session keeps no 120^3 lattice.
        C, n, vertex = equilibrium._scan_level.__wrapped__(dim, density)
        assert n == density
        assert np.array_equal(vertex, rows)
        assert np.array_equal(C, equilibrium._axis(density)[np.argwhere(rows >= 0)])


class TestDeflation:
    """From three goods on, Newton runs again next to every zero found, on
    a map that repels it from them."""

    def test_the_factor_multiplies_each_rows_own_fields_zeros(self):
        R = np.array([[0.2, 0.3], [0.5, 0.1], [0.3, 0.3]])
        factor = equilibrium._deflation(R, np.array([1, 0, 1]))
        C = np.array([[0.25, 0.3], [0.4, 0.2], [0.3, 0.25]])
        fields = np.array([0, 1, 1])
        a = equilibrium.DEFLATION_SHIFT
        expected = [
            1.0 / ((C[0] - R[1]) ** 2).sum() + a,
            (1.0 / ((C[1] - R[0]) ** 2).sum() + a) * (1.0 / ((C[1] - R[2]) ** 2).sum() + a),
            (1.0 / ((C[2] - R[0]) ** 2).sum() + a) * (1.0 / ((C[2] - R[2]) ** 2).sum() + a),
        ]
        assert np.array_equal(factor(C, fields), expected)
        # A row gets the same bits alone as in any batch.
        for k in range(len(C)):
            assert factor(C[k : k + 1], fields[k : k + 1])[0] == expected[k]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_starts_are_small_offsets_inside_the_region(self, d):
        R = np.vstack([np.full(d, 0.2), np.full(d, 1e-3)])
        X, of = equilibrium._deflation_starts(R, np.array([0, 3]))
        directions = 2 * d + (2 if d > 1 else 0)
        assert np.count_nonzero(of == 0) == 2 * directions
        assert of.tolist() == sorted(of.tolist()) and equilibrium._interior(X).all()
        steps = np.linalg.norm(X - R[of // 3], axis=1)
        assert np.allclose(np.sort(np.unique(steps.round(12))), equilibrium.DEFLATION_STEPS)

    def test_a_fired_continuum_detector_is_not_deflated(self):
        # The line c0 = c1 passes through scan-grid points, so the detector
        # fires, at three goods, where every other field is deflated.
        line = wk.chart_field(lambda C: (C[:, :1] - C[:, 1:]) * [1.0, 2.0], goods=3)
        report = wk.find_equilibria(line)
        assert report.continuum.fired and report.stats.deflated == 0
        assert wk.find_equilibria(wk.economy_field(multi_equilibrium_economy(3, 0))).stats.deflated > 0

    def test_only_rows_in_the_degenerate_band_can_come_back(self, monkeypatch):
        # A converged deflation row is held to be its nearest known zero
        # only within DEGENERATE_BAND of it, by the flat-zero join's rule:
        # a genuine zero farther off is kept whatever its midpoint with a
        # known zero is.  The quintic's rows come back; l = 3 seed 46's
        # deflation finds two zeros.
        pairs = []
        one_flat_zero = equilibrium._one_flat_zero

        def spy(residuals, A, B, tol):
            pairs.append(np.linalg.norm(A - B, axis=1))
            return one_flat_zero(residuals, A, B, tol)

        monkeypatch.setattr(equilibrium, "_one_flat_zero", spy)
        quintic = wk.chart_field(lambda C: np.column_stack([-((C[:, 0] - 0.2) ** 5), -((C[:, 1] - 0.2) ** 3)]), goods=3)
        assert wk.find_equilibria(quintic).stats.deflated > 0 and pairs
        report = wk.find_equilibria(multi_equilibrium_economy(3, 46))
        assert len(report.equilibria) == 3
        distances = np.concatenate(pairs)
        assert distances.max() <= equilibrium.DEGENERATE_BAND

    @pytest.mark.parametrize("goods, seed", [(3, 46), (3, 64), (4, 22), (4, 65)])
    def test_no_deflation_row_converges_on_a_known_zero(self, monkeypatch, goods, seed):
        # Economies whose scan grid hides two of their three zeros: every row
        # of a deflation round that converges lies beyond DEDUP_RADIUS of the
        # zeros its round deflates.
        known, rows = [], []
        deflation, newton = equilibrium._deflation, equilibrium._newton_multistart

        def deflation_spy(R, of):
            known.append(R.copy())
            return deflation(R, of)

        def newton_spy(*args, **caps):
            out = newton(*args, **caps)
            if caps:
                rows.append(out[0][out[2]].copy())
            return out

        monkeypatch.setattr(equilibrium, "_deflation", deflation_spy)
        monkeypatch.setattr(equilibrium, "_newton_multistart", newton_spy)
        economy = multi_equilibrium_economy(goods, seed)
        report = wk.find_equilibria(economy)
        assert len(rows) == len(known) >= 2 and sum(map(len, rows)) > 0
        for R, X in zip(known, rows):
            assert np.linalg.norm(X[:, None, :] - R, axis=2).min(initial=np.inf) > DEDUP_RADIUS
        exact = scale_path_equilibria(economy)
        found = np.array([eq.price.coords for eq in report.equilibria])
        assert found.shape == exact.shape
        assert np.abs(np.sort(found[:, 0]) - np.sort(exact[:, 0])).max() <= 1e-8


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
            found = np.sort([float(eq.chart[0]) for eq in wk.find_equilibria(field).equilibria])
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
    def test_certifies_regular_reports(self, sym_edgeworth, asym_edgeworth, as_input):
        for e in (sym_edgeworth, asym_edgeworth):
            assert wk.find_equilibria(as_input(e)).index_check == "ok"
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

    def test_random_inward_fields_sum_to_one(self, rng, as_input):
        for goods in (2, 3):
            for _ in range(10):
                e = random_economy(rng, goods, int(rng.integers(2, 6)))
                report = wk.find_equilibria(as_input(e))
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

    def test_multiplicity_one_iff_regular(self, rng, as_input):
        for _ in range(10):
            e = random_economy(rng, 2, int(rng.integers(1, 5)))
            for eq in wk.find_equilibria(as_input(e)).equilibria:
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


def _zero_on(C, hit):
    """A chart field that is zero on the rows ``C[hit]`` and one elsewhere."""
    zeros = {tuple(c) for c in C[hit]}
    return wk.chart_field(
        lambda X: np.array([[0.0 if tuple(x) in zeros else 1.0] * X.shape[1] for x in X]), goods=C.shape[1] + 1
    )


def _scan_clusters(field):
    """The hits of ``field`` on its scan grid, their clusters and its
    ``ContinuumReport``, from the scan stage of a one-field solve."""
    evaluate = equilibrium._stacked_map(field, [None])
    _, _, hit, clusters, (report,) = equilibrium._scan_stage(evaluate, equilibrium._base_grid(field), 1)
    return hit, clusters, report


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
        # the kept one, so it claims itself.
        r = DEDUP_RADIUS
        C = np.array([[0.0], [0.8 * r], [1.6 * r]])
        owner = _cover(C, np.array([1e-14, 2e-14, 3e-14]), np.zeros(3, dtype=int), np.arange(3))
        assert owner.tolist() == [0, 0, 2]

    def test_dedup_matches_pairwise_loop(self, rng):
        # Three fields stacked on the same points, each with its own
        # residuals; the cover sees a subset of their rows.
        for dim in (1, 2, 3):
            centres = rng.uniform(0.1, 0.3, (5, dim))
            C = centres[rng.integers(0, 5, 200)] + rng.normal(0.0, 0.4, (200, dim)) * DEDUP_RADIUS
            C, labels = np.tile(C, (3, 1)), np.repeat(np.arange(3), 200)
            res = rng.choice([0.0, 1e-13, 2e-13], 600)
            rows = np.flatnonzero(rng.random(600) < 0.8)
            owner = _cover(C, res, labels, rows)
            assert np.isin(owner, rows).all()
            assert np.array_equal(labels[owner], labels[rows])
            for f in range(3):
                mine = rows[labels[rows] == f]
                kept = sorted(mine[owner[labels[rows] == f] == mine], key=lambda k: tuple(C[k]))
                loop, merges = _loop_dedup(C[mine], res[mine], DEDUP_RADIUS)
                assert kept == mine[loop].tolist()
                assert merges == len(mine) - len(kept)

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

    def test_grid_cluster_is_the_largest_flood_fill_cluster(self, rng, monkeypatch):
        # Every largest cluster fires, so the witness box shows which one the
        # scan stage chose.
        monkeypatch.setattr(equilibrium, "CONTINUUM_RUN_REQUIRED", 1)
        for dim in (2, 3):
            monkeypatch.setattr(equilibrium, "CONTINUUM_SCAN_POINTS", 12**dim)
            assert equilibrium._scan_grid(dim)[1] == 12
            C = _region_points(dim, 12)
            spacing = (1.0 - 2e-4) / 11
            for _ in range(20):
                hit = rng.random(len(C)) < 0.3
                got, clusters, report = _scan_clusters(_zero_on(C, hit))
                assert np.array_equal(got, hit)
                want = _flood_fill_clusters(C, hit, 1.5 * spacing)
                # The clusters are the flood fill's, numbered by their lowest index.
                assert [np.flatnonzero(hit)[clusters == k].tolist() for k in range(len(want))] == sorted(want)
                assert clusters.max() == len(want) - 1
                largest = max(len(c) for c in want)
                # ties go to the cluster holding the lowest index
                box = C[min(c for c in want if len(c) == largest)]
                assert report.fired and report.points_hit == hit.sum()
                assert np.array_equal(report.interval[0], box.min(axis=0))
                assert np.array_equal(report.interval[1], box.max(axis=0))
        report = _scan_clusters(_zero_on(C, np.zeros(len(C), dtype=bool)))[2]
        assert report == wk.ContinuumReport(False, None, 0)


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
    """Every field the rows core is held to."""
    out = []
    for goods in (2, 3, 4):
        for _ in range(2):
            e = random_economy(rng, goods, 3)
            for factor in (1.0, 1e6):
                out.append(wk.economy_field(_scaled(e, factor)))
    base = wk.build_continuum_economy((0.4, 0.6), grid=201)
    bases = (("linear_tilt", 1e-3), ("polynomial", 1e-2), ("random_fourier", 1e-3), ("random_fourier", 1e-4))
    for basis, eps in bases:
        for seed in (3, 4):
            spec = wk.PerturbationSpec(eps, basis=basis, seed=seed)
            out.append(wk.perturb(base, spec))
    return out + _synthetic_fields()


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
            G = equilibrium._probe(*equilibrium._one_point(field, c), window)[3]
            assert np.array_equal(G[0, :, 0], ref.window)
        if eq is not None:
            assert (eq.regularity, eq.index) == (ref.regularity, ref.index)
            assert eq.multiplicity == ref.multiplicity
            assert abs(eq.residual - ref.residual) <= tol

    def test_matches_the_per_zero_path(self, rng):
        seen = 0
        for field in _reference_fields(rng):
            report = wk.find_equilibria(field)
            # Off the zeros by 1e-12: at x1e6 a residual above 1e-9 that still
            # passes the not-a-zero test, relative to the field's size.
            C = np.array([eq.chart + 1e-12 for eq in report.equilibria])
            n = len(C)
            mask = np.ones(n, dtype=bool)
            newton = (C, np.zeros(n), mask, ~mask, ~mask, np.zeros(n, dtype=np.int64))
            shifted = _field_report(field, newton, slice(None), *equilibrium._scan(field))
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
        sigma = equilibrium._scan(field)[0]
        evaluate = equilibrium._stacked_map(field, [None])
        residual = equilibrium._classification(evaluate, C, np.zeros(3, dtype=int), sigma)[0]
        with pytest.raises(ValueError, match=r"not a zero of the field \(residual 1\.414e-03\)"):
            equilibrium._check_zeros(residual, sigma)

    def test_report_evaluates_the_field_once(self):
        for fn, n_zeros in ((lambda C: 0.5 - C, 1), (lambda C: -(C - 0.3) * (C - 0.5) * (C - 0.7), 3)):
            calls = []

            def counted(C, fn=fn):
                calls.append(len(C))
                return fn(C)

            field = wk.chart_field(counted, goods=2)
            sigma, continuum = equilibrium._scan(field)
            starts = _region_points(1, 50)
            newton = _newton(lambda C, rows: field.chart_values(C), starts, NEWTON_TOL * sigma)
            calls.clear()
            report = _field_report(field, newton, slice(None), sigma, continuum)
            assert len(report.equilibria) == n_zeros
            # one probe evaluation for all zeros
            assert len(calls) == 1


class TestChunkReports:
    """The report step of a chunk of fields against each field's own."""

    def test_a_field_that_fails_the_residual_check_keeps_its_error_alone(self):
        # Field 1's third row is 1e-3 off its zero, far above 1e-9 sigma.
        # The chunk raises field 1's error; _solve then solves each field of
        # it alone, and the others' one-field reports are the ones a chunk
        # without field 1 gives.
        maps = [lambda C: 0.5 - C, lambda C: (C - 0.3) * (C - 0.7), lambda C: 0.6 - C]
        base = wk.chart_field(np.zeros_like, goods=2)
        fields = [wk.chart_field(fn, goods=2) for fn in maps]
        C = np.array([[0.5], [0.3], [0.701], [0.7], [0.6]])
        labels = np.array([0, 1, 1, 1, 2])
        mask = np.ones(len(C), dtype=bool)
        newton = (C, np.zeros(len(C)), mask, ~mask, ~mask, np.zeros(len(C), dtype=np.int64))
        scans = [equilibrium._scan(field) for field in fields]
        sigmas = np.array([sigma for sigma, _ in scans])
        continua = [c for _, c in scans]
        message = "point is not a zero of the field (residual 1.022e-03)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            equilibrium._reports(equilibrium._stacked_map(base, maps), newton, labels, ~mask, sigmas, continua)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _field_report(fields[1], newton, labels == 1, sigmas[1], scans[1][1])
        others = labels != 1
        without = tuple(a[others] for a in newton)
        evaluate = equilibrium._stacked_map(base, [maps[0], maps[2]])
        reports = equilibrium._reports(evaluate, without, labels[others] // 2, ~mask[others], sigmas[[0, 2]], continua[::2])
        for t, report in zip((0, 2), reports):
            alone = _field_report(fields[t], newton, labels == t, sigmas[t], scans[t][1])
            assert (report.stats, report.continuum) == (alone.stats, alone.continuum)
            (a,), (b,) = report.equilibria, alone.equilibria
            assert np.array_equal(a.chart, b.chart)
            for name in ("residual", "regularity", "index", "multiplicity"):
                assert getattr(a, name) == getattr(b, name)

    # A regular field and one with a degenerate zero at 0.5, added as terms
    # to a zero base so that each stacked field is exactly its own.
    JOINED = [lambda C: 0.6 - C, DEGENERATE_ZEROS[0][1]]

    def test_a_chunk_with_a_degenerate_zero_gets_each_fields_solve(self):
        base = wk.chart_field(np.zeros_like, goods=2)
        reports = equilibrium._solve(base, self.JOINED)
        for report, fn in zip(reports, self.JOINED):
            _assert_same_report(report, wk.find_equilibria(wk.chart_field(fn, goods=2)))

    def test_the_join_reads_the_chunks_map_with_the_fields_label(self):
        # Field 1's Newton rows stopped 1.2e-6 below and 2.9e-6 above its zero.
        base = wk.chart_field(np.zeros_like, goods=2)
        fields = [wk.chart_field(fn, goods=2) for fn in self.JOINED]
        C = np.array([[0.6], [0.5 - 1.2e-6], [0.5 + 2.9e-6]])
        labels = np.array([0, 1, 1])
        res = np.array([fields[t].residual_norms(c[None])[0] for c, t in zip(C, labels)])
        mask = np.ones(len(C), dtype=bool)
        newton = (C, res, mask, ~mask, ~mask, np.zeros(len(C), dtype=np.int64))
        calls = []
        evaluate = equilibrium._stacked_map(base, self.JOINED)

        def counted(C, fields, values=None):
            calls.append(fields)
            return evaluate(C, fields, values)

        scans = [equilibrium._scan(field) for field in fields]
        sigmas = np.array([sigma for sigma, _ in scans])
        reports = equilibrium._reports(counted, newton, labels, ~mask, sigmas, [c for _, c in scans])
        # One probe call for the three zeros, then one for field 1's one midpoint.
        assert [len(rows) for rows in calls] == [3 * (1 + 4 + 33), 1]
        assert calls[1].tolist() == [1]
        assert (len(reports[1].equilibria), reports[1].stats.dedup_merges) == (1, 1)
        for t, field in enumerate(fields):
            _assert_same_report(reports[t], _field_report(field, newton, labels == t, *scans[t]))


class TestStackedMap:
    """The one map a Newton phase reads, and the one place that picks it."""

    @pytest.mark.parametrize("weighted", [True, False])
    def test_rows_are_the_newton_map_and_the_field(self, weighted, rng):
        # The map picks itself: p * z for an economy whose chunk has no term,
        # z for a chunk with a term and for a chart field.
        economy = wk.economy_field(random_economy(rng, 3, 3))

        def term(C):
            return 1e-3 * np.sin(7.0 * C)

        if weighted:
            cases = [(economy, [None, None, None])]
        else:
            cases = [(economy, [None, term, None]), (wk.chart_field(lambda C: 0.3 - C**2, goods=3), [None] * 3)]
        C = _region_points(2, 12)
        X, labels = np.vstack([C, C, C]), np.repeat(np.arange(3), len(C))
        for base, terms in cases:
            W, Z = equilibrium._stacked_map(base, terms)(X, labels)
            F = base.chart_values(X)
            if terms[1] is not None:
                F[len(C) : 2 * len(C)] += term(C)
            P, expected = _full_rows(X, F)
            assert np.array_equal(Z, expected)
            assert np.array_equal(W, P * expected if weighted else expected)
            assert not np.array_equal(P * expected, expected)

    @pytest.mark.parametrize("layout", ["rows", "grid"])
    @pytest.mark.parametrize("kind", ["random_fourier", "polynomial", "callables", "none"])
    @pytest.mark.parametrize("goods", [2, 3])
    def test_each_field_is_the_base_plus_its_term_and_no_input_is_written(self, goods, kind, layout):
        # Both base chart maps return a view of their input.
        base = wk.chart_field((lambda C: C) if goods == 2 else (lambda C: C[:, ::-1]), goods=goods)
        d = goods - 1
        if kind in ("random_fourier", "polynomial"):
            spec = wk.PerturbationSpec(1e-3, basis=kind, degree=3, terms=5)
            terms = [genericity._perturbation_term(spec.with_seed(s), d) for s in (4, 5, 6)]
        elif kind == "callables":
            terms = [lambda C: 1e-3 * np.sin(7.0 * C), None, lambda C: 0.2 - C**2]
        else:
            terms = [None] * 3
        C = _region_points(d, 12)
        if layout == "rows":
            blocks = [C[::2], C[1::3], C]
            X, fields, values = np.vstack(blocks), np.repeat(np.arange(3), [len(b) for b in blocks]), None
        else:
            blocks = [C] * 3
            X, fields = C, np.arange(3)[:, None]
            values = base.chart_values(X)
        inputs = [(a, a.copy()) for a in (X, fields, values) if a is not None]
        W, Z = equilibrium._stacked_map(base, terms)(X, fields, values)
        for a, before in inputs:
            assert _same_bits(a, before)
        assert _same_bits(W, Z)
        Z = Z.reshape(-1, goods)
        bounds = np.cumsum([0] + [len(b) for b in blocks])
        for Y, term, lo, hi in zip(blocks, terms, bounds[:-1], bounds[1:]):
            F = base.chart_values(Y)
            assert _same_bits(Z[lo:hi, :-1], F if term is None else F + term(Y))

    def test_only_an_economy_with_no_term_is_solved_on_p_times_z(self, monkeypatch, sym_edgeworth):
        chosen = []
        stacked = equilibrium._stacked_map

        def spy(base, terms):
            evaluate = stacked(base, terms)

            def observed(C, fields, values=None):
                # Whether W is p * z and whether it is z: both on rows where z is 0.
                W, Z = evaluate(C, fields, values)
                maps = (chart_rows_embed(C) * Z, Z)
                chosen.append(tuple(np.array_equal(W, V, equal_nan=True) for V in maps))
                return W, Z

            return observed

        monkeypatch.setattr(equilibrium, "_stacked_map", spy)
        economy = wk.economy_field(sym_edgeworth)
        for base, terms, weighted in (
            (economy, [None], True),
            (economy, [None, lambda C: 1e-3 * C], False),
            (wk.chart_field(lambda C: 0.5 - C, goods=2), [None], False),
        ):
            chosen.clear()
            equilibrium._solve(base, terms)
            is_pz, is_z = np.array(chosen).T
            assert (is_pz if weighted else is_z).all()
            assert (~is_z if weighted else ~is_pz).any()

    @pytest.mark.parametrize("case", ["multi-l2-seed0", "multi-l3-seed0", "experiment"])
    def test_every_call_names_the_field_of_each_row(self, monkeypatch, case):
        # Solves with three zeros each, on the scan grid (two goods) and on
        # refined patches with restarts (three), and four stacked trials of
        # the latter.
        economy = multi_equilibrium_economy(2 if case == "multi-l2-seed0" else 3, 0)
        spec = wk.PerturbationSpec(1e-3, basis="polynomial", degree=3, seed=70)
        reports, stacked = equilibrium._reports, equilibrium._stacked_map

        def run():
            out = []

            def report_spy(*args):
                made = reports(*args)
                out.extend(made)
                return made

            monkeypatch.setattr(equilibrium, "_reports", report_spy)
            if case == "experiment":
                wk.genericity_experiment(economy, spec, trials=4)
            else:
                wk.find_equilibria(economy)
            return out

        reference = run()
        calls = []

        def spy(base, terms):
            evaluate = stacked(base, terms)

            def passed(C, fields, values=None):
                calls.append((C, fields.copy(), len(terms)))
                return evaluate(C, fields, values)

            return passed

        monkeypatch.setattr(equilibrium, "_stacked_map", spy)
        wrapped = run()
        scan_grid = equilibrium._scan_grid(economy.goods - 1)[0]
        assert len(calls) > 3
        for C, fields, count in calls:
            if fields.ndim == 2:
                assert np.array_equal(fields, np.arange(count)[:, None]) and np.array_equal(C, scan_grid)
            else:
                assert fields.shape == (len(C),) and fields.dtype.kind == "i"
                assert ((0 <= fields) & (fields < count)).all() and (np.diff(fields) >= 0).all()
        assert len(wrapped) == len(reference) == (4 if case == "experiment" else 1)
        for a, b in zip(wrapped, reference):
            _assert_same_report(a, b)


class TestScanStage:
    """The scan grid is scanned in one pass over the stacked fields of a
    chunk, which clusters the hits of all of them once."""

    def test_stacked_fields_get_their_one_field_scans(self):
        # Three fields whose hits overlap in chart coordinates, added as
        # terms to a zero base so that each stacked field is exactly its own.
        continuum = wk.economy_field(wk.build_continuum_economy((0.4, 0.6), grid=201))

        def flat_on(*intervals):
            def fn(C):
                flat = np.any([(a <= C) & (C <= b) for a, b in intervals], axis=0)
                return np.where(flat, 0.0, 0.5 - C)

            return fn

        maps = [continuum.chart_values, flat_on((0.45, 0.55)), flat_on((0.1, 0.2), (0.45, 0.7))]
        base = wk.chart_field(np.zeros_like, goods=2)
        evaluate = equilibrium._stacked_map(base, maps)
        sigmas, _, hit, _, reports = equilibrium._scan_stage(evaluate, equilibrium._base_grid(base), 3)
        counts = np.bincount(np.flatnonzero(hit) // len(equilibrium._scan_grid(1)[0]), minlength=3)
        for k, fn in enumerate(maps):
            sigma, report = equilibrium._scan(continuum if k == 0 else wk.chart_field(fn, goods=2))
            assert sigmas[k] == sigma and reports[k] == report
            assert counts[k] == report.points_hit
            # Each field's largest cluster holds c = 0.5, where all three overlap.
            assert report.fired and report.interval[0] < 0.5 < report.interval[1]

    def test_one_subdivision_links_the_scan_hits_once(self, monkeypatch):
        # The continuum detector's clusters are also the starts': the scan
        # grid is the one level the starts come from.
        sizes = []
        linked = equilibrium._linked_components

        def spy(X, *args):
            sizes.append(len(X))
            return linked(X, *args)

        economy = wk.build_continuum_economy((0.4, 0.6), grid=201)
        monkeypatch.setattr(equilibrium, "_linked_components", spy)
        report = wk.find_equilibria(economy)
        assert report.continuum.points_hit == 375
        assert sizes.count(375) == 1


class TestEvaluationCount:
    """A solve evaluates the field in one scan call, its Newton phase, the
    phases of its deflation rounds unless the scan grid is already at the
    target spacing (two goods) and one probe call for all zeros; the
    flat-zero join takes one call more."""

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

        def spy(*args, **caps):
            first = len(calls)
            out = phase(*args, **caps)
            newton_calls.append(calls[first:])
            return out

        monkeypatch.setattr(equilibrium, "_newton_multistart", spy)
        report = wk.find_equilibria(field)
        s, d = report.stats, field.dim
        scan = len(equilibrium._scan_grid(d)[0])
        probe = 1 + 4 * d + (33 if d == 1 else 0)
        newton, *rounds = newton_calls
        # The first call of each phase holds every start with its 2d stencil
        # rows.  From three goods one deflation round runs around the one
        # zero, 4 (d + 1) starts at most, and finds no other.
        assert newton[0] == (s.starts - s.deflated) * (1 + 2 * d)
        assert len(rounds) == (d > 1) and s.converged - s.dedup_merges == zeros
        if rounds:
            assert rounds[0][0] == s.deflated * (1 + 2 * d) and 0 < s.deflated <= 4 * (d + 1)
            assert s.starts - s.deflated <= 10
        assert calls == [scan] + newton + sum(rounds, []) + [zeros * probe]
        assert len(report.equilibria) == zeros

    def test_genericity_experiment(self, monkeypatch, tmp_path):
        # The bench's experiment: four fourier:5 trials of the saved
        # continuum economy, one chunk.  The base is evaluated once on the
        # scan grid, then in each call of the chunk's Newton phase (two
        # goods: no patch call) and in one probe call for every zero.
        wk.save_economy(tmp_path / "continuum.yaml", wk.build_continuum_economy((0.4, 0.6), grid=201))
        base = wk.economy_field(wk.load_economy(tmp_path / "continuum.yaml"))
        calls, newton_calls = [], []

        def counted(C):
            calls.append(len(C))
            return base.chart_values(C)

        phase = equilibrium._newton_multistart

        def spy(*args):
            first = len(calls)
            out = phase(*args)
            newton_calls.append(calls[first:])
            return out

        monkeypatch.setattr(equilibrium, "_newton_multistart", spy)
        spec = wk.PerturbationSpec(1e-4, basis="random_fourier", terms=5, seed=0)
        result = wk.genericity_experiment(dataclasses.replace(base, chart_fn=counted), spec, trials=4)
        assert result.equilibrium_counts == [3, 1, 3, 1] and result.all_regular_count == 4
        (newton,) = newton_calls
        # 20 starts, each with its 2 stencil rows; then each of the nine
        # passes makes a call for its full steps, and three of them one more
        # for the shorter steps of the rows whose full step failed.
        assert newton[0] == 20 * 3 and len(newton) == 1 + 9 + 3
        assert calls == [len(equilibrium._scan_grid(1)[0])] + newton + [8 * (1 + 4 + 33)]

    @pytest.mark.parametrize(
        "call, probe", [(wk.classify, 1 + 4 + 33), (wk.multiplicity_estimate, 1 + 4 + 33), (wk.chart_jacobian, 1 + 4)]
    )
    def test_a_one_point_call_scans_once_and_probes_once(self, call, probe):
        calls = []

        def counted(C):
            calls.append(len(C))
            return 0.5 - C

        call(wk.chart_field(counted, goods=2), wk.ChartPoint([0.5]))
        assert calls == [len(equilibrium._scan_grid(1)[0]), probe]

    def test_the_join_takes_one_call_more(self):
        calls = []

        def counted(C):
            calls.append(len(C))
            return DEGENERATE_ZEROS[0][1](C)

        field = wk.chart_field(counted, goods=2)
        scan = equilibrium._scan(field)
        C = np.array([[0.4999988], [0.5000029]])
        newton = _converged(wk.chart_field(DEGENERATE_ZEROS[0][1], goods=2), C)
        calls.clear()
        report = _field_report(field, newton, slice(None), *scan)
        assert len(report.equilibria) == 1
        # two zeros' probe rows, then the midpoint of the one close pair
        assert calls == [2 * (1 + 4 + 33), 1]

    def test_a_flat_trough_gets_few_starts(self):
        # The lattice minima of |p * z| along the floor of this economy's
        # trough gave 742 Newton starts on the 50-per-axis lattice; minima
        # judged against the whole box around them give a few.  One
        # deflation round around the zero adds at most 4 (d + 1) = 16 rows.
        economy = wk.Economy((wk.Consumer([0.118, 0.086, 0.694, 0.102], [0.275, 0.377, 1.378, 1.699]),))
        report = wk.find_equilibria(wk.economy_field(economy))
        (eq,) = report.equilibria
        assert np.abs(eq.price.coords - nullspace_price(economy)).max() <= 1e-12
        assert report.stats.starts - report.stats.deflated <= 10
        assert report.stats.deflated <= 16

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


class TestBenchChunkNewton:
    """The Newton phase of the bench's experiment chunk (four fourier:5
    trials, epsilon 1e-4, of the saved continuum economy) to the bit: every
    row's start and field, final point and residual ``|z|`` (as
    ``float.hex``), flags and iteration count, as recorded before the
    passes' bookkeeping was cut down.  Nothing that only makes a pass
    cheaper may move one of them."""

    STARTS = (
        "0x1.ae106fe985396p-2", "0x1.1859a983431e7p-1", "0x1.ae18ac9f2fdbap-2", "0x1.1850acc0bdcaep-1",
        "0x1.337219f8cf8a2p-1", "0x1.d2f3f88ac0b8dp-2", "0x1.e5e579da533e2p-2", "0x1.94806290eed03p-2",
        "0x1.e5e4aa39240e1p-2", "0x1.3642da70237e9p-1", "0x1.91f3d9104e2c1p-2", "0x1.98d91e700ae5ep-2",
        "0x1.f346cc87ec905p-2", "0x1.91f127f5e84f1p-2", "0x1.9898c055c6054p-2", "0x1.f333daf8df7a6p-2",
        "0x1.3642da70237e9p-1", "0x1.d267aa3b83aa2p-2", "0x1.d270ecd225d23p-2", "0x1.33b39fd51cfd7p-1",
    )
    POINTS = (
        "0x1.ae1052faa45f4p-2", "0x1.1859aee76b926p-1", "0x1.ae1050fe3593dp-2", "0x1.1859aee76b947p-1",
        "0x1.337219f8cf8a2p-1", "0x1.d2f4396934343p-2", "0x1.e5e57aadab4d4p-2", "0x1.947398c71f9c9p-2",
        "0x1.e5e57aaf01c13p-2", "0x1.3642da70237e9p-1", "0x1.91f37a7aa7c13p-2", "0x1.98da9aac51909p-2",
        "0x1.f346da73e4ec1p-2", "0x1.91f37a7aa7bacp-2", "0x1.98da9af595fbep-2", "0x1.f346da73e4f5cp-2",
        "0x1.98da9aac518d7p-2", "0x1.d267a7eb60c1ep-2", "0x1.d267a7bd0a6e3p-2", "0x1.33b39fd51cfd7p-1",
    )
    RESIDUALS = (
        "0x1.77e4880cd978dp-70", "0x1.2abc43732008bp-69", "0x1.597fc2a966ba0p-41", "0x1.76d1cfd40bce9p-63",
        "0x1.1a39121fbc915p-19", "0x1.2388a29c86477p-73", "0x1.58c9f76de567bp-52", "0x1.a5201fead06dep-26",
        "0x1.120f40175a9a6p-47", "0x1.80e599846cf43p-20", "0x1.1368082e7fbd4p-54", "0x1.3df36856899e3p-58",
        "0x1.a9059c65de1efp-70", "0x1.76237d07fcdd7p-52", "0x1.7ad88d40a2cf4p-42", "0x1.1e40dcc0465e8p-60",
        "0x1.4db58fb06ad5bp-58", "0x1.57f2b93fcff72p-58", "0x1.86a884f155a94p-42", "0x1.b13ab5d17b943p-21",
    )
    FIELDS = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3]
    CONVERGED = [1, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]
    STALLED = [0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    ITERATIONS = [3, 3, 1, 2, 1, 3, 2, 2, 1, 1, 4, 4, 3, 2, 2, 2, 9, 2, 1, 1]

    def test_every_row_ends_where_it_did(self, monkeypatch, tmp_path):
        wk.save_economy(tmp_path / "continuum.yaml", wk.build_continuum_economy((0.4, 0.6), grid=201))
        base = wk.economy_field(wk.load_economy(tmp_path / "continuum.yaml"))
        phases = []
        phase = equilibrium._newton_multistart

        def spy(*args):
            phases.append((args, phase(*args)))
            return phases[-1][1]

        monkeypatch.setattr(equilibrium, "_newton_multistart", spy)
        spec = wk.PerturbationSpec(1e-4, basis="random_fourier", terms=5, seed=0)
        wk.genericity_experiment(base, spec, trials=4)
        ((_, starts, _, fields), (C, zres, converged, stalled, exhausted, iterations)), = phases
        assert [float.hex(x) for x in starts[:, 0]] == list(self.STARTS)
        assert fields.tolist() == self.FIELDS
        assert [float.hex(x) for x in C[:, 0]] == list(self.POINTS)
        assert [float.hex(x) for x in zres] == list(self.RESIDUALS)
        assert converged.astype(int).tolist() == self.CONVERGED
        assert stalled.astype(int).tolist() == self.STALLED
        assert not exhausted.any()
        assert iterations.tolist() == self.ITERATIONS
