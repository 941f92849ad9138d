import re

import numpy as np
import pytest

import walraskit as wk
from support import multi_equilibrium_economy, random_economy
from walraskit.genericity import continuum_chart_map


@pytest.fixture(scope="module")
def continuum_economy():
    return wk.build_continuum_economy((0.4, 0.6), grid=201)


class TestContinuumConstruction:
    def test_chart_map_formula(self):
        g = continuum_chart_map(0.4, 0.6)
        C = np.array([[0.2], [0.5], [0.8]])
        vals = g(C)[:, 0]
        assert vals[0] == pytest.approx((0.4 - 0.2) ** 3)  # 0.008
        assert vals[1] == 0.0
        assert vals[2] == pytest.approx((0.6 - 0.8) ** 3)  # -0.008

    def test_aed_vanishes_on_grid_points_inside_interval(self, continuum_economy):
        field = wk.economy_field(continuum_economy)
        xs = np.linspace(0.01, 0.99, 201)
        inside = xs[(xs >= 0.4) & (xs <= 0.6)]
        assert field.residual_norms(inside[:, None]).max() <= 1e-12

    def test_matches_target_on_all_grid_points(self, continuum_economy):
        field = wk.economy_field(continuum_economy)
        g = continuum_chart_map(0.4, 0.6)
        xs = np.linspace(0.01, 0.99, 201)[:, None]
        assert np.abs(field.chart_values(xs) - g(xs)).max() <= 1e-6

    def test_detector_fires_on_economy(self, continuum_economy):
        report = wk.continuum_detector(continuum_economy)
        assert report.fired
        lo, hi = report.interval
        assert 0.4 - 1e-3 <= lo <= 0.42
        assert 0.58 <= hi <= 0.6 + 1e-3

    def test_solver_flags_non_finite(self, continuum_economy):
        report = wk.find_equilibria(continuum_economy)
        assert not report.finite_flag

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            wk.build_continuum_economy((0.6, 0.4))
        with pytest.raises(ValueError):
            wk.build_continuum_economy((0.0, 0.5))


class TestPerturb:
    def test_zero_epsilon_is_identity(self, continuum_economy):
        field = wk.economy_field(continuum_economy)
        same = wk.perturb(field, wk.PerturbationSpec(0.0, basis="random_fourier", seed=3))
        C = np.linspace(0.05, 0.95, 50)[:, None]
        assert np.array_equal(field.chart_values(C), same.chart_values(C))

    def test_linear_tilt_formula(self):
        # the tilt basis is already normalised: sup |0.5 - c| = 0.5, sup |d/dc| = 1
        zero = wk.chart_field(lambda C: np.zeros_like(C), goods=2)
        tilted = wk.perturb(zero, wk.PerturbationSpec(1e-3, basis="linear_tilt"))
        C = np.array([[0.2], [0.5], [0.9]])
        assert np.allclose(tilted.chart_values(C), 1e-3 * (0.5 - C), atol=1e-18)

    def test_tilt_on_continuum_gives_unique_zero_at_half(self, continuum_economy):
        tilted = wk.perturb(continuum_economy, wk.PerturbationSpec(1e-3, basis="linear_tilt"))
        report = wk.find_equilibria(tilted)
        assert report.finite_flag
        assert len(report.equilibria) == 1
        assert report.equilibria[0].chart[0] == pytest.approx(0.5, abs=1e-4)

    def test_different_seeds_differ(self, continuum_economy):
        field = wk.economy_field(continuum_economy)
        a = wk.perturb(field, wk.PerturbationSpec(1e-3, basis="random_fourier", seed=1))
        b = wk.perturb(field, wk.PerturbationSpec(1e-3, basis="random_fourier", seed=2))
        C = np.linspace(0.05, 0.95, 50)[:, None]
        assert not np.array_equal(a.chart_values(C), b.chart_values(C))

    @pytest.mark.parametrize("basis", ["linear_tilt", "polynomial", "random_fourier"])
    def test_perturbation_and_derivative_are_small(self, basis):
        zero = wk.chart_field(lambda C: np.zeros_like(C), goods=2)
        eps = 1e-3
        pert = wk.perturb(zero, wk.PerturbationSpec(eps, basis=basis, seed=11))
        xs = np.linspace(0.01, 0.99, 2001)[:, None]
        vals = pert.chart_values(xs)[:, 0]
        assert np.abs(vals).max() <= eps * (1 + 1e-9)
        slopes = np.diff(vals) / np.diff(xs[:, 0])
        assert np.abs(slopes).max() <= eps * (1 + 1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            wk.PerturbationSpec(-1.0)
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be finite and non-negative"):
                wk.PerturbationSpec(eps)
        with pytest.raises(ValueError):
            wk.PerturbationSpec(1e-3, basis="unknown")
        with pytest.raises(ValueError):
            wk.PerturbationSpec(1e-3, terms=0)
        # Counts are integers, checked when the spec is made, not deep in perturb.
        for name, value in (("degree", 2.5), ("terms", 2.5), ("terms", True), ("seed", 1.5), ("seed", False)):
            with pytest.raises(ValueError, match=f"{name} must be an integer, not {value!r}"):
                wk.PerturbationSpec(1e-3, basis="polynomial", **{name: value})
        with pytest.raises(ValueError, match="epsilon must be a number, not True"):
            wk.PerturbationSpec(True)
        # A negative seed failed inside numpy, naming no argument.
        for seed in (-1, np.int64(-3)):
            with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, not {seed!r}")):
                wk.PerturbationSpec(1e-3, seed=seed)
        assert wk.PerturbationSpec(1e-3, seed=0).seed == 0
        assert wk.PerturbationSpec(1e-3, degree=np.int64(2), terms=np.int64(3), seed=np.int64(4)).seed == 4

    @pytest.mark.parametrize("trials", [2.5, True, "2"])
    def test_trials_must_be_an_integer(self, continuum_economy, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            wk.genericity_experiment(continuum_economy, wk.PerturbationSpec(1e-3), trials=trials)


class TestExperiment:
    def test_unperturbed_continuum_stays_infinite(self, continuum_economy):
        res = wk.genericity_experiment(
            continuum_economy, wk.PerturbationSpec(0.0, seed=5), trials=1
        )
        assert res.trials == 1
        assert res.finite_count == 0

    def test_monotone_stabilisation(self, continuum_economy):
        # every sampled perturbation yields a finite, all-regular set, index sum +1
        for eps in (1e-2, 1e-3, 1e-4):
            res = wk.genericity_experiment(
                continuum_economy,
                wk.PerturbationSpec(eps, basis="random_fourier", terms=5, seed=900),
                trials=5,
            )
            assert res.finite_count == 5
            assert res.all_regular_count == 5
            assert all(r.index_sum == 1 for r in res.records)

    def test_a_zero_that_grid_starts_missed_is_found(self, continuum_economy):
        # Newton from every point of a 50-point grid missed the zero at
        # 0.6028, between two zeros 0.007 and 0.027 away, and reported a
        # finite, all-regular set with index sum 2.
        spec = wk.PerturbationSpec(1e-3, "random_fourier", terms=5, seed=548429894)
        report = wk.find_equilibria(wk.perturb(continuum_economy, spec))
        found = [(round(float(eq.chart[0]), 4), eq.index) for eq in report.equilibria]
        assert found == [(0.3739, 1), (0.5279, -1), (0.5757, 1), (0.6028, -1), (0.6101, 1)]
        assert report.index_check == "ok"

    # Three trials of the bench ``experiment`` pool, each named by its bench
    # seed and pool entry and given by its base seed and trial, have a
    # simple crossing that the probe labels ``critical``: its estimates at
    # steps h and h/2 disagree.  Their index sums read 2, 2 and 1 (ROADMAP
    # item 16).
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
    @pytest.mark.parametrize(
        "seed, trial",
        [
            pytest.param(948876492, 2, id="bench-seed603-entry6"),
            pytest.param(1446321147, 0, id="bench-seed1043-entry0"),
            pytest.param(702953600, 0, id="bench-seed5302-entry6"),
        ],
    )
    def test_a_simple_crossing_is_regular(self, continuum_economy, seed, trial):
        spec = wk.PerturbationSpec(1e-4, "random_fourier", terms=5, seed=seed)
        record = wk.genericity_experiment(continuum_economy, spec, trials=4).records[trial]
        assert record.all_regular and record.index_sum == 1

    def test_regular_economy_robustness(self, sym_edgeworth):
        # |det J| = 2 at the unique zero; all sampled epsilons sit far below
        # half that margin, so the equilibrium count never changes
        J = wk.chart_jacobian(sym_edgeworth, wk.ChartPoint([0.5]))
        margin = abs(np.linalg.det(J))
        for eps in (1e-4, 1e-3, 1e-2):
            assert eps < margin / 2
            res = wk.genericity_experiment(
                sym_edgeworth,
                wk.PerturbationSpec(eps, basis="random_fourier", terms=5, seed=31),
                trials=5,
            )
            assert res.equilibrium_counts == [1, 1, 1, 1, 1]
            assert res.all_regular_count == 5

    def test_reproducibility(self, continuum_economy):
        spec = wk.PerturbationSpec(1e-3, basis="random_fourier", terms=5, seed=77)
        a = wk.genericity_experiment(continuum_economy, spec, trials=4)
        b = wk.genericity_experiment(continuum_economy, spec, trials=4)
        assert a == b

    def test_three_good_experiment_runs(self, rng):
        # no completeness oracle beyond two goods; the experiment still runs
        # and random economies keep their unique regular equilibrium
        econ = wk.Economy(
            (
                wk.Consumer([0.2, 0.3, 0.5], [1, 0, 0]),
                wk.Consumer([0.4, 0.3, 0.3], [0, 1, 0]),
                wk.Consumer([0.3, 0.4, 0.3], [0, 0, 1]),
            )
        )
        res = wk.genericity_experiment(
            econ,
            wk.PerturbationSpec(1e-4, basis="random_fourier", terms=3, seed=8),
            trials=3,
        )
        assert res.finite_count == 3
        assert res.equilibrium_counts == [1, 1, 1]

    def test_trial_seeds_are_sequential(self, continuum_economy):
        spec = wk.PerturbationSpec(1e-3, basis="random_fourier", terms=5, seed=50)
        res = wk.genericity_experiment(continuum_economy, spec, trials=3)
        assert [r.seed for r in res.records] == [50, 51, 52]

    def test_solver_failure_is_recorded_not_raised(self, monkeypatch, continuum_economy):
        import walraskit.equilibrium as eqm

        # The report step joins each trial's flat zeros on its own.  The
        # second trial's join fails (call 2), so the chunk of three trials
        # is solved again one trial at a time (calls 3-5), where it fails
        # again (call 4).
        calls = {"n": 0}
        original = eqm._join_flat_zeros

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] in (2, 4):
                raise RuntimeError("synthetic solver failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(eqm, "_join_flat_zeros", flaky)
        res = wk.genericity_experiment(
            continuum_economy, wk.PerturbationSpec(1e-3, seed=1), trials=3
        )
        assert calls["n"] == 5
        errors = [r for r in res.records if r.error is not None]
        assert [r.trial for r in errors] == [1]
        assert "synthetic solver failure" in errors[0].error
        assert res.finite_count == 2


def assert_same_report(a, b):
    assert a.stats == b.stats
    assert (a.continuum.fired, a.continuum.points_hit) == (b.continuum.fired, b.continuum.points_hit)
    if b.continuum.interval is None:
        assert a.continuum.interval is None
    else:
        assert all(np.array_equal(x, y) for x, y in zip(a.continuum.interval, b.continuum.interval))
    assert len(a.equilibria) == len(b.equilibria)
    for x, y in zip(a.equilibria, b.equilibria):
        assert np.array_equal(x.chart, y.chart)
        assert np.array_equal(x.price.coords, y.price.coords)
        assert (x.residual, x.regularity, x.index, x.multiplicity) == (
            y.residual,
            y.regularity,
            y.index,
            y.multiplicity,
        )


def three_good_economy():
    return wk.Economy(
        (
            wk.Consumer([0.2, 0.3, 0.5], [1, 0, 0]),
            wk.Consumer([0.4, 0.3, 0.3], [0, 1, 0]),
            wk.Consumer([0.3, 0.4, 0.3], [0, 0, 1]),
        )
    )


class TestStackedTrials:
    """The stacked Newton phase against each trial solved on its own."""

    @staticmethod
    def check(base, spec, trials):
        import walraskit.equilibrium as eqm
        import walraskit.genericity as gen

        field = wk.economy_field(base)
        specs = [spec.with_seed(spec.seed + t) for t in range(trials)]
        stacked = eqm._solve(field, [gen._perturbation_term(s, field.dim) for s in specs])
        for trial_spec, report in zip(specs, stacked):
            assert_same_report(report, wk.find_equilibria(gen.perturb(field, trial_spec)))
        return stacked

    @pytest.mark.parametrize(
        "spec",
        [
            wk.PerturbationSpec(1e-3, basis="random_fourier", terms=5, seed=61),
            wk.PerturbationSpec(1e-2, basis="polynomial", degree=3, seed=62),
            wk.PerturbationSpec(1e-3, basis="linear_tilt", seed=63),
            wk.PerturbationSpec(0.0, seed=64),
        ],
        ids=["random_fourier", "polynomial", "linear_tilt", "epsilon_0"],
    )
    def test_continuum_trials_match_solo_solves(self, continuum_economy, spec):
        self.check(continuum_economy, spec, 4)

    def test_three_good_trials_match_solo_solves(self):
        # epsilon = 0: every trial is the economy's own field, solved on p * z.
        for spec in (
            wk.PerturbationSpec(1e-4, basis="random_fourier", terms=3, seed=8),
            wk.PerturbationSpec(0.0, seed=9),
        ):
            self.check(three_good_economy(), spec, 3)

    @pytest.mark.parametrize("goods, seed", [(3, 0), (3, 46), (4, 0)])
    def test_deflated_trials_match_solo_solves(self, goods, seed):
        # The default grid is finer than the scan grid from three goods, so
        # every trial is deflated next to its zeros; at l = 3 seed 46 the
        # scan grid hides two of the three, which deflation finds: deflation
        # rounds of several fields in one chunk.
        economy = multi_equilibrium_economy(goods, seed)
        for spec in (
            wk.PerturbationSpec(1e-4, basis="random_fourier", terms=3, seed=71),
            wk.PerturbationSpec(1e-4, basis="polynomial", degree=3, seed=72),
        ):
            reports = self.check(economy, spec, 3)
            assert all(r.stats.deflated > 0 and len(r.equilibria) == 3 for r in reports)

    def test_chunk_boundaries(self, monkeypatch, continuum_economy):
        import walraskit.equilibrium as eqm

        # A lattice of 2001 points per trial, and room for 4100 rows:
        # chunks of 2, 2 and 1 trials.
        monkeypatch.setattr(eqm, "MAX_STARTS", 4100)
        trials = []
        original = eqm._newton_multistart

        def spy(evaluate, starts, tol, labels):
            trials.append(len(np.unique(labels)))
            return original(evaluate, starts, tol, labels)

        monkeypatch.setattr(eqm, "_newton_multistart", spy)
        self.check(
            continuum_economy,
            wk.PerturbationSpec(1e-3, basis="random_fourier", terms=5, seed=65),
            5,
        )
        # the stacked chunks, then each trial's own solve
        assert trials == [2, 2, 1] + [1] * 5

    def test_failing_chunk_is_solved_trial_by_trial(self):
        import walraskit.genericity as gen

        def fn(C):
            if (C > 0.95).any():
                raise ValueError(f"rows above 0.95 in a batch of {len(C)}")
            return 0.5 - C

        base = wk.chart_field(fn, goods=2)
        spec = wk.PerturbationSpec(1e-3, seed=66)
        res = wk.genericity_experiment(base, spec, trials=3)
        for t, record in enumerate(res.records):
            # The message names the batch size, so it tells a trial's own
            # solve from the stacked one.
            with pytest.raises(ValueError) as solo:
                wk.find_equilibria(gen.perturb(base, spec.with_seed(spec.seed + t)))
            assert record.error == f"ValueError: {solo.value}"
            assert "batch of 2001" in record.error
        assert res.finite_count == 0

    def test_a_base_that_fails_its_scan_is_evaluated_once(self):
        calls = []

        def fn(C):
            calls.append(len(C))
            if (C > 0.95).any():
                raise ValueError(f"rows above 0.95 in a batch of {len(C)}")
            return 0.5 - C

        base = wk.chart_field(fn, goods=2)
        res = wk.genericity_experiment(base, wk.PerturbationSpec(1e-3, seed=66), trials=3)
        # Every trial records the base's error, and no trial is solved.
        assert calls == [2001]
        assert [r.error for r in res.records] == ["ValueError: rows above 0.95 in a batch of 2001"] * 3
        assert res.base_continuum is None
        with pytest.raises(ValueError, match="rows above 0.95 in a batch of 2001"):
            wk.find_equilibria(base)

    def test_a_chunk_that_raises_is_solved_one_field_at_a_time(self):
        import walraskit.equilibrium as eqm

        error = ValueError("the term refuses rows")

        def raising_term(C):
            raise error

        # The base scans, so the chunk fails in its own scan and is solved
        # again field by field: the other two fields are the base's solve.
        base = wk.economy_field(three_good_economy())
        reports = eqm._solve(base, [None, raising_term, None])
        assert reports[1] is error
        for report in (reports[0], reports[2]):
            assert_same_report(report, wk.find_equilibria(base))

    def test_four_good_trials_solve(self):
        # Every trial, deflated next to its zero, lists that zero alone.
        econ = wk.Economy(
            (
                wk.Consumer([0.1, 0.2, 0.3, 0.4], [1, 0, 0, 0]),
                wk.Consumer([0.4, 0.3, 0.2, 0.1], [0, 1, 1, 1]),
            )
        )
        res = wk.genericity_experiment(
            econ,
            wk.PerturbationSpec(1e-3, seed=67),
            trials=2,
        )
        assert [r.error for r in res.records] == [None, None]
        assert res.equilibrium_counts == [1, 1]


def test_each_chunk_of_trials_is_scanned_in_one_call(monkeypatch):
    import walraskit.equilibrium as eqm

    calls = []
    bump = continuum_chart_map(0.4, 0.6)

    def counted(C):
        calls.append(len(C))
        return bump(C)

    # A lattice of 2001 points per trial, the scan grid, and room for 4100
    # rows: chunks of 2, 2 and 1 trials.
    monkeypatch.setattr(eqm, "MAX_STARTS", 4100)
    base = wk.chart_field(counted, goods=2)
    res = wk.genericity_experiment(base, wk.PerturbationSpec(1e-3, seed=68), trials=5)
    assert res.finite_count == 5
    # The base is evaluated once on the scan grid, for every chunk and for
    # its own continuum scan; no Newton, probe or join call reaches its size.
    assert [n for n in calls if n >= 2001] == [2001]
    assert res.base_continuum == wk.continuum_detector(base)
    assert res.base_continuum.fired


def test_each_chunk_of_trials_runs_each_deflation_round_in_one_phase(monkeypatch):
    import walraskit.equilibrium as eqm
    import walraskit.genericity as gen

    phases = []
    newton = eqm._newton_multistart

    def spy(evaluate, starts, tol, labels, **caps):
        if caps:
            phases.append(sorted(set(labels.tolist())))
        return newton(evaluate, starts, tol, labels, **caps)

    monkeypatch.setattr(eqm, "_newton_multistart", spy)
    # The scan grid hides two of the three zeros of this economy, and
    # deflation finds them in every trial.
    field = wk.economy_field(multi_equilibrium_economy(3, 46))
    spec = wk.PerturbationSpec(1e-4, basis="random_fourier", terms=3, seed=73)
    terms = [gen._perturbation_term(spec.with_seed(73 + t), field.dim) for t in range(4)]
    reports = eqm._solve(field, terms)
    assert all(r.stats.deflated > 0 and len(r.equilibria) == 3 for r in reports)
    # One Newton phase per round for the whole chunk: the first holds
    # deflation rows of every trial.
    assert 1 <= len(phases) <= eqm.DEFLATION_ROUNDS
    assert phases[0] == [0, 1, 2, 3]


def test_each_chunk_of_trials_is_classified_in_one_call(monkeypatch):
    import dataclasses

    import walraskit.equilibrium as eqm
    import walraskit.genericity as gen

    base = wk.economy_field(multi_equilibrium_economy(3, 0))
    reporting, calls = [], []

    def counted(C):
        if reporting:
            calls.append(len(C))
        return base.chart_values(C)

    reports = eqm._reports

    def spy(*args):
        reporting.append(True)
        try:
            return reports(*args)
        finally:
            reporting.pop()

    monkeypatch.setattr(eqm, "_reports", spy)
    field = dataclasses.replace(base, chart_fn=counted)
    spec = wk.PerturbationSpec(1e-3, basis="polynomial", degree=3, seed=70)
    terms = [gen._perturbation_term(spec.with_seed(70 + t), field.dim) for t in range(4)]
    solved = eqm._solve(field, terms)
    assert [len(r.equilibria) for r in solved] == [3] * 4
    assert all(eq.regularity == "regular" for r in solved for eq in r.equilibria)
    # One probe call for the twelve zeros of the four trials: each zero,
    # then its stencils at two steps (no window beyond two goods).
    assert calls == [12 * (1 + 4 * 2)]


class TestChunkFailure:
    """One failure rule: a chunk of trials whose solve raises anywhere, here
    in its probe call, is solved again one trial at a time."""

    SPEC = wk.PerturbationSpec(1e-3, basis="polynomial", degree=3, seed=80)

    @staticmethod
    def solve(monkeypatch, economy, spec, refused=None):
        """``_solve`` of four trials of ``spec`` on ``economy`` with a probe
        that raises on the rows of more than one field and in a chunk that
        holds the term of trial ``refused``; the terms, reports and the
        number of refused probe calls."""
        import walraskit.equilibrium as eqm
        import walraskit.genericity as gen

        field = wk.economy_field(economy)
        terms = [gen._perturbation_term(spec.with_seed(spec.seed + t), field.dim) for t in range(4)]
        probe, stacked, chunks, refusals = eqm._probe, eqm._stacked_map, [], []

        def map_spy(base, terms):
            chunks.append(terms)
            return stacked(base, terms)

        def spy(evaluate, C, labels, *args):
            # A chunk's probe follows its map, the latest built.
            chunk = chunks[-1]
            if len(np.unique(labels)) > 1 or (refused is not None and any(t is terms[refused] for t in chunk)):
                refusals.append(len(chunk))
                raise RuntimeError("probe refused")
            return probe(evaluate, C, labels, *args)

        monkeypatch.setattr(eqm, "_stacked_map", map_spy)
        monkeypatch.setattr(eqm, "_probe", spy)
        return eqm._solve(field, terms), len(refusals)

    @pytest.mark.parametrize("case", ["continuum", "multi-l3-seed0"])
    def test_a_failing_chunk_gives_each_trial_its_own_report(self, monkeypatch, continuum_economy, case):
        economy = continuum_economy if case == "continuum" else multi_equilibrium_economy(3, 0)
        reports, refusals = self.solve(monkeypatch, economy, self.SPEC)
        assert refusals == 1
        for t, report in enumerate(reports):
            assert_same_report(report, wk.find_equilibria(wk.perturb(economy, self.SPEC.with_seed(80 + t))))

    @pytest.mark.parametrize("case", ["continuum", "multi-l3-seed0"])
    def test_a_trial_whose_own_probe_fails_records_its_error(self, monkeypatch, continuum_economy, case):
        economy = continuum_economy if case == "continuum" else multi_equilibrium_economy(3, 0)
        reports, refusals = self.solve(monkeypatch, economy, self.SPEC, refused=2)
        # The chunk's call, then trial 2's own.
        assert refusals == 2
        assert isinstance(reports[2], RuntimeError) and str(reports[2]) == "probe refused"
        for t in (0, 1, 3):
            assert_same_report(reports[t], wk.find_equilibria(wk.perturb(economy, self.SPEC.with_seed(80 + t))))


@pytest.mark.parametrize("basis", ["linear_tilt", "polynomial", "random_fourier"])
def test_a_stacked_evaluation_calls_the_basis_once(monkeypatch, basis):
    import walraskit.equilibrium as eqm
    import walraskit.genericity as gen

    calls = []
    function = gen._BASES[basis]

    def counted(C, *coefficients):
        calls.append(len(C))
        return function(C, *coefficients)

    monkeypatch.setitem(gen._BASES, basis, counted)
    spec = wk.PerturbationSpec(1e-3, basis=basis, seed=71)
    base = wk.chart_field(lambda C: 0.5 - C, goods=3)
    terms = [gen._perturbation_term(spec.with_seed(71 + t), 2) for t in range(4)]
    X = np.random.default_rng(72).dirichlet(np.ones(3), 30)[:, :-1]
    labels = np.repeat(np.arange(4), [7, 0, 15, 8])
    eqm._stacked_map(base, terms)(X, labels)
    assert calls == [30]


class TestStackedTerm:
    """The stacked term of a chunk against each trial's own perturbed field."""

    @pytest.mark.parametrize("basis", ["linear_tilt", "polynomial", "random_fourier"])
    @pytest.mark.parametrize("goods", [2, 3])
    def test_scan_grid_rows_get_the_bits_of_their_trial(self, basis, goods, rng):
        # The chunk's terms on the scan grid, from one table of the grid,
        # and the scan's field rows of each trial.
        import walraskit.equilibrium as eqm
        import walraskit.genericity as gen

        base = wk.economy_field(random_economy(rng, goods, 3))
        spec = wk.PerturbationSpec(1e-3, basis=basis, degree=4, terms=5, seed=74)
        specs = [spec.with_seed(74 + t) for t in range(4)]
        terms = [gen._perturbation_term(s, base.dim) for s in specs]
        C = eqm._scan_grid(base.dim)[0]
        T = gen._Term.stack(terms)(C, np.arange(len(terms))[:, None])
        assert T.shape == (len(terms), *C.shape)
        W = eqm._scan_stage(eqm._stacked_map(base, terms), eqm._base_grid(base), len(terms))[1]
        for t, (term, s) in enumerate(zip(terms, specs)):
            assert np.array_equal(T[t], term(C))
            rows = slice(t * len(C), (t + 1) * len(C))
            assert np.array_equal(W[rows], gen.perturb(base, s).full_values(C)[1])

    @pytest.mark.parametrize("basis", ["linear_tilt", "polynomial", "random_fourier"])
    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_rows_get_the_bits_of_their_trial(self, basis, goods, rng):
        import walraskit.equilibrium as eqm
        import walraskit.genericity as gen

        base = wk.economy_field(random_economy(rng, goods, 3))
        spec = wk.PerturbationSpec(1e-3, basis=basis, degree=4, terms=3, seed=73)
        specs = [spec.with_seed(73 + t) for t in range(5)]
        terms = [gen._perturbation_term(s, base.dim) for s in specs]
        counts = [40, 1, 0, 3, 2001]
        X = rng.dirichlet(np.ones(goods), sum(counts))[:, :-1]
        labels = np.repeat(np.arange(5), counts)
        _, Z = eqm._stacked_map(base, terms)(X, labels)
        for t, s in enumerate(specs):
            rows = labels == t
            assert np.array_equal(Z[rows], gen.perturb(base, s).full_values(X[rows])[1])
