import numpy as np
import pytest

import walraskit as wk
from walraskit.consumers import aed_rows
from support import (
    edgeworth_asymmetric,
    oracle_basis_vectors,
    oracle_positive_kernel,
    random_economy,
)


def random_tangent(rng, p, norm=None):
    v = rng.standard_normal(p.goods)
    t = wk.tangent_project(p, v)
    if norm is not None and t.norm() > 0:
        # project again after rescaling so the tangency defect stays at
        # rounding level relative to the new magnitude
        t = wk.tangent_project(t.base, t.components * (norm / t.norm()))
    return t


class TestBasisExcessDemands:
    def test_three_good_hand_value(self):
        fam = wk.CanonicalFamily([1 / 3, 1 / 3, 1 / 3], [1.0, 1.0, 1.0])
        p = wk.simplex_point([1 / 3, 1 / 3, 1 / 3])
        z1 = wk.basis_excess_demands(fam, p)[0]
        assert np.allclose(z1.components, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_two_good_hand_value(self, symmetric_family):
        p = wk.simplex_point([0.5, 0.5])
        z1 = wk.basis_excess_demands(symmetric_family, p)[0]
        assert np.allclose(z1.components, [-0.5, 0.5], atol=1e-15)

    def test_matches_formula_oracle(self, rng):
        for goods in (2, 3, 4):
            fam = wk.CanonicalFamily(
                rng.dirichlet(np.full(goods, 3.0)), rng.uniform(0.5, 2.0, goods)
            )
            for _ in range(20):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                Z = np.column_stack(
                    [z.components for z in wk.basis_excess_demands(fam, p)]
                )
                expected = oracle_basis_vectors(fam.alpha, fam.endowment_levels, p.coords)
                assert np.max(np.abs(Z - expected)) <= 1e-12

    def test_sign_pattern_and_walras(self, rng):
        for goods in (2, 3, 4, 5):
            fam = wk.CanonicalFamily(
                rng.dirichlet(np.full(goods, 2.0)), rng.uniform(0.5, 2.0, goods)
            )
            for _ in range(20):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                for i, z in enumerate(wk.basis_excess_demands(fam, p)):
                    comps = z.components
                    assert comps[i] < 0.0
                    assert np.all(np.delete(comps, i) > 0.0)
                    assert abs(p.coords @ comps) <= 1e-10 * max(1.0, z.norm())

    def test_basis_vectors_are_consumer_excess_demands(self, rng):
        # the canonical family's vectors are literally the excess demands of
        # its single-good consumers
        fam = wk.CanonicalFamily([0.2, 0.5, 0.3], [1.5, 1.0, 0.5])
        p = wk.simplex_point(rng.dirichlet(np.ones(3)))
        consumers = fam.consumers()
        for i, z in enumerate(wk.basis_excess_demands(fam, p)):
            direct = wk.excess_demand(consumers[i], p)
            assert np.allclose(z.components, direct.components, atol=1e-12)


class TestPositiveKernel:
    def test_symmetric_point(self, symmetric_family):
        kappa = wk.positive_kernel(symmetric_family, wk.simplex_point([0.5, 0.5]))
        assert np.allclose(kappa, [1.0, 1.0], atol=1e-12)

    def test_hand_null_space(self, symmetric_family):
        # z1 = (-0.5, 1/3), z2 = (0.75, -0.5): kappa1/kappa2 = 1.5
        kappa = wk.positive_kernel(symmetric_family, wk.simplex_point([0.4, 0.6]))
        assert np.allclose(kappa, [1.5, 1.0], atol=1e-12)

    def test_three_good_barycenter(self):
        fam = wk.CanonicalFamily.symmetric(3)
        kappa = wk.positive_kernel(fam, wk.simplex_point([1 / 3, 1 / 3, 1 / 3]))
        assert np.allclose(kappa, [1.0, 1.0, 1.0], atol=1e-12)

    def test_matches_closed_form_oracle(self, rng):
        for goods in (2, 3, 4, 5):
            fam = wk.CanonicalFamily(
                rng.dirichlet(np.full(goods, 2.0)), rng.uniform(0.5, 2.0, goods)
            )
            for _ in range(20):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                kappa = wk.positive_kernel(fam, p)
                expected = oracle_positive_kernel(
                    fam.alpha, fam.endowment_levels, p.simplex_coords()
                )
                assert np.max(np.abs(kappa - expected)) <= 1e-9
                # and it really is in the null space
                Z = np.column_stack(
                    [z.components for z in wk.basis_excess_demands(fam, p)]
                )
                assert np.linalg.norm(Z @ kappa) <= 1e-10 * kappa.max()


class TestDecomposeAt:
    def test_zero_target_gives_floored_kernel(self, symmetric_family):
        p = wk.simplex_point([0.5, 0.5])
        target = wk.TangentVector(wk.simplex_to_sphere(p), np.zeros(2))
        w = wk.decompose_at(symmetric_family, target)
        assert np.allclose(w.mu, [1.0, 1.0], atol=1e-9)
        assert w.residual <= 1e-12

    def test_hand_value(self, symmetric_family):
        p = wk.simplex_to_sphere(wk.simplex_point([0.5, 0.5]))
        target = wk.TangentVector(p, np.array([1.0, -1.0]))
        w = wk.decompose_at(symmetric_family, target)
        # minimum-norm solution (-1, 1) shifted by t (1, 1) with t = 2
        assert np.allclose(w.mu, [1.0, 3.0], atol=1e-9)
        # reconstruct through the consumer formulas as an oracle
        Z = np.column_stack(
            [z.components for z in wk.basis_excess_demands(symmetric_family, p)]
        )
        assert np.linalg.norm(Z @ w.mu - target.components) <= 1e-10

    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_round_trip_random_targets(self, goods, rng):
        fam = wk.CanonicalFamily(
            rng.dirichlet(np.full(goods, 3.0)), rng.uniform(0.5, 2.0, goods)
        )
        for _ in range(60):
            p = wk.simplex_point(rng.dirichlet(np.full(goods, 2.0)))
            target = random_tangent(rng, p)
            w = wk.decompose_at(fam, target)
            assert w.mu.min() >= 1.0
            assert w.mu.min() <= 1.0 + 1e-9
            Z = oracle_basis_vectors(fam.alpha, fam.endowment_levels, w.price.coords)
            assert np.linalg.norm(Z @ w.mu - target.components) <= 1e-8

    @pytest.mark.parametrize("norm", [1e-6, 1e6, 1e8])
    def test_extreme_target_norms(self, norm, rng, symmetric_family):
        for _ in range(20):
            p = wk.simplex_point(rng.dirichlet(np.full(2, 2.0)))
            target = random_tangent(rng, p, norm=norm)
            w = wk.decompose_at(symmetric_family, target)
            assert w.mu.min() >= 1.0
            Z = oracle_basis_vectors(
                symmetric_family.alpha, symmetric_family.endowment_levels, w.price.coords
            )
            assert np.linalg.norm(Z @ w.mu - target.components) <= 1e-8 * max(1.0, norm)

    def test_rejects_non_tangent_target(self):
        # tangency is checked once, when the target vector is built
        p = wk.sphere_point([0.6, 0.8])
        with pytest.raises(ValueError, match="tangent"):
            wk.TangentVector(p, np.array([1.0, 1.0]))

    def test_rejects_non_finite_family_and_coefficients(self):
        for alpha, levels in (([np.nan, 0.5], None), ([0.5, 0.5], [np.inf, 1.0])):
            with pytest.raises(ValueError):
                wk.CanonicalFamily(alpha, levels)
        p = wk.simplex_point([0.5, 0.5])
        with pytest.raises(ValueError, match="strictly positive"):
            wk.DecompositionWitness(p, np.array([np.nan, 1.0]), 0.0)


def loop_realized_ratios(f, field, grid):
    """The per-point loop that realize_economy replaced, kept as a reference:
    one decomposition per grid point, divided by the kernel weights there."""
    return np.array(
        [
            wk.decompose_at(f, field.value(p)).mu
            / wk.kernel_weights(f, p.simplex_coords()[None, :])[0]
            for p in grid
        ]
    )


class TestRealizeEconomy:
    def grid(self, n=101, lo=0.05, hi=0.95):
        return [wk.simplex_point([x, 1 - x]) for x in np.linspace(lo, hi, n)]

    @pytest.mark.parametrize("rescale", [1.0, 1e6])
    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_ratios_match_the_per_point_loop(self, goods, rescale, rng):
        for _ in range(4):
            fam = wk.CanonicalFamily(
                rng.dirichlet(np.full(goods, 3.0)), rng.uniform(0.5, 2.0, goods)
            )
            base = random_economy(rng, goods, int(rng.integers(2, 5)))
            target = wk.economy_field(
                wk.Economy(
                    tuple(wk.Consumer(c.alpha, c.endowment * rescale) for c in base.consumers)
                )
            )
            if goods == 2:
                grid = self.grid(41, 0.01, 0.99)
            else:
                grid = [wk.simplex_point(rng.dirichlet(np.ones(goods))) for _ in range(41)]
            econ = wk.realize_economy(fam, target, grid)
            ratios = np.column_stack([c.scale.values for c in econ.consumers])
            expected = loop_realized_ratios(fam, target, grid)
            # Coefficients at the floor are differences of numbers of the
            # target's size, so errors are relative to each point's largest.
            scale = np.abs(expected).max(axis=1, keepdims=True)
            assert np.max(np.abs(ratios - expected) / scale) <= 1e-12

    def test_zero_field_realises_to_zero_aed(self, symmetric_family):
        zero = wk.chart_field(lambda C: np.zeros_like(C), goods=2)
        grid = self.grid()
        econ = wk.realize_economy(symmetric_family, zero, grid)
        P = np.vstack([p.coords for p in grid])
        assert np.max(np.abs(aed_rows(econ, P))) <= 1e-12

    def test_edgeworth_round_trip_on_grid(self, symmetric_family):
        target = wk.economy_field(edgeworth_asymmetric())
        grid = self.grid(101)
        econ = wk.realize_economy(symmetric_family, target, grid)
        realized = wk.economy_field(econ)
        C = np.array([[p.coords[0]] for p in grid])
        err = np.abs(realized.chart_values(C) - target.chart_values(C)).max()
        assert err <= 1e-6
        # the realised economy has the same equilibrium
        report = wk.find_equilibria(econ)
        assert len(report.equilibria) == 1
        assert np.allclose(report.equilibria[0].price.coords, [0.4, 0.6], atol=1e-7)

    def test_realized_scales_stay_positive(self, symmetric_family, rng):
        target = wk.chart_field(lambda C: np.sin(5 * C) * 0.1, goods=2)
        econ = wk.realize_economy(symmetric_family, target, self.grid(151))
        xs = rng.uniform(0.05, 0.95, size=300)
        P = np.column_stack([xs, 1 - xs])
        for consumer in econ.consumers:
            assert np.all(consumer.scale(P) > 0.0)

    def test_three_goods_grid_match(self, rng):
        fam = wk.CanonicalFamily.symmetric(3)
        target_econ = wk.Economy(
            (wk.Consumer([0.2, 0.3, 0.5], [1, 1, 1]), wk.Consumer([0.5, 0.3, 0.2], [1, 0.5, 1]))
        )
        target = wk.economy_field(target_econ)
        grid = [wk.simplex_point(rng.dirichlet(np.full(3, 3.0))) for _ in range(60)]
        econ = wk.realize_economy(fam, target, grid)
        realized = wk.economy_field(econ)
        C = np.array([p.coords[:-1] for p in grid])
        assert np.abs(realized.chart_values(C) - target.chart_values(C)).max() <= 1e-6

    def test_empty_grid_rejected(self, symmetric_family):
        zero = wk.chart_field(lambda C: np.zeros_like(C), goods=2)
        with pytest.raises(ValueError):
            wk.realize_economy(symmetric_family, zero, [])

    def test_non_finite_target_rejected(self, rng):
        bad = wk.chart_field(lambda C: np.where(C > 0.5, np.nan, 0.0), goods=3)
        grid = [wk.simplex_point(rng.dirichlet(np.ones(3))) for _ in range(30)]
        with pytest.raises(ValueError, match="finite"):
            wk.realize_economy(wk.CanonicalFamily.symmetric(3), bad, grid)
