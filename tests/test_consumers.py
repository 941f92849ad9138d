import numpy as np
import pytest

import walraskit as wk
from walraskit.consumers import _scale_values, aed_rows, demand_rows, excess_rows
from support import random_economy, random_interior_prices, walras_residuals


class TestWealthAndDemand:
    def test_wealth_examples(self):
        # the demanded bundle costs exactly the endowment's value p . omega
        p = wk.simplex_point([0.5, 0.5])
        assert p.coords @ wk.demand(wk.Consumer([0.5, 0.5], [1, 1]), p) == pytest.approx(1.0)
        assert p.coords @ wk.demand(wk.Consumer([0.5, 0.5], [2, 0]), p) == pytest.approx(1.0)
        p3 = wk.simplex_point([1 / 3, 1 / 3, 1 / 3])
        c3 = wk.Consumer([0.2, 0.3, 0.5], [1, 0, 0])
        assert p3.coords @ wk.demand(c3, p3) == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "alpha,omega,expected",
        [
            ([0.5, 0.5], [1, 1], [1.0, 1.0]),
            ([0.5, 0.5], [2, 0], [1.0, 1.0]),
            ([0.25, 0.75], [1, 1], [0.5, 1.5]),
        ],
    )
    def test_demand_examples(self, alpha, omega, expected):
        x = wk.demand(wk.Consumer(alpha, omega), wk.simplex_point([0.5, 0.5]))
        assert np.allclose(x, expected, atol=1e-15)

    def test_budget_identity(self, rng):
        for _ in range(100):
            goods = int(rng.integers(2, 6))
            c = wk.Consumer(rng.dirichlet(np.ones(goods)), rng.uniform(0.1, 2, goods))
            p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
            x = wk.demand(c, p)
            assert abs(p.coords @ x - p.coords @ c.endowment) <= 1e-10


class TestExcessDemand:
    def test_endowment_demanded_at_fixed_point(self):
        c = wk.Consumer([0.5, 0.5], [1, 1])
        z = excess_rows(c, np.array([[0.5, 0.5]]))[0]
        assert np.allclose(z, 0.0, atol=1e-15)

    def test_hand_value(self):
        c = wk.Consumer([0.5, 0.5], [2, 0])
        z = excess_rows(c, np.array([[0.5, 0.5]]))[0]
        assert np.allclose(z, [-1.0, 1.0], atol=1e-15)

    def test_scale_multiplies(self):
        c = wk.Consumer([0.5, 0.5], [2, 0], scale=wk.ConstantScale(3.0))
        z = excess_rows(c, np.array([[0.5, 0.5]]))[0]
        assert np.allclose(z, [-3.0, 3.0], atol=1e-15)

    def test_homogeneous_degree_zero(self, rng):
        c = wk.Consumer([0.3, 0.7], [1.0, 0.5], scale=wk.PolynomialScale(((1.0, (0,)), (0.5, (1,)))))
        P = random_interior_prices(rng, 50, 2)
        base = excess_rows(c, P)
        for lam in (0.5, 2.0, 10.0):
            assert np.max(np.abs(excess_rows(c, lam * P) - base)) <= 1e-10

    def test_consumer_validation(self):
        with pytest.raises(ValueError):
            wk.Consumer([0.4, 0.4], [1, 1])  # shares do not sum to one
        with pytest.raises(ValueError):
            wk.Consumer([0.5, 0.5], [0, 0])  # empty endowment
        with pytest.raises(ValueError):
            wk.Consumer([1.2, -0.2], [1, 1])
        for alpha, omega in (
            ([np.nan, 0.5], [1, 1]),
            ([np.inf, 0.5], [1, 1]),
            ([0.5, 0.5], [np.nan, 1]),
            ([0.5, 0.5], [np.inf, 1]),
        ):
            with pytest.raises(ValueError):
                wk.Consumer(alpha, omega)

    def test_scale_positivity_enforced_at_evaluation(self):
        # 0.2 - c1 is negative for p1 > 0.2: evaluating there must fail,
        # evaluating where it is positive must not
        c = wk.Consumer(
            [0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((0.2, (0,)), (-1.0, (1,))))
        )
        assert np.all(np.isfinite(excess_rows(c, np.array([[0.1, 0.9]]))[0]))
        with pytest.raises(ValueError, match="strictly positive"):
            excess_rows(c, np.array([[0.5, 0.5]]))


class TestAggregate:
    def test_edgeworth_equilibria(self, sym_edgeworth, asym_edgeworth):
        z = wk.aed(sym_edgeworth, wk.simplex_point([0.5, 0.5]))
        assert np.allclose(z.components, 0.0, atol=1e-14)
        z = wk.aed(asym_edgeworth, wk.simplex_point([0.4, 0.6]))
        assert np.allclose(z.components, 0.0, atol=1e-14)

    def test_single_consumer_zero_everywhere_at_own_demand(self, rng):
        c = wk.Consumer([0.5, 0.5], [1.5, 0.5])
        e = wk.Economy((c,))
        p = wk.simplex_point([0.5, 0.5])
        x = wk.demand(c, p)
        # endowing the consumer with the demanded bundle zeroes excess demand
        e2 = wk.Economy((wk.Consumer([0.5, 0.5], x),))
        assert np.allclose(wk.aed(e2, p).components, 0.0, atol=1e-14)
        assert not np.allclose(wk.aed(e, wk.simplex_point([0.3, 0.7])).components, 0.0)

    def test_walras_law_random(self, rng):
        for _ in range(100):
            goods = int(rng.integers(2, 6))
            e = random_economy(rng, goods, int(rng.integers(1, 6)))
            P = random_interior_prices(rng, 10, goods)
            assert walras_residuals(e, P).max() <= 1e-9

    def test_homogeneity_random(self, rng):
        e = random_economy(rng, 3, 4)
        P = random_interior_prices(rng, 100, 3)
        base = aed_rows(e, P)
        for lam in (0.5, 2.0, 10.0):
            assert np.max(np.abs(aed_rows(e, lam * P) - base)) <= 1e-10

    def test_properness_signal(self, rng):
        # all-positive endowment: the field norm blows up at the boundary like
        # alpha_min * omega_min / (l * margin)
        goods = 3
        e = wk.Economy(
            (wk.Consumer([0.2, 0.3, 0.5], [1.0, 0.5, 0.8]),
             wk.Consumer([0.4, 0.4, 0.2], [0.6, 1.2, 0.9]))
        )
        alpha_min = min(float(c.alpha.min()) for c in e.consumers)
        omega_min = min(float(c.endowment.min()) for c in e.consumers)
        omega_sum = sum(float(c.endowment.sum()) for c in e.consumers)
        margins = 10.0 ** -np.arange(2, 8)
        norms = []
        for m in margins:
            rest = (1.0 - m) / (goods - 1)
            P = np.array([[m] + [rest] * (goods - 1)])
            z = aed_rows(e, P)[0]
            norms.append(np.linalg.norm(z))
            lower_bound = alpha_min * omega_min / (goods * m) - omega_sum
            assert norms[-1] >= lower_bound
        assert np.all(np.diff(norms) > 0)


def loop_aed_rows(e, P):
    """The per-consumer loop that the fused kernel of aed_rows replaced,
    kept as a reference: the sum of each consumer's scaled excess demand."""
    total = np.zeros_like(P)
    for c in e.consumers:
        total += excess_rows(c, P)
    return total


def random_scale(rng, kind, goods):
    d = goods - 1
    if kind == "unit":
        return wk.ConstantScale(1.0)
    if kind == "constant":
        return wk.ConstantScale(float(rng.uniform(0.1, 10.0)))
    if kind == "polynomial":
        return wk.PolynomialScale(
            ((float(rng.uniform(0.5, 2.0)), (0,) * d),)
            + tuple((float(rng.uniform(0.0, 1.0)), tuple(rng.integers(0, 3, d))) for _ in range(2))
        )
    if kind == "bump":
        center = rng.dirichlet(np.ones(goods))[:-1]
        return wk.BumpScale(tuple(center), float(rng.uniform(0.1, 0.5)), 2.0, 0.5)
    grid = rng.dirichlet(np.ones(goods), size=12)[:, :-1]
    return wk.SampledScale(grid, rng.uniform(0.5, 2.0, 12))


class TestFusedKernel:
    """aed_rows against the per-consumer loop it replaced."""

    @staticmethod
    def assert_matches_loop(e, P):
        # The kernel sums the scaled demands before subtracting the scaled
        # endowments, so its rounding is relative to the size of the terms
        # s_c x_c and s_c w_c, not of their difference: on a row where a
        # consumer's demand is close to its endowment the difference is
        # far smaller than either term.
        simplex = P / P.sum(axis=1, keepdims=True)
        terms = [
            (c.scale(simplex)[:, None] * (demand_rows(c, P) + c.endowment)).max(axis=1)
            for c in e.consumers
        ]
        bound = 1e-13 * np.sum(terms, axis=0)
        assert np.all(np.abs(aed_rows(e, P) - loop_aed_rows(e, P)).max(axis=1) <= bound)

    @pytest.mark.parametrize("goods", [2, 3, 4, 5])
    def test_matches_the_per_consumer_loop(self, goods, rng):
        kinds = ("unit", "constant", "polynomial", "bump", "sampled")
        for _ in range(10):
            consumers = []
            for _ in range(int(rng.integers(1, 7))):
                alpha = rng.dirichlet(np.ones(goods))
                omega = rng.uniform(0.0, 2.0, goods)
                omega[0] += 0.1
                consumers.append(wk.Consumer(alpha, omega, random_scale(rng, rng.choice(kinds), goods)))
            e = wk.Economy(tuple(consumers))
            self.assert_matches_loop(e, random_interior_prices(rng, 200, goods))

    @pytest.mark.parametrize("goods", [2, 3])
    def test_matches_the_loop_on_realized_economies(self, goods, rng):
        base = random_economy(rng, goods, 3)
        grid = rng.dirichlet(np.full(goods, 3.0), size=25)
        econ = wk.realize_economy(
            wk.CanonicalFamily.symmetric(goods), wk.economy_field(base), grid
        )
        assert all(type(c.scale).__name__ == "KernelSampledScale" for c in econ.consumers)
        self.assert_matches_loop(econ, random_interior_prices(rng, 200, goods, 3.0))

    @pytest.mark.parametrize("goods", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["constant", "kernel_sampled"])
    def test_a_row_gets_the_same_bits_in_any_batch(self, goods, kind, rng):
        # Newton runs on batches of a few rows, and the stacked trials of an
        # experiment must equal solo solves bit for bit.
        d = goods - 1
        for _ in range(3):
            consumers = []
            for j in range(int(rng.integers(2, 7))):
                alpha = rng.dirichlet(np.ones(goods))
                omega = rng.uniform(0.25, 2.0, goods)
                if kind == "constant":
                    scale = wk.ConstantScale(float(rng.uniform(0.5, 2.0)))
                else:
                    grid = rng.dirichlet(np.ones(goods), size=12)[:, :-1]
                    scale = wk.KernelSampledScale(
                        grid if d > 1 else grid[:, 0], rng.uniform(0.5, 2.0, 12),
                        good=j % goods, share=0.5, level=1.0,
                    )
                consumers.append(wk.Consumer(alpha, omega, scale))
            e = wk.Economy(tuple(consumers))
            P = random_interior_prices(rng, 2000, goods)
            batch = aed_rows(e, P)
            alone = np.vstack([aed_rows(e, P[i : i + 1]) for i in range(len(P))])
            assert np.array_equal(batch, alone)

    def test_nonpositive_scale_raises_the_same_error(self):
        bad = wk.Consumer(
            [0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((0.2, (0,)), (-1.0, (1,))))
        )
        e = wk.Economy((wk.Consumer([0.3, 0.7], [1, 1]), bad))
        P = np.array([[0.1, 0.9], [0.5, 0.5]])
        message = "scale must be strictly positive at every evaluated price"
        for kernel in (aed_rows, loop_aed_rows):
            with pytest.raises(ValueError, match=message):
                kernel(e, P)
        assert np.all(np.isfinite(aed_rows(e, P[:1])))


def kernel_scale(x, values, good, share=0.5, level=1.0):
    return wk.KernelSampledScale(x, values, good=good, share=share, level=level)


class TestKernelStacks:
    """The 1-d kernel_sampled scales of one grid are evaluated together,
    with the bits of each scale's own evaluation."""

    @staticmethod
    def per_scale(e, P):
        """The scale values, ``(n, consumers)``, one scale at a time."""
        return np.column_stack([_scale_values(c.scale, P) for c in e.consumers])

    def test_stacked_scales_match_each_scale(self, rng):
        x = np.linspace(0.01, 0.99, 41)
        other = np.sort(rng.uniform(0.0, 1.0, 17))
        shuffled = rng.permutation(len(x))
        scales = [
            kernel_scale(x, rng.uniform(0.5, 2.0, 41), good=0),
            # The same grid given in another order: one stack with the first.
            kernel_scale(x[shuffled], rng.uniform(0.5, 2.0, 41), good=1, share=0.3, level=2.0),
            kernel_scale(other, rng.uniform(0.5, 2.0, 17), good=1, share=0.7, level=0.5),
            wk.SampledScale(x, rng.uniform(0.5, 2.0, 41)),
            wk.PolynomialScale(((1.0, (0,)), (0.5, (2,)))),
            wk.BumpScale((0.5,), 0.2, 1.0, 1.0),
            wk.ConstantScale(2.0),
            kernel_scale(other, rng.uniform(0.5, 2.0, 17), good=0, share=0.2, level=3.0),
        ]
        e = wk.Economy(tuple(wk.Consumer([0.4, 0.6], [1.0, 0.5], s) for s in scales))
        assert [list(columns) for columns, _ in e.scale_groups] == [[0, 1], [2, 7], [3], [4], [5]]
        # Rows inside and beyond the grids, on and between their nodes.
        c = np.concatenate([rng.uniform(0.0, 1.0, 300), x, other, [0.0005, 0.9995]])
        P = np.column_stack([c, 1.0 - c]) * rng.uniform(0.5, 2.0, (len(c), 1))
        assert np.array_equal(aed_rows(e, P), aed_rows(e, P, S=self.per_scale(e, P)))

    def test_multi_dimensional_grids_keep_the_per_scale_path(self, rng):
        grid = rng.dirichlet(np.ones(3), size=12)[:, :-1]
        scales = [kernel_scale(grid, rng.uniform(0.5, 2.0, 12), good=g) for g in range(3)]
        consumers = (wk.Consumer([0.2, 0.3, 0.5], np.eye(3)[g], s) for g, s in enumerate(scales))
        e = wk.Economy(tuple(consumers))
        assert [list(columns) for columns, _ in e.scale_groups] == [[0], [1], [2]]
        P = random_interior_prices(rng, 50, 3)
        assert np.array_equal(aed_rows(e, P), aed_rows(e, P, S=self.per_scale(e, P)))

    def test_a_bad_value_raises_the_same_error(self):
        x = np.linspace(0.1, 0.9, 9)
        scales = [kernel_scale(x, np.ones(9), good=g) for g in range(2)]
        e = wk.Economy(tuple(wk.Consumer([0.5, 0.5], np.eye(2)[g], s) for g, s in enumerate(scales)))
        P = np.array([[0.5, 0.5], [np.nan, 0.5]])
        message = "scale must be strictly positive at every evaluated price"
        with pytest.raises(ValueError, match=message):
            aed_rows(e, P)
        with pytest.raises(ValueError, match=message):
            self.per_scale(e, P)


class TestJacobian:
    def test_symmetric_edgeworth_slope(self, sym_edgeworth):
        # z1(p1) = a + b (1 - p1)/p1 - 1, derivative -b / p1^2 = -2 at 0.5
        J = wk.chart_jacobian(sym_edgeworth, wk.ChartPoint([0.5]))
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(-2.0, abs=1e-6)

    def test_matches_analytic_derivative_along_family(self):
        for a, b in [(0.5, 0.5), (0.25, 0.5), (0.6, 0.3)]:
            e = wk.Economy(
                (wk.Consumer([a, 1 - a], [1, 0]), wk.Consumer([b, 1 - b], [0, 1]))
            )
            for p1 in (0.3, 0.5, 0.7):
                J = wk.chart_jacobian(e, wk.ChartPoint([p1]))
                assert J[0, 0] == pytest.approx(-b / p1**2, abs=1e-5)

    def test_constant_zero_field_has_zero_jacobian(self):
        flat = wk.chart_field(lambda C: np.zeros_like(C), goods=3)
        J = wk.chart_jacobian(flat, wk.ChartPoint([0.3, 0.3]))
        assert np.allclose(J, 0.0, atol=0.0)

    def test_inconsistent_steps_raise(self):
        # |c - 0.5|^1.3 has unbounded second derivative at 0.5: the two
        # finite-difference estimates cannot agree there.
        rough = wk.chart_field(lambda C: np.abs(C - 0.5) ** 1.3, goods=2)
        with pytest.raises(wk.JacobianConsistencyError):
            wk.chart_jacobian(rough, wk.ChartPoint([0.5]))
