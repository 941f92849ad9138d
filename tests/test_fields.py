import numpy as np
import pytest

import walraskit as wk
from walraskit.fields import as_field
from support import edgeworth_symmetric, random_economy


class TestLift:
    def test_chart_lift_recovers_tangency_exactly(self, rng):
        field = wk.chart_field(lambda C: np.sin(3 * C), goods=3)
        C = rng.uniform(0.05, 0.45, size=(20, 2))
        P, Z = field.full_values(C)
        assert np.max(np.abs(np.einsum("ij,ij->i", P, Z))) <= 1e-15

    def test_economy_field_matches_direct_aed(self, rng):
        e = random_economy(rng, 3, 3)
        field = wk.economy_field(e)
        for _ in range(20):
            p = wk.simplex_point(rng.dirichlet(np.full(3, 3.0)))
            via_field = field.value(p).components
            direct = wk.aed(e, p).components
            assert np.max(np.abs(via_field - direct)) <= 1e-9

    def test_value_returns_tangent_vector(self):
        field = wk.economy_field(edgeworth_symmetric())
        v = field.value(wk.simplex_point([0.3, 0.7]))
        assert isinstance(v, wk.TangentVector)
        assert abs(v.base.coords @ v.components) <= 1e-10 * max(1.0, v.norm())

    def test_as_field_coercion(self):
        e = edgeworth_symmetric()
        assert isinstance(as_field(e), wk.TangentField)
        f = wk.chart_field(lambda C: C, goods=2)
        assert as_field(f) is f
        with pytest.raises(TypeError):
            as_field("not a field")

    def test_chart_width_checked(self):
        field = wk.chart_field(lambda C: C, goods=3)
        with pytest.raises(ValueError):
            field.chart_values(np.array([[0.1]]))

    @pytest.mark.parametrize("row", [[1.2], [-0.1], [np.nan]])
    def test_economy_field_rejects_prices_off_the_open_simplex(self, row):
        # chart row 1.2 embeds to the price row (1.2, -0.2)
        field = wk.economy_field(edgeworth_symmetric())
        with pytest.raises(ValueError, match="finite and strictly positive"):
            field.chart_values([row])


class TestChartJacobian:
    def test_quadratic_field_exact(self):
        # chart map (c1^2 - c2, c1 c2): Jacobian [[2 c1, -1], [c2, c1]]
        def fn(C):
            return np.column_stack([C[:, 0] ** 2 - C[:, 1], C[:, 0] * C[:, 1]])

        field = wk.chart_field(fn, goods=3)
        c = np.array([0.3, 0.2])
        J = wk.chart_jacobian(field, c)
        assert np.allclose(J, [[0.6, -1.0], [0.2, 0.3]], atol=1e-9)

    def test_accepts_price_and_chart_points(self):
        e = edgeworth_symmetric()
        J1 = wk.chart_jacobian(e, wk.ChartPoint([0.5]))
        J2 = wk.chart_jacobian(e, wk.simplex_point([0.5, 0.5]))
        assert np.allclose(J1, J2, atol=1e-9)
