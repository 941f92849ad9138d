import re

import numpy as np
import pytest

import walraskit as wk
from walraskit import equilibrium
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

    @pytest.mark.parametrize(
        "goods, message",
        [(1, "a field needs at least two goods, not goods=1"), (0, "a field needs at least two goods, not goods=0")]
        + [(goods, f"goods must be an integer, not {goods!r}") for goods in (2.0, True, "3", None)],
    )
    def test_goods_must_be_an_integer_of_at_least_two(self, goods, message):
        # Each of these failed deep inside the solver, not where the field was made.
        with pytest.raises(ValueError, match=re.escape(message)):
            wk.chart_field(lambda C: C, goods=goods)
        with pytest.raises(ValueError, match=re.escape(message)):
            wk.TangentField(goods, lambda C: C)

    def test_goods_may_be_a_numpy_integer(self):
        assert wk.chart_field(lambda C: C, goods=np.int64(3)).dim == 2

    def test_chart_width_checked(self):
        field = wk.chart_field(lambda C: C, goods=3)
        with pytest.raises(ValueError):
            field.chart_values(np.array([[0.1]]))

    @pytest.mark.parametrize(
        "goods, fn, shape",
        [
            (3, lambda C: 0.5 - C.T, (2, 6)),
            (3, lambda C: (0.5 - C).ravel(), (12,)),
            (3, lambda C: (0.5 - C)[:, :1], (6, 1)),
            (2, lambda C: np.vstack([C, C[:1]]), (7, 1)),
            (2, lambda C: np.append(C[:, 0], 0.0), (7,)),
            (2, lambda C: 0.5, ()),
        ],
        ids=["transposed", "flattened", "too-narrow", "row-too-many", "flat-too-long", "scalar"],
    )
    def test_a_chart_map_of_another_shape_is_refused(self, goods, fn, shape):
        # The transposed and flattened results have the right size: a reshape
        # would scramble them into place.
        field = wk.chart_field(fn, goods=goods)
        C = np.full((6, goods - 1), 0.3)
        message = f"chart map returned shape {shape} for 6 chart rows of width {goods - 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            field.chart_values(C)

    def test_a_two_good_chart_map_may_return_a_flat_column(self):
        C = np.linspace(0.1, 0.9, 7)[:, None]
        flat = wk.chart_field(lambda C: 0.5 - C[:, 0], goods=2).chart_values(C)
        assert flat.shape == (7, 1)
        assert np.array_equal(flat, wk.chart_field(lambda C: 0.5 - C, goods=2).chart_values(C))

    @pytest.mark.parametrize("row", [[1.2], [-0.1], [np.nan]])
    def test_economy_field_rejects_prices_off_the_open_simplex(self, row):
        # chart row 1.2 embeds to the price row (1.2, -0.2)
        field = wk.economy_field(edgeworth_symmetric())
        with pytest.raises(ValueError, match="finite and strictly positive"):
            field.chart_values([row])

    def test_rows_in_fortran_order_get_the_bits_of_c_order(self):
        # aed_rows's products sum in another order over Fortran-ordered rows
        # (3.6e-12 apart on this grid), so the chart map takes them in C order.
        C = equilibrium._scan_grid(2)[0]
        for seed in range(3):
            field = wk.economy_field(random_economy(np.random.default_rng(seed), 3, 3))
            assert np.array_equal(field.chart_values(np.asfortranarray(C)), field.chart_values(C))
            assert np.array_equal(field.full_values(np.asfortranarray(C))[1], field.full_values(C)[1])

    def test_c_ordered_rows_reach_the_chart_map_uncopied(self):
        seen = []
        field = wk.chart_field(lambda C: seen.append(C) or C, goods=3)
        C = np.full((4, 2), 0.2)
        field.chart_values(C)
        field.chart_values(np.asfortranarray(C))
        assert seen[0] is C
        assert seen[1].flags.c_contiguous


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
