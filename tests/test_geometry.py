import numpy as np
import pytest

import walraskit as wk


class TestFrames:
    def test_simplex_to_sphere_symmetric(self):
        p = wk.simplex_point([0.5, 0.5])
        q = wk.simplex_to_sphere(p)
        assert np.allclose(q.coords, [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    def test_simplex_to_sphere_barycenter(self):
        p = wk.simplex_point([1 / 3, 1 / 3, 1 / 3])
        q = wk.simplex_to_sphere(p)
        assert np.allclose(q.coords, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_simplex_to_sphere_general(self):
        # radial projection by hand: divide by sqrt(0.4^2 + 0.6^2)
        q = wk.simplex_to_sphere(wk.simplex_point([0.4, 0.6]))
        assert np.allclose(q.coords, np.array([0.4, 0.6]) / np.sqrt(0.52), atol=1e-15)

    @pytest.mark.parametrize(
        "coords,expected",
        [
            ([np.sqrt(2) / 2, np.sqrt(2) / 2], [0.5, 0.5]),
            (np.full(3, 1 / np.sqrt(3)), [1 / 3, 1 / 3, 1 / 3]),
            ([0.6, 0.8], [3 / 7, 4 / 7]),
        ],
    )
    def test_sphere_to_simplex(self, coords, expected):
        p = wk.sphere_point(coords)
        assert np.allclose(wk.sphere_to_simplex(p).coords, expected, atol=1e-15)

    def test_round_trip_identity(self, rng):
        for goods in (2, 3, 5):
            for _ in range(50):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                back = wk.sphere_to_simplex(wk.simplex_to_sphere(p))
                assert np.max(np.abs(back.coords - p.coords)) <= 1e-12

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            wk.simplex_point([0.0, 1.0])
        with pytest.raises(ValueError):
            wk.sphere_point([1.0, 0.0])
        with pytest.raises(ValueError):
            wk.simplex_point([-0.1, 1.1])

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError):
            wk.simplex_point([0.5, 0.6])
        with pytest.raises(ValueError):
            wk.sphere_point([0.5, 0.5])


class TestChart:
    def test_embed_two_goods(self):
        p = wk.chart_embed(wk.ChartPoint([0.3]))
        assert np.allclose(p.coords, [0.3, 0.7], atol=1e-15)

    def test_embed_three_goods(self):
        p = wk.chart_embed(wk.ChartPoint([0.2, 0.5]))
        assert np.allclose(p.coords, [0.2, 0.5, 0.3], atol=1e-15)

    def test_round_trip(self, rng):
        for goods in (2, 3, 4):
            for _ in range(50):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                c = wk.chart_project(p)
                assert np.max(np.abs(wk.chart_embed(c).coords - p.coords)) <= 1e-12

    def test_rejects_exterior_chart_points(self):
        with pytest.raises(ValueError):
            wk.ChartPoint([0.6, 0.5])
        with pytest.raises(ValueError):
            wk.ChartPoint([-0.1])
        with pytest.raises(ValueError):
            wk.ChartPoint([1.0])


class TestTangent:
    def test_projecting_the_normal_gives_zero(self):
        p = wk.sphere_point([np.sqrt(2) / 2, np.sqrt(2) / 2])
        v = wk.tangent_project(p, p.coords)
        assert np.allclose(v.components, 0.0, atol=1e-15)

    def test_tangent_vector_is_unchanged(self):
        p = wk.sphere_point([np.sqrt(2) / 2, np.sqrt(2) / 2])
        v = wk.tangent_project(p, [1.0, -1.0])
        assert np.allclose(v.components, [1.0, -1.0], atol=1e-15)

    def test_hand_evaluated_projection(self):
        # v - (p.v) p with p = (0.6, 0.8), v = (1, 0): p.v = 0.6
        p = wk.sphere_point([0.6, 0.8])
        v = wk.tangent_project(p, [1.0, 0.0])
        assert np.allclose(v.components, [0.64, -0.48], atol=1e-15)

    def test_idempotent(self, rng):
        for goods in (2, 3, 5):
            for _ in range(30):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                v = rng.standard_normal(goods)
                once = wk.tangent_project(p, v)
                twice = wk.tangent_project(once.base, once.components)
                assert np.max(np.abs(twice.components - once.components)) <= 1e-12

    def test_tangency_enforced(self):
        p = wk.sphere_point([0.6, 0.8])
        with pytest.raises(ValueError):
            wk.TangentVector(p, np.array([1.0, 1.0]))
        # the escape hatch used by rejection tests skips the invariant
        bad = wk.TangentVector(p, np.array([1.0, 1.0]), check=False)
        assert bad.components @ p.coords != 0.0


class TestBoundaryMargin:
    @pytest.mark.parametrize(
        "coords,expected",
        [([0.5, 0.5], 0.5), ([0.2, 0.5, 0.3], 0.2), ([0.01, 0.99], 0.01)],
    )
    def test_values(self, coords, expected):
        assert wk.boundary_margin(wk.simplex_point(coords)) == pytest.approx(expected)

    def test_margin_of_sphere_point_uses_simplex_coords(self):
        p = wk.sphere_point([0.6, 0.8])
        assert wk.boundary_margin(p) == pytest.approx(3 / 7)
