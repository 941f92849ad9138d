import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import walraskit as wk
from walraskit.geometry import _close_pairs, _linked_components, _row_sums, chart_rows_embed


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
        p = wk.PricePoint(coords, "sphere")
        assert np.allclose(p.simplex_coords(), expected, atol=1e-15)

    def test_round_trip_identity(self, rng):
        for goods in (2, 3, 5):
            for _ in range(50):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                back = wk.simplex_to_sphere(p).simplex_coords()
                assert np.max(np.abs(back - p.coords)) <= 1e-12

    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError):
            wk.simplex_point([0.0, 1.0])
        with pytest.raises(ValueError):
            wk.PricePoint([1.0, 0.0], "sphere")
        with pytest.raises(ValueError):
            wk.simplex_point([-0.1, 1.1])

    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError):
            wk.simplex_point([0.5, 0.6])
        with pytest.raises(ValueError):
            wk.PricePoint([0.5, 0.5], "sphere")


class TestChart:
    def test_embed_two_goods(self):
        p = chart_rows_embed(wk.ChartPoint([0.3]).coords)[0]
        assert np.allclose(p, [0.3, 0.7], atol=1e-15)

    def test_embed_three_goods(self):
        p = chart_rows_embed(wk.ChartPoint([0.2, 0.5]).coords)[0]
        assert np.allclose(p, [0.2, 0.5, 0.3], atol=1e-15)

    def test_round_trip(self, rng):
        for goods in (2, 3, 4):
            for _ in range(50):
                p = wk.simplex_point(rng.dirichlet(np.ones(goods)))
                c = wk.ChartPoint(p.simplex_coords()[:-1])
                assert np.max(np.abs(chart_rows_embed(c.coords)[0] - p.coords)) <= 1e-12

    def test_rejects_exterior_chart_points(self):
        with pytest.raises(ValueError):
            wk.ChartPoint([0.6, 0.5])
        with pytest.raises(ValueError):
            wk.ChartPoint([-0.1])
        with pytest.raises(ValueError):
            wk.ChartPoint([1.0])


class TestTangent:
    def test_projecting_the_normal_gives_zero(self):
        p = wk.PricePoint([np.sqrt(2) / 2, np.sqrt(2) / 2], "sphere")
        v = wk.tangent_project(p, p.coords)
        assert np.allclose(v.components, 0.0, atol=1e-15)

    def test_tangent_vector_is_unchanged(self):
        p = wk.PricePoint([np.sqrt(2) / 2, np.sqrt(2) / 2], "sphere")
        v = wk.tangent_project(p, [1.0, -1.0])
        assert np.allclose(v.components, [1.0, -1.0], atol=1e-15)

    def test_hand_evaluated_projection(self):
        # v - (p.v) p with p = (0.6, 0.8), v = (1, 0): p.v = 0.6
        p = wk.PricePoint([0.6, 0.8], "sphere")
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
        p = wk.PricePoint([0.6, 0.8], "sphere")
        for comps in ([1.0, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="tangent"):
                wk.TangentVector(p, np.array(comps))


def _near_row_inputs(rng):
    """``(X, radius)`` cases for the near-row search: random rows, exact
    repeats, ties in the first coordinate, rows on a lattice of the radius
    (pairs exactly ``radius`` apart, also across zero), and 0 and 1 rows."""
    for d in (1, 2, 3):
        for radius in (0.05, 0.3, 0.5):
            X = rng.uniform(-1.0, 1.0, (60, d))
            yield X, radius
            X[30:50] = X[rng.integers(0, 30, 20)]
            yield X, radius
            X = rng.uniform(-1.0, 1.0, (60, d))
            X[:, 0] = rng.integers(0, 5, 60) * 0.1
            yield X, radius
            yield rng.integers(-3, 4, (40, d)) * radius, radius
            yield np.round(rng.uniform(-1.0, 1.0, (40, d)), 1), radius
        yield np.empty((0, d)), 0.1
        yield rng.uniform(0.0, 1.0, (1, d)), 0.1


class TestNearRows:
    def test_close_pairs_are_the_kd_tree_pairs(self, rng):
        for X, radius in _near_row_inputs(rng):
            for p in (2, np.inf):
                got = _close_pairs(X, radius, p)
                assert got.shape[1] == 2 and (got[:, 0] < got[:, 1]).all()
                want = cKDTree(X).query_pairs(radius, p=p, output_type="ndarray")
                assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))
                assert len(got) == len(want)

    def test_linked_components_are_the_sparse_graph_components(self, rng):
        for X, radius in _near_row_inputs(rng):
            pairs = cKDTree(X).query_pairs(radius, output_type="ndarray")
            graph = coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(len(X), len(X)))
            want = connected_components(graph, directed=False)[1]
            assert _linked_components(X, radius).tolist() == want.tolist()

    def test_linked_components_keep_only_the_accepted_pairs(self):
        # A chain 0 - 1 - 2 - 3 cut between 1 and 2.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = _linked_components(X, 1.0, lambda pairs: pairs.min(axis=1) != 1)
        assert labels.tolist() == [0, 0, 1, 1]


class TestRowSums:
    """``_row_sums`` adds columns where numpy's ``sum(axis=-1)`` adds each
    row: the same additions in the same order, so the same bits, signed
    zeros too, for rows of every width and arrays of every layout."""

    @pytest.mark.parametrize("width", range(1, 10))
    @pytest.mark.parametrize("layout", ["rows", "stacked", "strided", "few"])
    def test_every_bit_is_numpy_s(self, rng, width, layout):
        V = rng.standard_normal((3000, 3, width)) * 10.0 ** rng.integers(-20, 20, (3000, 3, width))
        V[rng.random(V.shape) < 0.2] = -0.0
        V = {"rows": V[:, 0], "stacked": V, "strided": V[::2, 1:], "few": V[:10, 0]}[layout]
        assert _row_sums(V).tobytes() == V.sum(axis=-1).tobytes()
        assert np.sqrt(_row_sums(V * V)).tobytes() == np.linalg.norm(V, axis=-1).tobytes()
