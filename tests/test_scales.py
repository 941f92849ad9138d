import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.spatial import Delaunay, QhullError

import walraskit as wk
from walraskit import scales
from walraskit.cli import _decomposition_grid
from walraskit.econfile import economy_to_dict
from walraskit.scales import _delaunay, _pchip_table, scale_from_dict
from support import random_economy

BENCH = Path(__file__).resolve().parents[1] / "bench"


def rows(*points):
    return np.asarray(points, dtype=float)


def within_and_around(rng, nodes, n=300):
    """Simplex price rows inside the hull of ``nodes`` (random convex
    combinations), outside it (near the faces), and within 1e-6 of a face."""
    inside = rng.dirichlet(np.full(len(nodes), 0.3), size=n) @ nodes
    outside = rng.dirichlet(np.full(nodes.shape[1], 0.2), size=n)
    on_face = rng.dirichlet(np.ones(nodes.shape[1]), size=n)
    on_face[np.arange(n), rng.integers(nodes.shape[1], size=n)] = rng.uniform(1e-9, 1e-6, size=n)
    on_face /= on_face.sum(axis=1, keepdims=True)
    return np.vstack([inside, outside, on_face])


class TestVocabulary:
    def test_constant(self):
        s = wk.ConstantScale(3.0)
        assert np.allclose(s(rows([0.5, 0.5], [0.2, 0.8])), 3.0)
        with pytest.raises(ValueError):
            wk.ConstantScale(0.0)

    def test_polynomial_in_chart_coords(self):
        # 1 + c1 on the two-good chart, i.e. 1 + p1
        s = wk.PolynomialScale(((1.0, (0,)), (1.0, (1,))))
        assert np.allclose(s(rows([0.25, 0.75], [0.5, 0.5])), [1.25, 1.5])

    def test_polynomial_multivariate(self):
        # 2 c1 c2^2 on a three-good chart
        s = wk.PolynomialScale(((2.0, (1, 2)),))
        P = rows([0.2, 0.5, 0.3])
        assert s(P)[0] == pytest.approx(2 * 0.2 * 0.25)

    def test_bump_support(self):
        s = wk.BumpScale(center=(0.5,), radius=0.1, height=2.0, floor=1.0)
        P = rows([0.5, 0.5], [0.3, 0.7])
        v = s(P)
        assert v[0] == pytest.approx(1.0 + 2.0)  # exp(1 - 1/(1-0)) = 1 at center
        assert v[1] == pytest.approx(1.0)        # outside the support

    @pytest.mark.parametrize("field", ["center", "radius", "height", "floor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bump_rejects_non_finite_fields(self, field, bad):
        # A NaN radius once made the bump vanish: the floor at every price.
        fields = {"center": (0.5,), "radius": 0.2, "height": 5.0, "floor": 1.0}
        fields[field] = (bad,) if field == "center" else bad
        with pytest.raises(ValueError, match="bump center, radius, height and floor must be finite"):
            wk.BumpScale(**fields)

    def test_polynomial_powers_are_integers(self):
        # An integral float is the integer it names; 1.5 once read as 1.
        assert scale_from_dict({"type": "polynomial", "terms": [[1.0, [2.0]]]}).terms == ((1.0, (2,)),)
        for bad in (1.5, -1, True, np.nan, np.inf, "2"):
            with pytest.raises(ValueError, match="polynomial powers must be non-negative integers"):
                scale_from_dict({"type": "polynomial", "terms": [[1.0, [bad]]]})

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "constant", "value": True},
            {"type": "polynomial", "terms": [[True, [1]]]},
            {"type": "bump", "center": [0.5], "radius": True, "height": 1.0, "floor": 1.0},
            {"type": "bump", "center": [True], "radius": 0.2, "height": 1.0, "floor": 1.0},
            {"type": "bump", "center": [0.5], "radius": 0.2, "height": False, "floor": 1.0},
            {"type": "bump", "center": [0.5], "radius": 0.2, "height": 1.0, "floor": True},
            {"type": "kernel_sampled", "grid": [[0.2], [0.8]], "values": [1, 1], "good": 0, "share": True, "level": 1.0},
            {"type": "kernel_sampled", "grid": [[0.2], [0.8]], "values": [1, 1], "good": 0, "share": 0.5, "level": True},
            {"type": "constant", "value": "2.0"},
        ],
        ids=["value", "coeff", "radius", "center", "height", "floor", "share", "level", "value-text"],
    )
    def test_a_bool_is_not_a_number(self, data):
        # ``value: true`` once read as the constant 1.0.
        with pytest.raises(ValueError, match="must be a number, not"):
            scale_from_dict(data)

    def test_sampled_stays_within_node_range(self, rng):
        # Positive nodes give a positive scale everywhere: no interpolant
        # leaves the range of its node values.  One chart dimension: PCHIP
        # between the nodes, held constant beyond them.
        grid = np.linspace(0.1, 0.9, 9)[:, None]
        values = 1.0 + np.sin(6 * grid[:, 0]) ** 2
        s = wk.SampledScale(grid, values)
        dense = np.linspace(0.05, 0.95, 500)
        out = s(np.column_stack([dense, 1 - dense]))
        assert out.min() >= values.min() - 1e-12
        assert out.max() <= values.max() + 1e-12
        # exact at the nodes
        node_rows = np.column_stack([grid[:, 0], 1 - grid[:, 0]])
        assert np.allclose(s(node_rows), values, atol=1e-14)

        # Two and three chart dimensions: linear on the Delaunay triangulation
        # of random nodes, nearest value outside their hull.
        for goods in (3, 4):
            nodes = rng.dirichlet(np.ones(goods), size=40)
            values = rng.uniform(0.5, 3.0, size=40)
            s = wk.SampledScale(nodes[:, :-1], values)
            probes = within_and_around(rng, nodes)
            out = s(probes)
            assert np.all(np.isfinite(out))
            assert out.min() >= values.min() - 1e-12
            assert out.max() <= values.max() + 1e-12

        # The kernel_sampled ratios of a realised economy, recovered from the
        # scale as scale * p_good * level / share.
        for goods in (2, 3):
            target = wk.economy_field(random_economy(rng, goods, 3))
            if goods == 2:
                nodes = np.column_stack([np.linspace(0.01, 0.99, 41), np.linspace(0.99, 0.01, 41)])
            else:
                nodes = rng.dirichlet(np.ones(goods), size=41)
            economy = wk.realize_economy(wk.CanonicalFamily.symmetric(goods), target, nodes)
            probes = within_and_around(rng, nodes)
            for consumer in economy.consumers:
                k = consumer.scale
                ratio = k(probes) * probes[:, k.good] * k.level / k.share
                assert ratio.min() >= k.values.min() * (1 - 1e-12)
                assert ratio.max() <= k.values.max() * (1 + 1e-12)

    def test_sampled_rejects_nonpositive_values(self):
        grid = np.array([[0.2, 0.3], [0.5, 0.2], [0.3, 0.3]])
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                wk.SampledScale(np.array([[0.2], [0.8]]), np.array([1.0, bad]))
            with pytest.raises(ValueError):
                wk.SampledScale(grid, np.array([1.0, bad, 2.0]))

    def test_kernel_sampled_matches_formula(self):
        grid = np.linspace(0.1, 0.9, 5)[:, None]
        values = np.full(5, 2.0)
        s = wk.KernelSampledScale(grid, values, good=0, share=0.5, level=1.0)
        P = rows([0.4, 0.6])
        assert s(P)[0] == pytest.approx(2.0 * 0.5 / 0.4)

    def test_one_triangulation_per_grid(self, tmp_path, rng):
        # The l kernel_sampled scales of a realised economy share their grid,
        # and so does the same economy read back from its file.  Each scale
        # triangulates on its first evaluation, through the cache.
        target = wk.economy_field(random_economy(rng, 3, 2))
        _delaunay.cache_clear()
        economy = wk.realize_economy(
            wk.CanonicalFamily.symmetric(3), target, rng.dirichlet(np.ones(3), size=30)
        )
        assert _delaunay.cache_info().misses == 0
        probes = within_and_around(rng, rng.dirichlet(np.ones(3), size=30))
        for c in economy.consumers:
            c.scale(probes)
        assert (_delaunay.cache_info().misses, _delaunay.cache_info().hits) == (1, 2)
        wk.save_economy(tmp_path / "e.yaml", economy)
        again = wk.load_economy(tmp_path / "e.yaml")
        assert (_delaunay.cache_info().misses, _delaunay.cache_info().hits) == (1, 2)
        for c, d in zip(economy.consumers, again.consumers):
            assert np.array_equal(c.scale(probes), d.scale(probes))
        assert (_delaunay.cache_info().misses, _delaunay.cache_info().hits) == (1, 5)
        # another grid gets its own triangulation
        other = wk.SampledScale(rng.dirichlet(np.ones(3), size=30)[:, :-1], np.ones(30))
        assert _delaunay.cache_info().misses == 1
        other(probes)
        assert _delaunay.cache_info().misses == 2


# Grids of four and five points that do not span the chart: collinear in two
# chart dimensions (three goods), coplanar in three (four goods).
FLAT_GRIDS = {
    3: [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]],
    4: [[0.1, 0.2, 0.3], [0.2, 0.1, 0.3], [0.3, 0.2, 0.1], [0.2, 0.3, 0.1], [0.1, 0.3, 0.2]],
}


class TestGridChecks:
    """An n-d grid is checked, by a rank test, when its scale is built, and
    triangulated when the scale is first evaluated."""

    @pytest.mark.parametrize("goods", [3, 4])
    def test_a_flat_grid_is_refused_when_the_scale_is_built(self, tmp_path, goods):
        grid = FLAT_GRIDS[goods]
        n, d = len(grid), goods - 1
        message = f"sampled grid of {n} points in {d} chart dimensions cannot be triangulated"
        _delaunay.cache_clear()
        with pytest.raises(ValueError, match=message):
            wk.SampledScale(grid, np.ones(n))
        with pytest.raises(ValueError, match=message):
            wk.KernelSampledScale(grid, np.ones(n), good=0, share=0.5, level=1.0)
        path = tmp_path / "flat.yaml"
        path.write_text(
            f"goods: {goods}\nconsumers:\n- alpha: {[1.0 / goods] * goods}\n"
            f"  endowment: {[1.0] * goods}\n"
            f"  scale: {{type: sampled, grid: {grid}, values: {[1.0] * n}}}\n"
        )
        with pytest.raises(wk.EconomyFormatError, match=f"consumer 0: invalid scale: {message}"):
            wk.load_economy(path)
        # Refused before any triangulation was tried, and qhull agrees.
        assert _delaunay.cache_info().misses == 0
        with pytest.raises(QhullError):
            Delaunay(np.asarray(grid))

    def test_the_grids_of_tests_and_artifacts_pass_the_rank_test(self, rng, monkeypatch):
        # Every n-d grid that a test or tools/cli_artifacts.py builds is a
        # draw of _decomposition_grid (the realize pool of the benchmark
        # inputs, here at the artifacts' seed 301) or of a Dirichlet, of at
        # least l rows: the rank test passes them all, and qhull
        # triangulates them.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        pool = workloads.Realize(301, smoke=False)
        grids = [
            _decomposition_grid(len(alphas[0]), pool.grid, seed)
            for alphas, _, seed in pool.entries
            if len(alphas[0]) > 2
        ]
        grids += [rng.dirichlet(np.ones(goods), size=size) for goods in (3, 4, 5, 6) for size in (goods, 25, 201)]
        assert len(grids) > 20
        for grid in grids:
            n = len(grid)
            scale = wk.SampledScale(grid[:, :-1], np.linspace(1.0, 2.0, n))
            values = scale(grid)
            assert np.allclose(values, scale.values, rtol=1e-12)

    def test_a_grid_that_qhull_refuses_raises_on_first_evaluation(self, monkeypatch, rng):
        # A grid flat within qhull's precision, but not by the rank test.
        def refuse(data, shape):
            raise QhullError("QH6154 Qhull precision error: initial simplex is flat\nmore detail")

        monkeypatch.setattr(scales, "_delaunay", refuse)
        scale = wk.SampledScale(rng.dirichlet(np.ones(3), size=10)[:, :-1], np.ones(10))
        message = (
            r"^sampled grid of 10 points in 2 chart dimensions cannot be triangulated "
            r"\(QH6154 Qhull precision error: initial simplex is flat\)$"
        )
        with pytest.raises(ValueError, match=message):
            scale(rng.dirichlet(np.ones(3), size=5))


class TestPchip:
    """A 1-d sampled scale is scipy's ``PchipInterpolator`` to the bit,
    held constant beyond the end nodes."""

    @staticmethod
    def check(rng, x, y):
        scale = wk.SampledScale(x[:, None], y)
        order = np.argsort(x)
        xs, ys = x[order], y[order]
        reference = PchipInterpolator(xs, ys, extrapolate=False)
        q = np.concatenate(
            [
                xs,
                (xs[1:] + xs[:-1]) / 2,
                rng.uniform(xs[0], xs[-1], 200),
                xs[0] - rng.uniform(0.0, xs[0], 20),
                xs[-1] + rng.uniform(0.0, 1.0 - xs[-1], 20),
            ]
        )
        got = scale(np.column_stack([q, 1.0 - q]))
        assert np.array_equal(got, reference(np.clip(q, xs[0], xs[-1])))
        # Exact at every node but the last, which closes the last cubic, as
        # in scipy: a few units in the last place at most.
        assert np.array_equal(got[: xs.size - 1], ys[:-1])
        assert abs(got[xs.size - 1] - ys[-1]) <= 8 * np.spacing(ys[-1])

    @pytest.mark.parametrize("values", ["random", "monotone", "plateaus"])
    def test_random_nodes_match_scipy_bit_for_bit(self, rng, values):
        for _ in range(40):
            n = int(rng.integers(2, 401))
            x = rng.uniform(0.02, 0.98, n)   # unsorted
            y = rng.uniform(0.5, 3.0, n)
            if values == "monotone":
                y = np.sort(y)[:: rng.choice([-1, 1])][np.argsort(np.argsort(x))]
            elif values == "plateaus":
                y = np.round(y) + 0.5
            self.check(rng, x, y)

    @pytest.mark.parametrize(
        "x, y, branch",
        [
            ([0.1, 0.2], [1.0, 2.0], "line"),
            ([0.1, 0.2, 0.3], [1.0, 2.0, 2.5], "three-point"),
            ([0.1, 0.2, 0.3], [1.0, 1.1, 3.0], "zero"),
            ([0.1, 0.2, 0.3], [1.0, 1.0, 2.0], "zero"),
            ([0.1, 0.3, 0.35], [1.0, 2.0, 1.0], "three-secants"),
            ([0.1, 0.2, 0.3], [1.0, 2.0, 1.5], "three-point"),
        ],
    )
    @pytest.mark.parametrize("mirror", [False, True], ids=["left", "right"])
    def test_each_end_rule_matches_scipy(self, rng, x, y, branch, mirror):
        x, y = np.asarray(x), np.asarray(y)
        secant = (y[1] - y[0]) / (x[1] - x[0])
        slope = _pchip_table(x, y)[2, 0]
        if branch == "zero":
            assert slope == 0.0
        elif branch == "three-secants":
            assert slope == 3.0 * secant
        elif branch == "line":
            assert slope == secant
        else:
            assert slope not in (0.0, 3.0 * secant, secant)
        # Mirrored, the same shape meets the end rule at the right end.
        self.check(rng, 1.0 - x if mirror else x, y)


class TestSerialisation:
    @pytest.mark.parametrize(
        "scale",
        [
            wk.ConstantScale(2.5),
            wk.PolynomialScale(((1.0, (0,)), (-0.25, (2,)))),
            wk.BumpScale((0.4,), 0.2, 1.5, 0.5),
            wk.SampledScale(np.linspace(0.1, 0.9, 7)[:, None], np.linspace(1, 2, 7)),
            wk.KernelSampledScale(
                np.linspace(0.1, 0.9, 7)[:, None], np.linspace(1, 2, 7), 1, 0.5, 1.0
            ),
        ],
    )
    def test_round_trip(self, scale, rng):
        rebuilt = scale_from_dict(scale.to_dict())
        xs = rng.uniform(0.05, 0.95, size=40)
        P = np.column_stack([xs, 1 - xs])
        assert np.array_equal(scale(P), rebuilt(P))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            scale_from_dict({"type": "mystery"})


class TestSharedGrid:
    """The scales of an economy file that share one grid, their grid read
    once, are evaluated together on one table of them all, built in one
    pass; every bit is that of each scale built alone from its own part of
    the file."""

    @pytest.mark.parametrize("goods", [2, 3])
    def test_shared_builds_equal_the_scales_built_alone(self, goods, tmp_path, rng):
        if goods == 2:
            economy = wk.build_continuum_economy((0.4, 0.6), grid=201)
        else:
            target = wk.Economy((wk.Consumer([0.2, 0.3, 0.5], [1, 2, 1]), wk.Consumer([0.5, 0.3, 0.2], [1, 0, 1])))
            grid = _decomposition_grid(3, 201, 49)
            economy = wk.realize_economy(wk.CanonicalFamily.symmetric(3), wk.economy_field(target), grid)
        wk.save_economy(tmp_path / "economy.yaml", economy)
        shared = wk.load_economy(tmp_path / "economy.yaml")
        scales_shared = [c.scale for c in shared.consumers]
        alone = [scale_from_dict(c["scale"]) for c in economy_to_dict(shared)["consumers"]]
        assert len(scales_shared) == goods
        for s, t in zip(scales_shared, alone):
            for name in ("grid", "values"):
                assert getattr(s, name).tobytes() == getattr(t, name).tobytes()
        # 10,000 simplex rows, some of them beyond the grid's nodes.
        P = rng.dirichlet(np.full(goods, 0.7), size=10_000)
        for columns, values in shared.scale_groups:
            got = values(P)
            want = np.column_stack([alone[k](P) for k in columns])
            assert got.tobytes() == want.tobytes()
        if goods == 2:
            # The table of both, built in one pass, is each scale's own.
            (x, y0), (_, y1) = (s._pchip for s in scales_shared)
            table = _pchip_table(x, np.column_stack([y0, y1]))
            for k, t in enumerate(alone):
                assert table[..., k].tobytes() == _pchip_table(*t._pchip).tobytes()
