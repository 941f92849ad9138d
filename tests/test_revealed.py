import itertools
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree

import walraskit as wk
from support import brute_force_sarp, observed_demand
from walraskit.consumers import demand_rows, excess_rows
from walraskit.geometry import _greedy_cover
from walraskit.revealed import DISTINCT_TOL, ROW_BLOCK, TIE_TOL, TILE, _find_cycle, preference_matrix


def cd_dataset(rng, goods=2, n_obs=20, alpha=None, omega=None):
    alpha = alpha if alpha is not None else rng.dirichlet(np.full(goods, 3.0))
    omega = omega if omega is not None else rng.uniform(0.25, 2.0, goods)
    consumer = wk.Consumer(alpha, omega)
    prices = [wk.simplex_point(rng.dirichlet(np.full(goods, 2.0))) for _ in range(n_obs)]
    return observed_demand(consumer, prices)


def _loop_distinct_groups(X):
    """The pairwise grouping loop that ``_greedy_cover`` replaced."""
    T = X.shape[0]
    rep = np.arange(T)
    for i in range(T):
        if rep[i] != i:
            continue
        same = np.max(np.abs(X - X[i]), axis=1) <= DISTINCT_TOL
        rep[same & (rep == np.arange(T))] = i
    return rep


def _loop_greedy_cover(X, order, radius, p):
    """``_greedy_cover`` with one ball query per unclaimed row."""
    tree = cKDTree(X)
    owner = np.full(len(X), -1)
    for k in order:
        if owner[k] >= 0:
            continue
        near = np.asarray(tree.query_ball_point(X[k], radius, p=p), dtype=int)
        owner[near[owner[near] < 0]] = k
    return owner


def _unit_bundles(X):
    """Bundles in units of each good's largest observed amount."""
    top = X.max(axis=0)
    return X / np.where(top > 0.0, top, 1.0)


def _scatter_preference_matrix(d):
    """``preference_matrix`` built by scattering the nonzero edges of the
    observation relation into the group matrix."""
    P, X = d.prices, d.bundles
    spend_own = np.einsum("ij,ij->i", P, X)
    weak = P @ X.T <= (1.0 + TIE_TOL) * spend_own[:, None]
    reps, groups = np.unique(_loop_distinct_groups(_unit_bundles(X)), return_inverse=True)
    i, j = np.nonzero(weak & (groups[:, None] != groups[None, :]))
    adj = np.zeros((reps.size, reps.size), dtype=bool)
    adj[groups[i], groups[j]] = True
    return adj, groups, weak


def _sparse_find_cycle(adj):
    """``_find_cycle`` over the whole graph in sparse form: the first mutual
    pair of the upper triangle, else strong components and a BFS."""
    mutual = np.argwhere(np.triu(adj & adj.T))
    if len(mutual):
        return [int(v) for v in mutual[0]]
    graph = csr_matrix(adj)
    _, labels = connected_components(graph, directed=True, connection="strong")
    cyclic = np.flatnonzero(np.bincount(labels)[labels] >= 2)
    if cyclic.size == 0:
        return None
    start = int(cyclic[0])
    order, pred = breadth_first_order(graph, start, return_predecessors=True)
    cycle = [int(order[adj[order, start]][0])]
    while cycle[-1] != start:
        cycle.append(int(pred[cycle[-1]]))
    return cycle[::-1]


def _best_times(fns, arg, repeats=5):
    """The least wall time of each of ``fns`` on ``arg`` over ``repeats``
    rounds, each round timing every one of them in turn, so that a slow
    spell of the host falls on all of them alike."""
    best = np.full(len(fns), np.inf)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            start = time.perf_counter()
            fn(arg)
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def assert_witness(ds, cycle):
    """Every step of a reported cycle is an edge between distinct bundles."""
    P, X = ds.prices, ds.bundles
    assert len(cycle) >= 2
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % len(cycle)]
        assert P[i] @ X[j] <= (1.0 + TIE_TOL) * (P[i] @ X[i])
    unit = _unit_bundles(X)
    for a, b in itertools.combinations(cycle, 2):
        assert np.max(np.abs(unit[a] - unit[b])) > DISTINCT_TOL


class TestSarpCheck:
    def test_hand_built_violation(self):
        # p1 = (1,1), x1 = (2,0): x2 costs 2 <= 2, so x1 R x2 (tie);
        # p2 = (1,2), x2 = (0,2): x1 costs 2 < 4, so x2 R x1 strictly.
        ds = wk.ObservationDataset([[1, 1], [1, 2]], [[2, 0], [0, 2]])
        result = wk.sarp_check(ds)
        assert not result.passed
        assert set(result.cycle) == {0, 1}

    def test_single_observation_passes(self):
        ds = wk.ObservationDataset([[1, 1]], [[1, 1]])
        assert wk.sarp_check(ds).passed

    def test_one_observation_takes_the_general_path(self):
        # One bundle group: it reveals only itself, and the graph has no edge.
        ds = wk.ObservationDataset([[0.2, 0.3, 0.5]], [[0.0, 4.0, 1.0]])
        adj, groups, weak = preference_matrix(ds)
        assert (adj.tolist(), groups.tolist(), weak.tolist()) == ([[False]], [0], [[True]])
        assert _find_cycle(adj) is None
        assert wk.sarp_check(ds) == wk.SarpResult(True)

    def test_identical_bundles_never_violate(self):
        ds = wk.ObservationDataset([[1, 1], [2, 1], [1, 3]], [[1, 1], [1, 1], [1, 1]])
        assert wk.sarp_check(ds).passed

    def test_cobb_douglas_data_passes(self, rng):
        for _ in range(25):
            ds = cd_dataset(rng, goods=int(rng.integers(2, 5)), n_obs=50)
            assert wk.sarp_check(ds).passed

    def test_order_invariance(self, rng):
        ds = wk.ObservationDataset([[1, 1], [1, 2], [2, 1]], [[2, 0], [0, 2], [1.2, 0.6]])
        base = wk.sarp_check(ds).passed
        for perm in itertools.permutations(range(3)):
            shuffled = wk.ObservationDataset(ds.prices[list(perm)], ds.bundles[list(perm)])
            assert wk.sarp_check(shuffled).passed == base

    def test_cycle_is_a_real_cycle(self, rng):
        # random bundles on random budget lines frequently violate; whenever a
        # cycle is reported, verify each step of it from the raw data
        found = 0
        for _ in range(50):
            P = rng.uniform(0.5, 2.0, size=(6, 2))
            X = rng.dirichlet(np.ones(2), size=6) * rng.uniform(5, 15, size=(6, 1)) / P
            ds = wk.ObservationDataset(P, X)
            result = wk.sarp_check(ds)
            if result.passed:
                continue
            found += 1
            assert_witness(ds, result.cycle)
        assert found > 0

    def test_matches_brute_force_oracle(self, rng):
        agree = 0
        for trial in range(60):
            n = int(rng.integers(2, 9))
            if trial % 2 == 0:
                ds = cd_dataset(rng, goods=2, n_obs=n)
            else:
                P = rng.uniform(0.5, 2.0, size=(n, 2))
                X = rng.dirichlet(np.ones(2), size=n) * rng.uniform(5, 15, size=(n, 1)) / P
                ds = wk.ObservationDataset(P, X)
            expected = brute_force_sarp(ds.prices, ds.bundles)
            assert wk.sarp_check(ds).passed == expected
            agree += 1
        assert agree == 60

    def test_three_cycle_without_two_cycle(self):
        # unit bundles: x^i R x^(i+1) strictly, and no pair is mutual
        P = [[1.0, 0.9, 2.0], [2.0, 1.0, 0.9], [0.9, 2.0, 1.0]]
        ds = wk.ObservationDataset(P, np.eye(3))
        result = wk.sarp_check(ds)
        assert not result.passed
        assert sorted(result.cycle) == [0, 1, 2]
        assert_witness(ds, result.cycle)

    def test_cycle_through_a_repeated_bundle(self):
        # observations 1 and 3 choose the same bundle; only observation 3's
        # price reveals it preferred to bundle 2, so the witness must name 3
        P = [[1, 3], [1, 2], [1, 1]]
        X = [[2, 0], [0, 2], [2, 0]]
        assert wk.sarp_check(wk.ObservationDataset(P[:2], X[:2])).passed
        ds = wk.ObservationDataset(P, X)
        result = wk.sarp_check(ds)
        assert not result.passed
        assert result.cycle == (2, 1)
        assert_witness(ds, result.cycle)

    def test_witness_edges_hold_with_repeated_bundles(self, rng):
        found = 0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            P = rng.uniform(0.5, 2.0, size=(n, 2))
            X = rng.dirichlet(np.ones(2), size=n) * rng.uniform(5, 15, size=(n, 1)) / P
            X = X[rng.integers(0, n, n)]  # draw the bundles with repeats
            ds = wk.ObservationDataset(P, X)
            result = wk.sarp_check(ds)
            assert result.passed == brute_force_sarp(P, X)
            if not result.passed:
                found += 1
                assert_witness(ds, result.cycle)
        assert found > 50

    def test_large_acyclic_dataset_passes(self, rng):
        ds = cd_dataset(rng, goods=3, n_obs=2000)
        assert wk.sarp_check(ds).passed

    def test_greedy_cover_matches_the_grouping_loop(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            centres = rng.uniform(0.0, 2.0, (4, 3))
            X = centres[rng.integers(0, 4, n)] + rng.uniform(-1, 1, (n, 3)) * DISTINCT_TOL
            owner = _greedy_cover(X, np.arange(n), DISTINCT_TOL, p=np.inf)
            assert owner.tolist() == _loop_distinct_groups(X).tolist()
        # a pair exactly DISTINCT_TOL apart is one group; a third point at
        # 2 * DISTINCT_TOL joins neither
        X = np.array([[0.0, 0.0], [DISTINCT_TOL, 0.0], [2 * DISTINCT_TOL, 0.0]])
        owner = _greedy_cover(X, np.arange(3), DISTINCT_TOL, p=np.inf)
        assert owner.tolist() == _loop_distinct_groups(X).tolist() == [0, 0, 2]

    def test_greedy_cover_matches_the_per_row_queries(self, rng):
        # Mostly lone rows, as in sampled data, with some clusters and exact
        # repeats among them.
        n = 2000
        X = rng.uniform(0.0, 2.0, (n, 3))
        X[:200] = X[rng.integers(0, 50, 200)] + rng.uniform(-1, 1, (200, 3)) * DISTINCT_TOL
        X[200:260] = X[rng.integers(0, n, 60)]
        for radius, p in ((DISTINCT_TOL, np.inf), (0.05, 2)):
            for order in (np.arange(n), rng.permutation(n)):
                owner = _greedy_cover(X, order, radius, p=p)
                assert owner.tolist() == _loop_greedy_cover(X, order, radius, p).tolist()

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            wk.ObservationDataset([[1, -1]], [[1, 1]])
        with pytest.raises(ValueError):
            wk.ObservationDataset([[1, 1]], [[1, -1]])
        with pytest.raises(ValueError):
            wk.ObservationDataset([[1, 1], [1, 2]], [[1, 1]])
        with pytest.raises(ValueError, match="finite"):
            wk.ObservationDataset([[1, np.nan]], [[1, 1]])
        with pytest.raises(ValueError, match="finite"):
            wk.ObservationDataset([[1, 1]], [[np.inf, 1]])


def _random_digraph(rng, n, kind):
    """A random adjacency matrix with an empty diagonal: ``"any"`` edges,
    ``"oriented"`` (no mutual pair), or ``"downstream"``: an acyclic part
    whose nodes reach a cyclic part only through edges into it."""
    if kind == "any":
        adj = rng.random((n, n)) < rng.uniform(0.02, 0.3)
        np.fill_diagonal(adj, False)
        return adj
    if kind == "oriented":
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1)
        flip = rng.random((n, n)) < 0.5
        return (upper & flip) | (upper & ~flip).T
    k = int(rng.integers(1, n - 1))
    adj = np.zeros((n, n), dtype=bool)
    adj[:k, :k] = np.triu(rng.random((k, k)) < 0.3, 1)
    adj[:k, k:] = rng.random((k, n - k)) < 0.1
    adj[k:, k:] = _random_digraph(rng, n - k, "oriented")
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def _tied_dataset(rng, n, goods):
    """Small-integer prices and bundles: many exact spending ties and
    repeated bundles."""
    P = rng.integers(1, 4, (n, goods)).astype(float)
    X = rng.integers(0, 3, (n, goods)).astype(float)
    X[rng.random(n) < 0.3] = X[0]
    return wk.ObservationDataset(P, X)


def _repeated_dataset(rng, n, goods):
    """Bundles on random budget lines, some moved onto another observation's
    budget line, then copied within ``DISTINCT_TOL`` of the largest amounts:
    the copies of one bundle can fall on either side of that observation's
    tie."""
    P = rng.uniform(0.5, 2.0, (n, goods))
    X = rng.dirichlet(np.ones(goods), n) * rng.uniform(5, 15, (n, 1)) / P
    i, j = rng.integers(0, n, (2, n))
    X[j] *= (np.einsum("ij,ij->i", P[i], X[i]) / np.einsum("ij,ij->i", P[i], X[j]))[:, None]
    copy = rng.random(n) < 0.5
    nudge = rng.uniform(-1, 1, (copy.sum(), goods)) * DISTINCT_TOL * X.max(axis=0)
    X[copy] = X[j[copy]] + nudge
    return wk.ObservationDataset(P, np.abs(X))


class TestDensePasses:
    """The dense group reduction and the peeled cycle search give the same
    matrices and cycles as the edge scatter and the whole-graph search."""

    @staticmethod
    def check(ds):
        """The cycle ``_find_cycle`` finds in ``ds``, after checking the
        matrices and the cycle against the scatter and the sparse search."""
        adj, groups, weak = preference_matrix(ds)
        ref_adj, ref_groups, ref_weak = _scatter_preference_matrix(ds)
        assert np.array_equal(weak, ref_weak)
        assert groups.tolist() == ref_groups.tolist()
        assert np.array_equal(adj, ref_adj)
        cycle = _find_cycle(adj)
        assert cycle == _sparse_find_cycle(ref_adj)
        return cycle

    @pytest.mark.parametrize("make", [_tied_dataset, _repeated_dataset])
    def test_preference_matrix_and_cycle_match_the_scatter(self, rng, make):
        violations = 0
        for _ in range(200):
            ds = make(rng, int(rng.integers(2, 60)), int(rng.integers(2, 4)))
            violations += self.check(ds) is not None
        assert violations > 20

    @pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * TILE + 1])
    @pytest.mark.parametrize("make", [_tied_dataset, _repeated_dataset])
    def test_sizes_across_block_and_tile_edges(self, rng, make, n):
        for goods in (2, 3, 3):
            self.check(make(rng, n, goods))

    @pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    @pytest.mark.parametrize("kind", ["oriented", "downstream"])
    def test_first_mutual_pair_in_any_tile(self, rng, n, kind):
        # Mutual pairs planted anywhere, so the first can lie in a later band
        # of rows, or in a tile below the diagonal.
        for pairs in (0, 1, 1, 2, 5):
            adj = _random_digraph(rng, n, kind)
            i, j = rng.integers(0, n, (2, pairs))
            adj[i, j] = adj[j, i] = i != j
            assert _find_cycle(adj) == _sparse_find_cycle(adj)

    def test_either_storage_order_gives_the_same_cycle(self, rng):
        # preference_matrix returns its relations as transposed views, and
        # _find_cycle peels and pairs whichever orientation is stored by rows.
        longer = 0
        for _ in range(3000):
            kind = ("any", "oriented", "downstream")[int(rng.integers(3))]
            adj = _random_digraph(rng, int(rng.integers(3, 40)), kind)
            cycle = _find_cycle(np.ascontiguousarray(adj))
            assert _find_cycle(np.asfortranarray(adj)) == cycle
            longer += cycle is not None and len(cycle) > 2
        assert longer > 500   # cycles from the strong-component search

    def test_in_degrees_past_a_byte(self):
        # A complete order, where node k has k incoming edges, then one back
        # edge that closes a two-cycle with the last node.
        n = 2 * TILE + 1
        order = np.triu(np.ones((n, n), dtype=bool), 1)
        assert _find_cycle(order) is None
        closed = order.copy()
        closed[n - 1, 300] = True
        assert _find_cycle(closed) == _sparse_find_cycle(closed) == [300, n - 1]

    @pytest.mark.parametrize("kind", ["any", "oriented", "downstream"])
    def test_cycle_matches_the_whole_graph_search(self, rng, kind):
        found = 0
        for _ in range(300):
            adj = _random_digraph(rng, int(rng.integers(3, 40)), kind)
            cycle = _find_cycle(adj)
            assert cycle == _sparse_find_cycle(adj)
            found += cycle is not None and len(cycle) > 2
        assert found > 30 or kind == "any"

    def test_nodes_between_cycles_are_split_off(self, rng):
        # The lowest nodes lie on no cycle but survive peeling: each is
        # reached from a three-cycle and reaches a long cycle, with edges
        # among them that form no cycle.
        n, k = 1200, 600
        adj = np.zeros((n, n), dtype=bool)
        adj[:k, :k] = np.triu(rng.random((k, k)) < 0.01, 1)
        first, ring = np.arange(k, k + 3), np.arange(k + 3, n)
        adj[first, np.roll(first, 1)] = adj[ring, np.roll(ring, 1)] = True
        adj[first[rng.integers(0, 3, k)], np.arange(k)] = True
        adj[np.arange(k), ring[rng.integers(0, ring.size, k)]] = True
        for perm in (np.arange(n), rng.permutation(n)):
            graph = adj[np.ix_(perm, perm)]
            assert _find_cycle(graph) == _sparse_find_cycle(graph)
        assert sorted(_find_cycle(adj)) == first.tolist()

    def test_chain_is_peeled_no_slower_than_the_whole_graph_search(self, rng):
        # A path through all T = 2000 nodes peels one node per level.
        T = 2000
        order = rng.permutation(T)
        chain = np.zeros((T, T), dtype=bool)
        chain[order[:-1], order[1:]] = True
        assert _find_cycle(chain) is None
        closed = chain.copy()
        closed[order[-1], order[T // 2]] = True
        assert _find_cycle(closed) == _sparse_find_cycle(closed)
        assert len(_find_cycle(closed)) == T - T // 2
        peeled, whole = _best_times([_find_cycle, _sparse_find_cycle], chain)
        assert peeled <= whole


class TestMemory:
    @pytest.mark.parametrize("passes", [True, False])
    def test_check_holds_no_float_matrix(self, rng, passes):
        # The two boolean T x T relations take 2 T^2 bytes; a float64
        # product alone would take 8 T^2.
        T = 3000
        P = rng.dirichlet(np.ones(3), T)
        X = demand_rows(wk.Consumer([0.6, 0.3, 0.1], [1.0, 0.5, 2.0]), P)
        if not passes:
            X[1::2] = demand_rows(wk.Consumer([0.1, 0.3, 0.6], [2.0, 0.5, 1.0]), P[1::2])
        ds = wk.ObservationDataset(P, X)
        tracemalloc.start()
        try:
            result = wk.sarp_check(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed == passes
        assert peak <= 3 * T * T


class TestSampleDemand:
    def test_single_price(self):
        c = wk.Consumer([0.5, 0.5], [1, 1])
        P = np.array([[0.5, 0.5]])
        ds = wk.ObservationDataset(P, demand_rows(c, P))
        assert np.allclose(ds.prices, [[0.5, 0.5]])
        assert np.allclose(ds.bundles, [[1.0, 1.0]])

    def test_budget_identity_each_observation(self, rng):
        c = wk.Consumer([0.3, 0.7], [2, 1])
        P = np.vstack([rng.dirichlet([2, 2]) for _ in range(10)])
        ds = wk.ObservationDataset(P, demand_rows(c, P))
        for p_row, x_row in zip(ds.prices, ds.bundles):
            assert abs(p_row @ x_row - p_row @ c.endowment) <= 1e-10


class TestScaledFieldAudit:
    def prices(self, rng, n=40):
        return [wk.simplex_point(rng.dirichlet([2, 2])) for _ in range(n)]

    def test_constant_scale_is_linear(self, rng):
        base = wk.Consumer([0.5, 0.5], [1, 0])
        tripled = wk.Consumer([0.5, 0.5], [1, 0], scale=wk.ConstantScale(3.0))
        prices = self.prices(rng)
        report = wk.scaled_field_audit(tripled, prices)
        assert report.passed
        for p in prices:
            z0 = excess_rows(base, p.coords[None, :])[0]
            z3 = excess_rows(tripled, p.coords[None, :])[0]
            assert np.allclose(z3, 3.0 * z0, atol=1e-12)

    def test_polynomial_scale_keeps_walras(self, rng):
        c = wk.Consumer(
            [0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((1.0, (0,)), (1.0, (1,))))
        )
        report = wk.scaled_field_audit(c, self.prices(rng, 60))
        assert report.passed
        assert report.max_walras_violation <= 1e-9
        assert report.lower_bound_violations == 0

    def test_scale_crossing_zero_is_flagged(self, rng):
        # 0.2 - c1 goes non-positive for p1 >= 0.2
        c = wk.Consumer(
            [0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((0.2, (0,)), (-1.0, (1,))))
        )
        report = wk.scaled_field_audit(c, self.prices(rng))
        assert not report.passed
        assert len(report.nonpositive_scale_samples) > 0

    def test_infinite_scale_is_flagged(self, rng):
        # Finite coefficients whose sum overflows: the scale is infinite at
        # every price (an infinite coefficient is refused where it is built).
        c = wk.Consumer([0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((1e308, (0,)), (1e308, (0,)))))
        with np.errstate(over="ignore"):
            report = wk.scaled_field_audit(c, self.prices(rng, 10))
        assert not report.passed
        assert report.nonpositive_scale_samples == tuple(range(10))
