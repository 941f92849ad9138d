import itertools

import numpy as np
import pytest

import walraskit as wk
from support import brute_force_sarp, observed_demand
from walraskit.consumers import demand_rows, excess_rows
from walraskit.geometry import _greedy_cover
from walraskit.revealed import DISTINCT_TOL, TIE_TOL


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


def assert_witness(ds, cycle):
    """Every step of a reported cycle is an edge between distinct bundles."""
    P, X = ds.prices, ds.bundles
    assert len(cycle) >= 2
    for k, i in enumerate(cycle):
        j = cycle[(k + 1) % len(cycle)]
        assert P[i] @ X[j] <= P[i] @ X[i] + TIE_TOL
    for a, b in itertools.combinations(cycle, 2):
        assert np.max(np.abs(X[a] - X[b])) > DISTINCT_TOL


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
            cyc = result.cycle
            for k, i in enumerate(cyc):
                j = cyc[(k + 1) % len(cyc)]
                spend_own = P[i] @ X[i]
                spend_cross = P[i] @ X[j]
                assert spend_cross <= spend_own + 1e-10
                assert np.max(np.abs(X[i] - X[j])) > 1e-10
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
        c = wk.Consumer([0.5, 0.5], [1, 0], scale=wk.PolynomialScale(((np.inf, (0,)),)))
        report = wk.scaled_field_audit(c, self.prices(rng, 10))
        assert not report.passed
        assert report.nonpositive_scale_samples == tuple(range(10))
