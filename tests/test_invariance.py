"""Property tests: the equilibria of a constant-scale Cobb-Douglas economy
do not depend on the order of its goods or of its consumers, nor on a
common factor of all endowments; the SARP verdict and cycle of a dataset
do not depend on the units of its bundles, goods or prices, nor does the
audit of a scaled consumer on a common factor of its endowment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walraskit as wk
from support import SOLVE_INPUTS, constant_scale_economy, nullspace_price

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def rescaled(economy, factor):
    """``economy`` with every endowment multiplied by ``factor``, each
    consumer keeping its scale."""
    return wk.Economy(
        tuple(wk.Consumer(c.alpha, c.endowment * factor, c.scale) for c in economy.consumers)
    )


def solve(economy):
    report = wk.find_equilibria(economy)
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert eq.regularity == "regular"
    return eq.price.coords, eq.index


@st.composite
def economies(draw):
    goods = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    concentration = draw(st.sampled_from([1.0, 5.0]))
    return constant_scale_economy(np.random.default_rng(seed), goods, n, concentration)


# Each test hands the economies to the solve as themselves (the closed form
# answers) and as their fields (the grid answers).
BOTH = pytest.mark.parametrize("as_input", list(SOLVE_INPUTS.values()), ids=list(SOLVE_INPUTS))


@BOTH
@SETTINGS
@given(economies(), st.data())
def test_permuting_goods_permutes_the_equilibrium(as_input, economy, data):
    perm = np.array(data.draw(st.permutations(range(economy.goods))))
    permuted = wk.Economy(
        tuple(wk.Consumer(c.alpha[perm], c.endowment[perm], c.scale) for c in economy.consumers)
    )
    price, index = solve(as_input(economy))
    moved, moved_index = solve(as_input(permuted))
    assert np.abs(price - nullspace_price(economy)).max() <= 1e-12
    assert np.abs(moved - price[perm]).max() <= 1e-12
    assert moved_index == index


@BOTH
@SETTINGS
@given(economies(), st.data())
def test_permuting_consumers_keeps_the_equilibrium(as_input, economy, data):
    order = data.draw(st.permutations(range(len(economy.consumers))))
    permuted = wk.Economy(tuple(economy.consumers[k] for k in order))
    price, index = solve(as_input(economy))
    moved, moved_index = solve(as_input(permuted))
    assert np.abs(moved - price).max() <= 1e-12
    assert moved_index == index


@BOTH
@SETTINGS
@given(economies(), st.integers(-10, 10))
def test_rescaling_endowments_keeps_the_equilibrium(as_input, economy, k):
    # Excess demand is homogeneous of degree one in endowments, so every
    # answer is the same at every common factor.
    report = wk.find_equilibria(as_input(rescaled(economy, 10.0**k)))
    assert (report.finite_flag, report.index_check) == (True, "ok")
    assert len(report.equilibria) == 1
    eq = report.equilibria[0]
    assert (eq.regularity, eq.index) == ("regular", 1)
    assert np.abs(eq.price.coords - nullspace_price(economy)).max() <= 1e-12


def test_rescaling_the_continuum_economy_keeps_its_witness():
    economy = wk.build_continuum_economy((0.4, 0.6))
    intervals = []
    for factor in (1e-10, 1.0, 1e10):
        report = wk.find_equilibria(rescaled(economy, factor))
        assert not report.finite_flag
        intervals.append(report.continuum.interval)
    assert intervals[0] == intervals[1] == intervals[2]


# Violations: the two-observation cycle that an absolute bundle tolerance
# merged at 1e-11; the same cycle through a tie that an absolute tie
# tolerance drops at prices x1e3; two bundles 1.5e-10 apart in one good,
# which an absolute bundle tolerance merges in smaller units; a three-cycle
# with no two-cycle; and a cycle through a repeated bundle.
VIOLATIONS = (
    ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.5, 0.0]]),
    ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0 + 3e-11], [1.5, 0.0]]),
    ([[1.0, 0.5], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1.5e-10]]),
    ([[1.0, 0.9, 2.0], [2.0, 1.0, 0.9], [0.9, 2.0, 1.0]], np.eye(3)),
    ([[1.0, 3.0], [1.0, 2.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]]),
)


@st.composite
def observations(draw):
    """Bundles on random budget lines, drawn with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, goods = draw(st.integers(2, 8)), draw(st.integers(2, 3))
    P = rng.uniform(0.5, 2.0, (n, goods))
    X = rng.dirichlet(np.ones(goods), n) * rng.uniform(5, 15, (n, 1)) / P
    return P, X[rng.integers(0, n, n)]


def sarp(P, X):
    result = wk.sarp_check(wk.ObservationDataset(P, X))
    return result.passed, result.cycle


def cases(drawn):
    return [(np.asarray(P, dtype=float), np.asarray(X, dtype=float)) for P, X in (*VIOLATIONS, drawn)]


@SETTINGS
@given(observations())
def test_rescaling_bundles_keeps_the_sarp_answer(drawn):
    for P, X in cases(drawn):
        answer = sarp(P, X)
        for k in range(-12, 13):
            assert sarp(P, X * 10.0**k) == answer


@SETTINGS
@given(observations(), st.data())
def test_rescaling_each_price_keeps_the_sarp_answer(drawn, data):
    for P, X in cases(drawn):
        exponents = data.draw(st.lists(st.integers(-8, 8), min_size=len(P), max_size=len(P)))
        factors = 10.0 ** np.array(exponents, dtype=float)
        assert sarp(P * factors[:, None], X) == sarp(P, X)


@SETTINGS
@given(observations(), st.data())
def test_changing_the_unit_of_one_good_keeps_the_sarp_answer(drawn, data):
    for P, X in cases(drawn):
        good = data.draw(st.integers(0, P.shape[1] - 1))
        s = 10.0 ** data.draw(st.integers(-10, 10))
        P2, X2 = P.copy(), X.copy()
        P2[:, good] /= s
        X2[:, good] *= s
        assert sarp(P2, X2) == sarp(P, X)


@SETTINGS
@given(economies(), st.integers(-10, 10))
def test_rescaling_an_endowment_keeps_the_audit_verdict(economy, k):
    # Beside each consumer's constant scale, the polynomial 1 + c_1, which is
    # positive on the simplex.
    zero = (0,) * (economy.goods - 2)
    positive = wk.PolynomialScale(((1.0, (0, *zero)), (1.0, (1, *zero))))
    rng = np.random.default_rng(k + 10)
    prices = [wk.simplex_point(p) for p in rng.dirichlet(np.ones(economy.goods), 64)]
    for c in economy.consumers:
        for scale in (c.scale, positive):
            report = wk.scaled_field_audit(wk.Consumer(c.alpha, c.endowment * 10.0**k, scale), prices)
            assert report.passed
            assert (report.lower_bound_violations, report.nonpositive_scale_samples) == (0, ())
