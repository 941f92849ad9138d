"""Property tests: the equilibria of a constant-scale Cobb-Douglas economy
do not depend on the order of its goods or of its consumers, nor on a
common factor of all endowments."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import walraskit as wk
from support import constant_scale_economy, nullspace_price

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


@SETTINGS
@given(economies(), st.data())
def test_permuting_goods_permutes_the_equilibrium(economy, data):
    perm = np.array(data.draw(st.permutations(range(economy.goods))))
    permuted = wk.Economy(
        tuple(wk.Consumer(c.alpha[perm], c.endowment[perm], c.scale) for c in economy.consumers)
    )
    price, index = solve(economy)
    moved, moved_index = solve(permuted)
    assert np.abs(price - nullspace_price(economy)).max() <= 1e-12
    assert np.abs(moved - price[perm]).max() <= 1e-12
    assert moved_index == index


@SETTINGS
@given(economies(), st.data())
def test_permuting_consumers_keeps_the_equilibrium(economy, data):
    order = data.draw(st.permutations(range(len(economy.consumers))))
    permuted = wk.Economy(tuple(economy.consumers[k] for k in order))
    price, index = solve(economy)
    moved, moved_index = solve(permuted)
    assert np.abs(moved - price).max() <= 1e-12
    assert moved_index == index


@SETTINGS
@given(economies(), st.integers(-10, 10))
def test_rescaling_endowments_keeps_the_equilibrium(economy, k):
    # Excess demand is homogeneous of degree one in endowments, so every
    # answer is the same at every common factor.
    report = wk.find_equilibria(rescaled(economy, 10.0**k))
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
