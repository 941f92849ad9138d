"""Property tests: the equilibria of a constant-scale Cobb-Douglas economy
do not depend on the order of its goods or of its consumers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import walraskit as wk
from support import constant_scale_economy, nullspace_price

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


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
