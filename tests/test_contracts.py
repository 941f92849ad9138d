"""Input contracts that the rest of the suite never reaches: each input is
refused with its own message."""

import re

import numpy as np
import pytest

import walraskit as wk

TWO_GOODS = wk.Consumer([0.5, 0.5], [1.0, 1.0])
OUTSIDE = "chart point must satisfy coords > 0 and sum(coords) < 1"
BASE = wk.PricePoint([0.5, 0.5])
NOT_A_SCALE = "invalid scale: a scale must be one of constant, polynomial, bump, sampled, kernel_sampled, not {}"
# 20 points on c2 = 0.5 - c1, off it by +-2e-15: singular values 1.1 and 6.8e-15.
_C1 = np.linspace(0.1, 0.4, 20)
NEAR_FLAT = np.column_stack([_C1, 0.5 - _C1 + 2e-15 * (-1.0) ** np.arange(20)])

REFUSED = [
    (lambda: wk.Consumer([0.5, 0.5], [1.0, 1.0, 1.0]), "alpha and endowment must be 1-d vectors of equal length"),
    (lambda: wk.Consumer([0.5, 0.5], [1.0, 1.0], scale=2.0), NOT_A_SCALE.format("float")),
    (lambda: wk.Consumer([0.5, 0.5], [1.0, 1.0], scale=lambda P: P[:, 0]), NOT_A_SCALE.format("function")),
    (lambda: wk.Economy(()), "an economy needs at least one consumer"),
    (
        lambda: wk.Economy((TWO_GOODS, wk.Consumer([0.2, 0.3, 0.5], [1.0, 1.0, 1.0]))),
        "all consumers must trade the same number of goods",
    ),
    (lambda: wk.CanonicalFamily([1.0]), "alpha must be a vector of length >= 2"),
    (lambda: wk.build_continuum_economy((0.4, 0.6), grid=4), "grid needs at least 5 points"),
    (
        lambda: wk.genericity_experiment(wk.Economy((TWO_GOODS,)), wk.PerturbationSpec(1e-3), trials=0),
        "at least one trial is required",
    ),
    (lambda: wk.PricePoint([1.0]), "price point needs a 1-d vector of length >= 2"),
    (lambda: wk.PricePoint([0.5, 0.5], "polar"), "unknown frame 'polar'"),
    (lambda: wk.ChartPoint([]), "chart point needs a 1-d vector of length >= 1"),
    (lambda: wk.ChartPoint([np.nan]), "chart coordinates must be finite"),
    (lambda: wk.TangentVector(BASE, [1.0, -1.0, 0.0]), "tangent components must match the base dimension"),
    (lambda: wk.tangent_project(BASE, [1.0, -1.0, 0.0]), "vector dimension must match the price dimension"),
    (lambda: wk.scaled_field_audit(TWO_GOODS, []), "at least one sample price is required"),
    (lambda: wk.BumpScale((0.5,), 0.0), "bump radius must be positive"),
    (lambda: wk.BumpScale((0.5,), 0.2, height=-1.0, floor=-0.5), "bump scale must be positive somewhere"),
    (lambda: wk.SampledScale([[0.2], [0.2], [0.6]], [1.0, 2.0, 3.0]), "sampled grid points must be distinct"),
    (lambda: wk.SampledScale([[0.2]], [1.0]), "a 1-d sampled grid needs at least 2 points"),
    (lambda: wk.SampledScale([[0.2], [np.nan], [0.6]], [1.0, 2.0, 3.0]), "sampled grid points must be finite"),
    (lambda: wk.SampledScale([[0.2], [0.4], [0.6]], [1.0, 2.0]), "grid and values must have the same length"),
    (
        lambda: wk.SampledScale(NEAR_FLAT, np.ones(20)),
        "sampled grid of 20 points in 2 chart dimensions cannot be triangulated (its points span 1 of them)",
    ),
    (
        lambda: wk.KernelSampledScale([[0.2], [0.4], [0.6]], [1.0, 2.0, 3.0], good=0, share=1.0, level=1.0),
        "share must lie strictly between 0 and 1",
    ),
    # Raw chart coordinates of a one-point call go through ChartPoint and the chart map.
    (lambda: wk.classify(wk.chart_field(lambda C: 0.7 - C, goods=3), [0.7, 0.7]), OUTSIDE),
    (lambda: wk.chart_jacobian(wk.chart_field(lambda C: 0.3 - C, goods=2), [1.5]), OUTSIDE),
    (
        lambda: wk.multiplicity_estimate(wk.chart_field(lambda C: 0.3 - C, goods=2), [0.3, 0.1]),
        "expected chart rows of width 1",
    ),
]


@pytest.mark.parametrize(
    "build, message",
    REFUSED,
    ids=[
        "consumer-lengths", "consumer-float-scale", "consumer-callable-scale", "empty-economy", "mixed-goods",
        "one-good-family", "continuum-grid-4", "no-trials", "one-price", "polar-frame", "empty-chart-point",
        "nan-chart-point", "tangent-length", "project-length", "audit-no-samples", "bump-radius-0",
        "bump-nowhere-positive", "sampled-repeated-node", "sampled-one-node", "sampled-nan-node",
        "sampled-value-short", "sampled-near-flat", "kernel-share-1",
        "classify-outside", "jacobian-outside", "multiplicity-width",
    ],
)
def test_refused_with_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
