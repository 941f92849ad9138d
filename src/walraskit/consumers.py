"""Cobb-Douglas consumers, their demand, and aggregate excess demand.

A consumer with preference shares ``alpha`` (positive, summing to one) and
endowment ``omega`` demands ``x_i = alpha_i * w / p_i`` at prices ``p``,
where ``w = p . omega`` is the value of the endowment.  Excess demand is
``demand - omega``, optionally multiplied by a positive price-dependent
scaling function; the aggregate over an economy's consumers is the map whose
zeros are the Walrasian equilibria.

All formulas are homogeneous of degree zero in the price vector, so the
array-level functions here accept arbitrary strictly positive price rows.
They take those rows raw and assume them finite and strictly positive:
:class:`~walraskit.geometry.PricePoint`,
:class:`~walraskit.geometry.ChartPoint` and the chart map of
:func:`walraskit.fields.economy_field` check prices where they enter.
Scaling functions are always evaluated at the simplex normalisation of the
price, which preserves homogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .geometry import PricePoint, TangentVector
from .scales import (
    _KINDS,
    BumpScale,
    ConstantScale,
    KernelSampledScale,
    PolynomialScale,
    SampledScale,
    Scale,
    _scale_groups,
)

UNIT_SCALE = ConstantScale(1.0)


@dataclass(frozen=True)
class Consumer:
    """A Cobb-Douglas utility maximiser with an optional positive scaling.

    Parameters
    ----------
    alpha : array_like
        Strictly positive preference shares summing to one within ``1e-12``.
    endowment : array_like
        Finite non-negative endowment with at least one strictly positive entry.
        Zero entries are allowed (the canonical single-good consumers of the
        field-decomposition construction need them).
    scale : Scale, optional
        Positive scaling applied to excess demand; defaults to the constant 1.
        It must be an instance of one of the five scale classes, read a
        chart of ``l - 1`` dimensions and, for ``kernel_sampled``, name one
        of the ``l`` goods, or ``ValueError`` is raised, with the text an
        economy file gets.
    """

    alpha: np.ndarray
    endowment: np.ndarray
    scale: Scale = UNIT_SCALE

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        omega = np.array(self.endowment, dtype=float)
        if alpha.ndim != 1 or alpha.shape != omega.shape:
            raise ValueError("alpha and endowment must be 1-d vectors of equal length")
        # Written so that NaN and inf entries fail the checks too.
        if not (np.all(alpha > 0.0) and abs(alpha.sum() - 1.0) <= 1e-12):
            raise ValueError("alpha must be strictly positive and sum to 1 within 1e-12")
        if not (np.all((omega >= 0.0) & (omega < np.inf)) and np.any(omega > 0.0)):
            raise ValueError("endowment must be finite and non-negative with a positive entry")
        misfit = _scale_misfit(self.scale, alpha.size)
        if misfit:
            raise ValueError(f"invalid scale: {misfit}")
        alpha.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "endowment", omega)

    @property
    def goods(self) -> int:
        return self.alpha.size


def _scale_misfit(scale: Scale, goods: int) -> str | None:
    """Why ``scale`` is not one of the scale classes, does not read a chart
    of ``goods - 1`` dimensions or, for ``kernel_sampled``, does not name
    one of the goods; None when it fits.  A polynomial term may list fewer
    powers than there are chart dimensions: the missing ones are 0."""
    if not isinstance(scale, tuple(_KINDS.values())):
        return f"a scale must be one of {', '.join(_KINDS)}, not {type(scale).__name__}"
    dim = goods - 1
    if isinstance(scale, PolynomialScale) and any(len(p) > dim for _, p in scale.terms):
        return f"a polynomial term lists more powers than the chart has dimensions ({dim})"
    if isinstance(scale, BumpScale) and len(scale.center) != dim:
        return f"bump center must have one coordinate per chart dimension ({dim})"
    if isinstance(scale, SampledScale) and scale.grid.shape[1] != dim:
        return f"{scale.kind} grid rows must have one coordinate per chart dimension ({dim})"
    if isinstance(scale, KernelSampledScale):
        good = scale.good
        if isinstance(good, bool) or not isinstance(good, Integral) or not 0 <= good < goods:
            return f"kernel_sampled good must be an integer from 0 to {dim}, not {good!r}"
    return None


@dataclass(frozen=True)
class Economy:
    """A non-empty list of consumers over the same two or more goods.

    The shares and endowments are also kept stacked, one row per consumer,
    with the constant scale values and the varying scales as groups
    (``scale_groups``: consumer positions and one map for them), the 1-d
    ``kernel_sampled`` scales of each grid in one group and every other
    scale in its own, for the fused kernel of :func:`aed_rows`.
    """

    consumers: tuple
    shares: np.ndarray = field(init=False, repr=False, compare=False)
    endowments: np.ndarray = field(init=False, repr=False, compare=False)
    constant_scales: np.ndarray = field(init=False, repr=False, compare=False)
    scale_groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        consumers = tuple(self.consumers)
        if not consumers:
            raise ValueError("an economy needs at least one consumer")
        goods = consumers[0].goods
        if any(c.goods != goods for c in consumers):
            raise ValueError("all consumers must trade the same number of goods")
        if goods < 2:
            raise ValueError(f"an economy needs at least two goods, not goods={goods}")
        scales = [c.scale for c in consumers]
        constant = [s.value if isinstance(s, ConstantScale) else 1.0 for s in scales]
        object.__setattr__(self, "consumers", consumers)
        for name, rows in (
            ("shares", [c.alpha for c in consumers]),
            ("endowments", [c.endowment for c in consumers]),
            ("constant_scales", constant),
        ):
            stacked = np.array(rows, dtype=float)
            stacked.setflags(write=False)
            object.__setattr__(self, name, stacked)
        varying = [(k, s) for k, s in enumerate(scales) if not isinstance(s, ConstantScale)]
        object.__setattr__(self, "scale_groups", _scale_groups(varying))

    @property
    def goods(self) -> int:
        return self.consumers[0].goods


# --- vectorised array core ---------------------------------------------------


def demand_rows(c: Consumer, P) -> np.ndarray:
    """Demanded bundles ``alpha_i * w / p_i``, one row per price row."""
    w = P @ c.endowment
    return c.alpha * w[:, None] / P


def _scale_values(scale: Scale, P) -> np.ndarray:
    """The scale at the simplex normalisation of each price row; raises
    ``ValueError`` unless every value is finite and strictly positive."""
    return _positive(np.asarray(scale(P / P.sum(axis=1, keepdims=True)), dtype=float))


def _positive(values: np.ndarray) -> np.ndarray:
    """``values``, after checking that every one is finite and strictly positive."""
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ValueError("scale must be strictly positive at every evaluated price")
    return values


def excess_rows(c: Consumer, P) -> np.ndarray:
    """Scaled individual excess demand ``scale(p) * (demand - omega)`` per row."""
    return _scale_values(c.scale, P)[:, None] * (demand_rows(c, P) - c.endowment)


def aed_rows(e: Economy, P, S=None) -> np.ndarray:
    """Aggregate excess demand rows: the sum of consumers' excess demands.

    One fused expression over the stacked consumers,
    ``((P @ W^T) * S) @ A / P - S @ W``, with ``A`` the shares, ``W`` the
    endowments and ``S`` the ``(n, consumers)`` scale values (one row for
    every price row when a scale varies, else the constant values), or the
    ``S`` given, whose values the caller knows.  The varying scales are
    evaluated one group at a time (``Economy.scale_groups``), on price rows
    normalised once: the 1-d ``kernel_sampled`` scales that share a grid in
    one call, every other varying scale by itself.  The products are
    ``einsum`` loops, whose summation order, unlike that of a BLAS product,
    does not depend on the batch: a row gets the same bits in every batch.
    """
    if S is None:
        S = e.constant_scales
        if e.scale_groups:
            S = np.tile(S, (len(P), 1))
            Q = P / P.sum(axis=1, keepdims=True)
            for columns, values in e.scale_groups:
                S[:, columns] = _positive(values(Q))
    wealth = np.einsum("nj,cj->nc", P, e.endowments) * S
    demand = np.einsum("nc,ci->ni", wealth, e.shares) / P
    return demand - np.einsum("...c,ci->...i", S, e.endowments)


# --- typed single-point operations -------------------------------------------


def demand(c: Consumer, p: PricePoint) -> np.ndarray:
    """Demanded bundle at ``p``; satisfies the budget identity ``p . x = w``."""
    return demand_rows(c, p.coords[None, :])[0]


def aed(e: Economy, p: PricePoint) -> TangentVector:
    """Aggregate excess demand of the economy at ``p`` (a tangent vector)."""
    z = aed_rows(e, p.coords[None, :])[0]
    return TangentVector(p, z)
