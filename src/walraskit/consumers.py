"""Cobb-Douglas consumers, their demand, and aggregate excess demand.

A consumer with preference shares ``alpha`` (positive, summing to one) and
endowment ``omega`` demands ``x_i = alpha_i * w / p_i`` at prices ``p``,
where ``w = p . omega`` is wealth.  Excess demand is ``demand - omega``,
optionally multiplied by a positive price-dependent scaling function; the
aggregate over an economy's consumers is the map whose zeros are the
Walrasian equilibria.

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

from dataclasses import dataclass

import numpy as np

from .geometry import PricePoint, TangentVector
from .scales import ConstantScale, Scale

UNIT_SCALE = ConstantScale(1.0)


@dataclass(frozen=True)
class Consumer:
    """A Cobb-Douglas utility maximiser with an optional positive scaling.

    Parameters
    ----------
    alpha : array_like
        Strictly positive preference shares summing to one within ``1e-12``.
    endowment : array_like
        Non-negative endowment with at least one strictly positive entry.
        Zero entries are allowed (the canonical single-good consumers of the
        field-decomposition construction need them).
    scale : Scale, optional
        Positive scaling applied to excess demand; defaults to the constant 1.
    """

    alpha: np.ndarray
    endowment: np.ndarray
    scale: Scale = UNIT_SCALE

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        omega = np.array(self.endowment, dtype=float)
        if alpha.ndim != 1 or alpha.shape != omega.shape:
            raise ValueError("alpha and endowment must be 1-d vectors of equal length")
        if np.any(alpha <= 0.0) or abs(alpha.sum() - 1.0) > 1e-12:
            raise ValueError("alpha must be strictly positive and sum to 1 within 1e-12")
        if np.any(omega < 0.0) or not np.any(omega > 0.0):
            raise ValueError("endowment must be non-negative with a positive entry")
        alpha.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "endowment", omega)

    @property
    def goods(self) -> int:
        return self.alpha.size

    @property
    def has_unit_scale(self) -> bool:
        return isinstance(self.scale, ConstantScale) and self.scale.value == 1.0


@dataclass(frozen=True)
class Economy:
    """A non-empty list of consumers over the same goods."""

    consumers: tuple

    def __post_init__(self):
        consumers = tuple(self.consumers)
        if not consumers:
            raise ValueError("an economy needs at least one consumer")
        goods = consumers[0].goods
        if any(c.goods != goods for c in consumers):
            raise ValueError("all consumers must trade the same number of goods")
        object.__setattr__(self, "consumers", consumers)

    @property
    def goods(self) -> int:
        return self.consumers[0].goods


# --- vectorised array core ---------------------------------------------------


def demand_rows(c: Consumer, P) -> np.ndarray:
    """Demanded bundles ``alpha_i * w / p_i``, one row per price row."""
    w = P @ c.endowment
    return c.alpha * w[:, None] / P


def scale_rows(c: Consumer, P) -> np.ndarray:
    """Scaling values at the simplex normalisation of each price row."""
    S = P / P.sum(axis=1, keepdims=True)
    values = np.asarray(c.scale(S), dtype=float)
    if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError("scale must be strictly positive at every evaluated price")
    return values


def excess_rows(c: Consumer, P) -> np.ndarray:
    """Scaled individual excess demand ``scale(p) * (demand - omega)`` per row."""
    z = demand_rows(c, P) - c.endowment
    if c.has_unit_scale:
        return z
    return scale_rows(c, P)[:, None] * z


def aed_rows(e: Economy, P) -> np.ndarray:
    """Aggregate excess demand rows: the sum of consumers' excess demands."""
    total = np.zeros_like(P)
    for c in e.consumers:
        total += excess_rows(c, P)
    return total


# --- typed single-point operations -------------------------------------------


def wealth(c: Consumer, p: PricePoint) -> float:
    """Wealth ``p . omega`` in the frame of ``p``."""
    return float(p.coords @ c.endowment)


def demand(c: Consumer, p: PricePoint) -> np.ndarray:
    """Demanded bundle at ``p``; satisfies the budget identity ``p . x = w``."""
    return demand_rows(c, p.coords[None, :])[0]


def excess_demand(c: Consumer, p: PricePoint) -> TangentVector:
    """Scaled individual excess demand as a tangent vector at ``p``."""
    z = excess_rows(c, p.coords[None, :])[0]
    return TangentVector(p, z)


def indirect_utility(c: Consumer, p: PricePoint) -> float:
    """Maximised utility ``A * prod(p_i ** -alpha_i) * w`` with ``A = prod(alpha_i ** alpha_i)``.

    The scaling function plays no role here; it scales excess demand, not
    the underlying preferences.
    """
    coords = p.coords
    w = float(coords @ c.endowment)
    log_a = float(np.sum(c.alpha * np.log(c.alpha)))
    log_p = float(np.sum(c.alpha * np.log(coords)))
    return float(np.exp(log_a - log_p) * w)


def aed(e: Economy, p: PricePoint) -> TangentVector:
    """Aggregate excess demand of the economy at ``p`` (a tangent vector)."""
    z = aed_rows(e, p.coords[None, :])[0]
    return TangentVector(p, z)


def aed_jacobian(e: Economy, c) -> np.ndarray:
    """Jacobian of the chart representation of the economy's aggregate excess demand.

    Central finite differences with step ``h = 1e-6 * max(1, |c|)``,
    cross-validated against step ``h/2``; raises
    :class:`walraskit.fields.JacobianConsistencyError` if the two estimates
    disagree beyond ``1e-4`` relative.
    """
    from .fields import chart_jacobian, economy_field

    return chart_jacobian(economy_field(e), c)
