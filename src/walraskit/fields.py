"""Tangent vector fields on the open price simplex and their chart maps.

A field is represented computationally by its chart map: the first ``l - 1``
components of the field value, as a function of the ``l - 1`` chart
coordinates.  Because field values are tangent (Walras' law), the last
component is recovered exactly from the first ones:

    z_l = -(p_1 z_1 + ... + p_{l-1} z_{l-1}) / p_l.

Chart maps are vectorised: they take an ``(n, l-1)`` array of chart rows and
return an ``(n, l-1)`` array of values.  Everything downstream (equilibrium
location, perturbation, scanning) works through this interface, so a batch
of a few thousand evaluations costs one numpy call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .consumers import Economy, aed_rows
from .geometry import (
    ChartPoint,
    PricePoint,
    TangentVector,
    chart_rows_embed,
    simplex_to_sphere,
)


# Finite-difference Jacobians step by ``JACOBIAN_STEP * max(1, |c|)``; the
# estimates at that step and at half of it must agree within
# ``JACOBIAN_CONSISTENCY_TOL`` relative.
JACOBIAN_STEP = 1e-6
JACOBIAN_CONSISTENCY_TOL = 1e-4


class JacobianConsistencyError(RuntimeError):
    """Finite-difference Jacobian estimates at steps h and h/2 disagree."""


@dataclass(frozen=True)
class TangentField:
    """A tangent field given by its vectorised chart map."""

    goods: int
    chart_fn: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return self.goods - 1

    def chart_values(self, C) -> np.ndarray:
        """Evaluate the chart map on ``(n, l-1)`` chart rows."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        if C.shape[1] != self.dim:
            raise ValueError(f"expected chart rows of width {self.dim}")
        out = np.asarray(self.chart_fn(C), dtype=float)
        return out.reshape(C.shape)

    def full_values(self, C) -> tuple[np.ndarray, np.ndarray]:
        """Simplex price rows and full field rows over ``(n, l-1)`` chart rows."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        P = chart_rows_embed(C)
        F = self.chart_values(C)
        last = -(P[:, :-1] * F).sum(axis=1) / P[:, -1]
        return P, np.hstack([F, last[:, None]])

    def value(self, p: PricePoint) -> TangentVector:
        """Field value at a price point, as a tangent vector."""
        c = p.simplex_coords()[:-1][None, :]
        _, Z = self.full_values(c)
        return TangentVector(simplex_to_sphere(p), Z[0])

    def residual_norms(self, C) -> np.ndarray:
        """Euclidean norms of the full field values over chart rows."""
        _, Z = self.full_values(C)
        return np.linalg.norm(Z, axis=1)


def economy_field(e: Economy) -> TangentField:
    """The aggregate-excess-demand field of an economy.

    Its chart map is where batches of prices enter the raw evaluation core,
    so it rejects chart rows whose price rows are not finite and strictly
    positive.
    """

    def fn(C):
        P = chart_rows_embed(C)
        if not np.all(np.isfinite(P)) or np.any(P <= 0.0):
            raise ValueError("price rows must be finite and strictly positive")
        return aed_rows(e, P)[:, :-1]

    return TangentField(e.goods, fn)


def chart_field(fn: Callable[[np.ndarray], np.ndarray], goods: int) -> TangentField:
    """Lift a chart map to a tangent field (synthetic test fields, mostly)."""
    return TangentField(goods, fn)


def as_field(obj) -> TangentField:
    """Coerce an Economy or TangentField to a TangentField."""
    if isinstance(obj, TangentField):
        return obj
    if isinstance(obj, Economy):
        return economy_field(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a tangent field")


def _chart_coords(c) -> np.ndarray:
    if isinstance(c, ChartPoint):
        return c.coords
    if isinstance(c, PricePoint):
        return c.simplex_coords()[:-1]
    return np.atleast_1d(np.asarray(c, dtype=float))


def _fd_jacobian(field: TangentField, c: np.ndarray, h: float) -> np.ndarray:
    d = c.size
    steps = np.vstack([c + h * np.eye(d), c - h * np.eye(d)])
    vals = field.chart_values(steps)
    return (vals[:d] - vals[d:]).T / (2.0 * h)


def chart_jacobian(field_or_economy, c) -> np.ndarray:
    """Central-difference Jacobian of a field's chart map at chart point ``c``.

    Two estimates at steps ``h = 1e-6 * max(1, |c|)`` and ``h/2`` are
    compared; a relative disagreement above ``1e-4`` raises
    :class:`JacobianConsistencyError`.
    """
    field = as_field(field_or_economy)
    c = _chart_coords(c)
    h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(c)))
    J1 = _fd_jacobian(field, c, h)
    J2 = _fd_jacobian(field, c, h / 2.0)
    scale = max(np.abs(J1).max(), np.abs(J2).max())
    # The absolute floor keeps an exactly (or numerically) flat field from
    # tripping the check: both estimates are then noise around zero.
    floor = 1e-12 * max(1.0, _derivative_scale(field, c))
    if np.abs(J1 - J2).max() > JACOBIAN_CONSISTENCY_TOL * scale + floor:
        raise JacobianConsistencyError(
            "finite-difference Jacobian is step-size dependent at this point"
        )
    return J2


def _derivative_scale(field: TangentField, c: np.ndarray, radius: float = 0.02) -> float:
    """Crude local derivative scale: max field magnitude over a coarse stencil,
    divided by the stencil radius."""
    d = c.size
    margin = min(float(c.min()), float(1.0 - c.sum()))
    r = min(radius, 0.5 * margin)
    if r <= 0.0:
        return 0.0
    probes = np.vstack([c[None, :], c + r * np.eye(d), c - r * np.eye(d)])
    vals = field.chart_values(probes)
    return float(np.abs(vals).max() / r)
