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
    """A tangent field given by its vectorised chart map.

    ``price_weighted`` marks the aggregate-excess-demand fields of
    :func:`economy_field`, whose zeros the solver finds on the
    price-weighted field ``p * z`` (see :mod:`walraskit.equilibrium`).
    """

    goods: int
    chart_fn: Callable[[np.ndarray], np.ndarray]
    price_weighted: bool = False

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
        return _full_rows(C, self.chart_values(C))

    def value(self, p: PricePoint) -> TangentVector:
        """Field value at a price point, as a tangent vector."""
        c = p.simplex_coords()[:-1][None, :]
        _, Z = self.full_values(c)
        return TangentVector(simplex_to_sphere(p), Z[0])

    def residual_norms(self, C) -> np.ndarray:
        """Euclidean norms of the full field values over chart rows."""
        _, Z = self.full_values(C)
        return np.linalg.norm(Z, axis=1)


def _full_rows(C: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex price rows and full field rows from chart rows and chart values."""
    P = chart_rows_embed(C)
    last = -(P[:, :-1] * F).sum(axis=1) / P[:, -1]
    return P, np.hstack([F, last[:, None]])


def economy_field(e: Economy) -> TangentField:
    """The aggregate-excess-demand field of an economy.

    Its chart map is where batches of prices enter the raw evaluation core,
    so it rejects chart rows whose price rows are not finite and strictly
    positive.  The field is marked ``price_weighted``.
    """

    def fn(C):
        P = chart_rows_embed(C)
        if not np.all(np.isfinite(P)) or np.any(P <= 0.0):
            raise ValueError("price rows must be finite and strictly positive")
        return aed_rows(e, P)[:, :-1]

    return TangentField(e.goods, fn, price_weighted=True)


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


def _probe_rows(field: TangentField, C: np.ndarray, window: np.ndarray | None = None):
    """Probe the chart map around every chart row ``c`` of ``C``, in one call.

    The rows probed are ``c``; ``c +- r e_j`` with ``r = min(0.02, margin/2)``
    (``margin``: the distance to the nearest face); ``c +- h e_j`` and
    ``c +- (h/2) e_j`` with ``h = 1e-6 * max(1, |c|)``; and ``c + r s`` for
    each ``s`` in ``window``, if given.  Returns per row: the full residual
    norm; the derivative scale ``max |value| / r`` over ``c`` and its ``r``
    stencil (0 when ``r <= 0``); the Jacobian at step ``h/2``; whether it
    agrees with the one at step ``h``; and the values on the window.
    """
    m, d = C.shape
    r = np.minimum(0.02, 0.5 * np.minimum(C.min(axis=1), 1.0 - C.sum(axis=1)))
    h = JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(C, axis=1))
    # Per point, d rows for each step: +r, -r, +h, -h, +h/2, -h/2.
    steps = np.stack([r, -r, h, -h, h / 2.0, -h / 2.0], axis=1)
    offsets = (steps[:, :, None, None] * np.eye(d)).reshape(m, -1, d)
    blocks = [C[:, None, :], C[:, None, :] + offsets]
    if window is not None:
        blocks.append(C[:, None, :] + (r[:, None] * window)[:, :, None])
    rows = np.concatenate(blocks, axis=1)
    V = field.chart_values(rows.reshape(-1, d)).reshape(rows.shape)

    residual = np.linalg.norm(_full_rows(C, V[:, 0])[1], axis=1)
    near = np.abs(V[:, : 1 + 2 * d]).max(axis=(1, 2))
    scale = np.divide(near, r, out=np.zeros(m), where=r > 0.0)
    # J[i, s, k, j] = (F_k(c + h_s e_j) - F_k(c - h_s e_j)) / 2 h_s, where h_s
    # is h or h/2 (the step columns 2 and 4).
    pm = V[:, 1 + 2 * d : 1 + 6 * d].reshape(m, 2, 2, d, d)
    J = (pm[:, :, 0] - pm[:, :, 1]).swapaxes(2, 3) / (2.0 * steps[:, 2::2])[:, :, None, None]
    size = np.abs(J).max(axis=(1, 2, 3))
    # The absolute floor keeps an exactly (or numerically) flat field from
    # tripping the check: both estimates are then noise around zero.
    floor = 1e-12 * np.fmax(1.0, scale)
    spread = np.abs(J[:, 0] - J[:, 1]).max(axis=(1, 2))
    consistent = ~(spread > JACOBIAN_CONSISTENCY_TOL * size + floor)
    return residual, scale, J[:, 1], consistent, V[:, 1 + 6 * d :]


def chart_jacobian(field_or_economy, c) -> np.ndarray:
    """Central-difference Jacobian of a field's chart map at chart point ``c``.

    Two estimates at steps ``h = 1e-6 * max(1, |c|)`` and ``h/2`` are
    compared; a relative disagreement above ``1e-4`` raises
    :class:`JacobianConsistencyError`.  This is the one-point case of the
    probe that classifies zeros, and evaluates the chart map once.
    """
    field = as_field(field_or_economy)
    _, _, J, consistent, _ = _probe_rows(field, _chart_coords(c)[None, :])
    if not consistent[0]:
        raise JacobianConsistencyError(
            "finite-difference Jacobian is step-size dependent at this point"
        )
    return J[0]
