"""Tangent vector fields on the open price simplex and their chart maps.

A field is represented computationally by its chart map: the first ``l - 1``
components of the field value, as a function of the ``l - 1`` chart
coordinates.  Because field values are tangent (Walras' law), the last
component is recovered exactly from the first ones:

    z_l = -(p_1 z_1 + ... + p_{l-1} z_{l-1}) / p_l.

Chart maps are vectorised: they take an ``(n, l-1)`` array of chart rows and
return an ``(n, l-1)`` array of values.  Everything downstream (equilibrium
location, perturbation, scanning) works through this interface, so a batch
of a few thousand evaluations costs one numpy call, on rows in C order:
a row gets the same bits however the caller laid the batch out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .consumers import Economy, aed_rows
from .geometry import PricePoint, TangentVector, _row_sums, chart_rows, chart_rows_embed, simplex_to_sphere
from .scales import _integer


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

    def __post_init__(self):
        if _integer(self.goods, "goods") < 2:
            raise ValueError(f"a field needs at least two goods, not goods={self.goods}")

    @property
    def dim(self) -> int:
        return self.goods - 1

    def chart_values(self, C) -> np.ndarray:
        """Evaluate the chart map on ``(n, l-1)`` chart rows, in C order (a
        C-ordered float array is passed on as it is).  The map must return
        ``(n, l-1)`` values, or ``(n,)`` for two goods."""
        C = chart_rows(C)
        if C.shape[1] != self.dim:
            raise ValueError(f"expected chart rows of width {self.dim}")
        out = np.asarray(self.chart_fn(C), dtype=float)
        if out.shape != C.shape and (self.dim, out.shape) != (1, C.shape[:1]):
            raise ValueError(f"chart map returned shape {out.shape} for {len(C)} chart rows of width {self.dim}")
        return out.reshape(C.shape)

    def full_values(self, C) -> tuple[np.ndarray, np.ndarray]:
        """Simplex price rows and full field rows over ``(n, l-1)`` chart rows."""
        C = chart_rows(C)
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
    """Simplex price rows and full field rows from chart rows and chart
    values; ``F`` may stack several fields' values at ``C``, ``(k, n, l-1)``."""
    P = chart_rows_embed(C)
    last = -_row_sums(P[:, :-1] * F) / P[:, -1]
    return P, np.concatenate([F, last[..., None]], axis=-1)


def economy_field(e: Economy) -> TangentField:
    """The aggregate-excess-demand field of an economy.

    Its chart map is where batches of prices enter the raw evaluation core,
    so it rejects chart rows whose price rows are not finite and strictly
    positive.  The field is marked ``price_weighted``.
    """

    def fn(C):
        P = chart_rows_embed(C)
        # Written so that NaN fails the check too.
        if not ((P > 0.0) & (P < np.inf)).all():
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
