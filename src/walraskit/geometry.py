"""Price-space geometry: open simplex, positive unit sphere, and the flat chart.

Strictly positive price vectors are carried in one of two frames:

* ``simplex`` -- coordinates sum to one (the open unit simplex),
* ``sphere``  -- coordinates have Euclidean norm one (positive part of the
  unit sphere).

The two frames are identified by radial projection, which is smooth and has
an explicit inverse.  A global chart identifies the simplex with an open
subset of ``R^(l-1)`` by dropping the last coordinate.  Excess-demand values
are tangent to the sphere at their base price (that is what Walras' law
says), hence the :class:`TangentVector` type.

The vectorised evaluation core works on raw ``(n, l)`` arrays of price rows
and assumes them finite and strictly positive without checking.  Prices are
checked once, where they enter: by :class:`PricePoint` and
:class:`ChartPoint`, and by the chart map of
:func:`walraskit.fields.economy_field` for batches of chart rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

SIMPLEX = "simplex"
SPHERE = "sphere"

FRAME_TOL = 1e-12
TANGENCY_TOL = 1e-10


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PricePoint:
    """A strictly positive price vector in a declared frame.

    Parameters
    ----------
    coords : array_like
        Strictly positive entries; must satisfy the frame normalisation
        (coordinate sum 1 for ``simplex``, Euclidean norm 1 for ``sphere``)
        within ``1e-12``.
    frame : str
        Either ``"simplex"`` or ``"sphere"``.
    """

    coords: np.ndarray
    frame: str = SIMPLEX

    def __post_init__(self):
        coords = _readonly(self.coords)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("price point needs a 1-d vector of length >= 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("price coordinates must be finite")
        if np.any(coords <= 0.0):
            raise ValueError("price point must be interior (all coordinates > 0)")
        if self.frame == SIMPLEX:
            if abs(coords.sum() - 1.0) > FRAME_TOL:
                raise ValueError("simplex coordinates must sum to 1 within 1e-12")
        elif self.frame == SPHERE:
            if abs(np.linalg.norm(coords) - 1.0) > FRAME_TOL:
                raise ValueError("sphere coordinates must have norm 1 within 1e-12")
        else:
            raise ValueError(f"unknown frame {self.frame!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def goods(self) -> int:
        return self.coords.size

    def simplex_coords(self) -> np.ndarray:
        """Coordinates of this point in the simplex frame."""
        if self.frame == SIMPLEX:
            return self.coords
        return self.coords / self.coords.sum()


@dataclass(frozen=True)
class ChartPoint:
    """Image of an interior simplex point under the drop-last-coordinate chart.

    Coordinates are the first ``l - 1`` simplex coordinates; they are strictly
    positive and sum to strictly less than one.
    """

    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(np.atleast_1d(self.coords))
        if coords.ndim != 1 or coords.size < 1:
            raise ValueError("chart point needs a 1-d vector of length >= 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("chart coordinates must be finite")
        if np.any(coords <= 0.0) or coords.sum() >= 1.0:
            raise ValueError(
                "chart point must satisfy coords > 0 and sum(coords) < 1"
            )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class TangentVector:
    """A vector tangent to the positive price sphere at a base point.

    Components must be finite and tangent (``base . components == 0`` within
    ``1e-10``, relative to their magnitude), which is exactly Walras' law for
    excess-demand values.  This is the package's one tangency check.
    """

    base: PricePoint
    components: np.ndarray

    def __post_init__(self):
        comps = _readonly(self.components)
        if comps.shape != self.base.coords.shape:
            raise ValueError("tangent components must match the base dimension")
        if not np.all(np.isfinite(comps)):
            raise ValueError("tangent components must be finite")
        base = self.base
        if base.frame != SPHERE:
            base = simplex_to_sphere(base)
            object.__setattr__(self, "base", base)
        err = abs(float(base.coords @ comps))
        if err > TANGENCY_TOL * max(1.0, float(np.linalg.norm(comps))):
            raise ValueError(f"vector is not tangent at its base (|p.v| = {err:.3e})")
        object.__setattr__(self, "components", comps)

    @property
    def goods(self) -> int:
        return self.components.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def simplex_point(coords) -> PricePoint:
    return PricePoint(coords, SIMPLEX)


def simplex_to_sphere(p: PricePoint) -> PricePoint:
    """Radial projection of a simplex point onto the positive unit sphere."""
    c = p.simplex_coords()
    return PricePoint(c / np.linalg.norm(c), SPHERE)


def tangent_project(p: PricePoint, v) -> TangentVector:
    """Orthogonal projection of ``v`` onto the tangent space at ``p``.

    Returns ``v - (p . v) p`` with ``p`` in sphere coordinates.  Idempotent,
    and the result satisfies the tangency invariant by construction.
    """
    base = p if p.frame == SPHERE else simplex_to_sphere(p)
    v = np.asarray(v, dtype=float)
    if v.shape != base.coords.shape:
        raise ValueError("vector dimension must match the price dimension")
    w = v - (base.coords @ v) * base.coords
    return TangentVector(base, w)


# --- raw-array helpers used by the vectorised evaluation core ---------------


def chart_rows_embed(C: np.ndarray) -> np.ndarray:
    """Vectorised chart inverse: ``(n, l-1)`` chart rows to ``(n, l)`` simplex rows."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    last = 1.0 - C.sum(axis=1, keepdims=True)
    return np.hstack([C, last])


def _greedy_cover(X: np.ndarray, order, radius: float, p: float) -> np.ndarray:
    """Greedy radius cover of the rows of ``X``.

    Rows are visited in ``order``; a row not yet covered claims every
    uncovered row within ``radius`` of it (Minkowski ``p``-distance), itself
    included.  Returns the index of the claiming row for each row.
    """
    tree = cKDTree(X)
    owner = np.full(len(X), -1)
    # A row with no other row within ``radius`` can only claim itself.
    alone = np.flatnonzero(tree.query_ball_point(X, radius, p=p, return_length=True) == 1)
    owner[alone] = alone
    order = np.asarray(order, dtype=int)
    for k in order[owner[order] < 0]:
        if owner[k] >= 0:
            continue
        near = np.asarray(tree.query_ball_point(X[k], radius, p=p), dtype=int)
        owner[near[owner[near] < 0]] = k
    return owner
