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
:class:`ChartPoint`, by the chart map of
:func:`walraskit.fields.economy_field` for batches of chart rows, and by
the grid decomposition of :mod:`walraskit.decomposition` for its grid rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        _check_price_rows(coords, self.frame)
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
    excess-demand values (``_check_tangent_rows`` on one row).
    """

    base: PricePoint
    components: np.ndarray

    def __post_init__(self):
        comps = _readonly(self.components)
        if comps.shape != self.base.coords.shape:
            raise ValueError("tangent components must match the base dimension")
        base = self.base
        if base.frame != SPHERE:
            base = simplex_to_sphere(base)
            object.__setattr__(self, "base", base)
        _check_tangent_rows(base.coords[None, :], comps[None, :])
        object.__setattr__(self, "components", comps)

    @property
    def goods(self) -> int:
        return self.components.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def _check_price_rows(P: np.ndarray, frame: str = SIMPLEX) -> None:
    """Raise ``ValueError`` unless every row of ``P`` (price coordinates along
    the last axis) is finite, strictly positive and normalised for ``frame``
    within ``1e-12``; the messages are those of :class:`PricePoint`."""
    if not np.isfinite(P).all():
        raise ValueError("price coordinates must be finite")
    if (P <= 0.0).any():
        raise ValueError("price point must be interior (all coordinates > 0)")
    if frame == SIMPLEX:
        if (abs(P.sum(axis=-1) - 1.0) > FRAME_TOL).any():
            raise ValueError("simplex coordinates must sum to 1 within 1e-12")
    elif frame == SPHERE:
        if (abs(np.sqrt((P * P).sum(axis=-1)) - 1.0) > FRAME_TOL).any():
            raise ValueError("sphere coordinates must have norm 1 within 1e-12")
    else:
        raise ValueError(f"unknown frame {frame!r}")


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # Summed in the order of a 1-d ``@``: rows match one-point results bit for bit.
    return (X[:, None, :] @ Y[:, :, None])[:, 0]


def _check_tangent_rows(Q: np.ndarray, V: np.ndarray) -> None:
    """Raise ``ValueError`` unless every row ``v`` of ``V`` is finite and, at
    the sphere price row ``q`` of ``Q``, tangent: ``|q.v| <= 1e-10 max(1, |v|)``."""
    if not np.isfinite(V).all():
        raise ValueError("tangent components must be finite")
    err = np.abs(_rowdot(Q, V)[:, 0])
    bad = err > TANGENCY_TOL * np.maximum(1.0, np.sqrt(_rowdot(V, V)[:, 0]))
    if bad.any():
        raise ValueError(f"vector is not tangent at its base (|p.v| = {err[np.argmax(bad)]:.3e})")


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


def chart_rows(C) -> np.ndarray:
    """``C`` as C-ordered float chart rows, one row when it is a single point
    (a C-ordered float array of rows is passed on as it is)."""
    C = np.ascontiguousarray(C, dtype=float)
    return C.reshape(1, -1) if C.ndim < 2 else C


def chart_rows_embed(C: np.ndarray) -> np.ndarray:
    """Vectorised chart inverse: ``(n, l-1)`` chart rows (or one row) to
    ``(n, l)`` simplex rows."""
    C = chart_rows(C)
    P = np.empty((len(C), C.shape[1] + 1))
    P[:, :-1] = C
    np.subtract(1.0, _row_sums(C), out=P[:, -1])
    return P


def _row_sums(V: np.ndarray) -> np.ndarray:
    """``V.sum(axis=-1)`` to the bit: numpy adds a short row to ``+0.0`` left
    to right, one slow loop per row; this adds columns, for many rows."""
    if V.shape[-1] >= 8 or V.size < 1024:
        return V.sum(axis=-1)
    S = V[..., 0] + 0.0
    for k in range(1, V.shape[-1]):
        S += V[..., k]
    return S


def _windows(X: np.ndarray, radius: float) -> tuple:
    """The rows of ``X`` sorted by their first coordinate (stable), and for
    each sorted position the bounds ``lo, hi`` of the positions whose first
    coordinate lies within ``radius`` of its own.

    The window reaches a relative ``1e-12`` past ``radius``, more than the
    rounding of a difference, and rounding is monotone, so it holds every
    row that ``_within`` accepts.  One ulp past ``x + radius`` is not
    enough: for ``x = -0.4`` it misses ``0.1``, whose difference rounds to
    ``0.5``.
    """
    order = np.argsort(X[:, 0], kind="stable")
    x = X[order, 0]
    reach = radius * (1.0 + 1e-12)
    lo = np.searchsorted(x, x - reach, side="left")
    return order, lo, np.searchsorted(x, x + reach, side="right")


def _within(D: np.ndarray, radius: float, p: float) -> np.ndarray:
    """Which rows of differences ``D`` have Minkowski ``p``-norm at most
    ``radius``, for ``p`` = 2 or infinity (squared for ``p`` = 2)."""
    if p == np.inf:
        return np.abs(D).max(axis=1) <= radius
    return _row_sums(D * D) <= radius * radius


def _greedy_cover(X: np.ndarray, order, radius: float, p: float) -> np.ndarray:
    """Greedy radius cover of the rows of ``X``.

    Rows are visited in ``order``; a row not yet covered claims every
    uncovered row within ``radius`` of it (Minkowski ``p``-distance), itself
    included.  Returns the index of the claiming row for each row.
    """
    srt, lo, hi = _windows(X, radius)
    rank = np.empty_like(srt)
    rank[srt] = np.arange(len(srt))
    owner = np.full(len(X), -1)
    # A row alone in its window can only claim itself.
    alone = srt[hi - lo == 1]
    owner[alone] = alone
    order = np.asarray(order, dtype=int)
    for k in order[owner[order] < 0]:
        if owner[k] >= 0:
            continue
        near = srt[lo[rank[k]] : hi[rank[k]]]
        near = near[owner[near] < 0]
        owner[near[_within(X[near] - X[k], radius, p)]] = k
    return owner


def _close_pairs(X: np.ndarray, radius: float, p: float) -> np.ndarray:
    """The pairs ``(i, j)``, ``i < j``, of rows of ``X`` within ``radius`` of
    each other (Minkowski ``p``-distance), as a ``(pairs, 2)`` array."""
    srt, _, hi = _windows(X, radius)
    # Each sorted position pairs with the later positions of its window.
    later = hi - np.arange(len(X)) - 1
    i = np.repeat(np.arange(len(X)), later)
    j = np.arange(len(i)) - np.repeat(np.cumsum(later) - later - 1, later) + i
    a, b = srt[i], srt[j]
    near = _within(X[a] - X[b], radius, p)
    return np.sort(np.column_stack([a[near], b[near]]), axis=1)


def _linked_components(X: np.ndarray, radius: float, keep=None) -> np.ndarray:
    """Connected-component labels of the rows of ``X``, linking rows within
    ``radius``; given ``keep``, only the pairs that ``keep(pairs)`` accepts
    (called only when there are pairs).  Components are numbered in the
    order of their lowest row.

    Until no link joins two roots, each root is hooked under the lowest root
    it is linked to, and paths are then halved until every row points at its
    root.  A row's parent is never above it, so each root is the lowest row
    of its tree.
    """
    if len(X) < 2:
        return np.zeros(len(X), dtype=int)
    pairs = _close_pairs(X, radius, p=2)
    if keep is not None and len(pairs):
        pairs = pairs[keep(pairs)]
    parent = np.arange(len(X))
    a, b = pairs.T
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
    roots = parent == np.arange(len(X))
    return (np.cumsum(roots) - 1)[parent]
