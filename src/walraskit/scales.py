"""Closed vocabulary of positive price-scaling functions.

Consumers may carry a scaling function multiplying their excess demand.
The vocabulary is deliberately closed so economies serialise to files and
round-trip exactly:

* ``constant``        -- a positive number,
* ``polynomial``      -- a polynomial in the chart coordinates,
* ``bump``            -- a smooth bump over a chart ball, on a positive floor,
* ``sampled``         -- monotone piecewise-cubic interpolation of values on
                         a chart grid (piecewise-linear for 2-d+ charts),
* ``kernel_sampled``  -- a ``sampled`` factor times the closed-form positive
                         kernel weight ``share / (p_good * level)`` of one
                         canonical consumer.

Every scale is evaluated on simplex-frame price rows, so scaled excess
demand stays homogeneous of degree zero in unnormalised prices.

The ``kernel_sampled`` form is what field realisation produces: sampling the
ratio of the decomposition coefficient to the kernel weight (instead of the
coefficient itself) makes the reconstructed aggregate vanish exactly, not
just approximately, wherever the target field is flat at zero and the
sampled ratios agree across consumers.

A one-dimensional grid is interpolated by PCHIP in numpy, with per-interval
cubic coefficients built once with the scale; its values are those of
scipy's ``PchipInterpolator`` to the bit.  The ``kernel_sampled`` scales
of an economy that share one such grid are evaluated together, as one
group with one search of the grid and one gather (``_scale_groups``).  A
grid of two or more chart dimensions is checked when the scale is built
(its points must affinely span the chart, a numpy rank test), and its
Delaunay triangulation is built when the scale is first evaluated: scipy
is loaded then, and only then.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np


class Scale:
    """Base class: a scale maps simplex price rows ``(n, l)`` to values ``(n,)``.

    Each subclass is a frozen dataclass whose fields are its serialised
    form: :meth:`to_dict` writes them and :func:`scale_from_dict` reads
    them back, so ``__post_init__`` stores plain Python numbers.
    """

    kind = ""  # the ``type`` of its serialised form

    def __call__(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """``{"type": kind, **fields}``, arrays and tuples written as lists."""
        return {"type": self.kind, **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}


def _number(x, name: str) -> float:
    """``x`` as a plain ``float``; a bool or a string is not a number here."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise ValueError(f"{name} must be a number, not {x!r}")
    return float(x)


def _integer(x, name: str):
    """``x`` itself when it is an integer: an ``Integral``, not a bool."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{name} must be an integer, not {x!r}")
    return x


def _power(e) -> int:
    """``e`` as a plain ``int``: an integer, or a float with an integral value."""
    if isinstance(e, bool) or not isinstance(e, Real) or not float(e).is_integer() or e < 0:
        raise ValueError(f"polynomial powers must be non-negative integers, not {e!r}")
    return int(e)


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


@dataclass(frozen=True)
class ConstantScale(Scale):
    kind = "constant"

    value: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "value", _number(self.value, "constant scale value"))
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise ValueError("constant scale must be a positive finite number")

    def __call__(self, P):
        return np.full(P.shape[0], self.value)


@dataclass(frozen=True)
class PolynomialScale(Scale):
    """Polynomial in chart coordinates: sum of ``coeff * prod(c_j ** power_j)``.

    ``terms`` is a list of ``(coeff, powers)`` with finite coefficients and
    one integer power per chart dimension.  Positivity is the caller's
    responsibility and is enforced where the scale is evaluated.
    """

    kind = "polynomial"

    terms: tuple = ((1.0, (0,)),)

    def __post_init__(self):
        clean = tuple(
            (_number(coeff, "polynomial coefficient"), tuple(_power(e) for e in powers))
            for coeff, powers in self.terms
        )
        if not np.all(np.isfinite([coeff for coeff, _ in clean])):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "terms", clean)

    def __call__(self, P):
        C = P[:, :-1]
        out = np.zeros(P.shape[0])
        for coeff, powers in self.terms:
            term = np.full(P.shape[0], coeff)
            for j, e in enumerate(powers):
                if e:
                    term = term * C[:, j] ** e
            out += term
        return out


@dataclass(frozen=True)
class BumpScale(Scale):
    """``floor + height * exp(1 - 1/(1 - u^2))`` inside the chart ball of the
    given radius around ``center``, ``floor`` outside."""

    kind = "bump"

    center: tuple
    radius: float
    height: float = 1.0
    floor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_number(x, "bump center") for x in self.center))
        for name in ("radius", "height", "floor"):
            object.__setattr__(self, name, _number(getattr(self, name), f"bump {name}"))
        # Written so that NaN fails the check too.
        if not np.all(np.isfinite([*self.center, self.radius, self.height, self.floor])):
            raise ValueError("bump center, radius, height and floor must be finite")
        if self.radius <= 0.0:
            raise ValueError("bump radius must be positive")
        if self.floor <= 0.0 and self.floor + self.height <= 0.0:
            raise ValueError("bump scale must be positive somewhere")

    def __call__(self, P):
        C = P[:, :-1]
        u2 = ((C - np.asarray(self.center)) ** 2).sum(axis=1) / self.radius**2
        out = np.full(P.shape[0], self.floor)
        inside = u2 < 1.0
        out[inside] += self.height * np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out


@functools.lru_cache(maxsize=8)
def _delaunay(data: bytes, shape: tuple):
    # The l kernel_sampled scales of a realised economy share one grid, so
    # they share one triangulation; the key is the grid's float64 bytes.
    from scipy.spatial import Delaunay

    return Delaunay(np.frombuffer(data).reshape(shape))


def _end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at an end node, clamped to keep the
    shape: 0 where its sign is not that of the end secant ``m0``, and
    ``3 m0`` where the secants change sign and it exceeds ``3 |m0|``."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PCHIP (Fritsch & Butland 1984) on increasing nodes ``x``: column
    ``k`` of the ``(4, nodes - 1)`` table holds ``(c0, c1, c2, c3)``, the
    cubic ``c0 s^3 + c1 s^2 + c2 s + c3`` in ``s = c - x[k]`` on
    ``[x[k], x[k+1]]``.

    Node slopes are the weighted harmonic mean of the two secants, 0 where
    they differ in sign or either is 0, with the one-sided end rule (Moler,
    *Numerical Computing with MATLAB*, 3.6); two nodes give a line.  Every
    step is scipy's ``PchipInterpolator`` arithmetic, so values agree to
    the bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(y)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        # Where the secants disagree the mean may divide by zero; those
        # slopes stay 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][smooth] = 1.0 / mean[smooth]
        d[0] = _end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip(x: np.ndarray, table: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The values, ``(n, k)``, at the chart coordinates ``c`` of ``k``
    interpolants on the increasing nodes ``x``, their ``_pchip_table``s
    stacked on the last axis of ``table``, ``(4, nodes - 1, k)``: one clip,
    one search and one gather for all of them."""
    # Held constant beyond the end nodes (a clip, without np.clip's overhead).
    c = np.minimum(np.maximum(c, x[0]), x[-1])
    k = np.searchsorted(x[1:-1], c, side="right")
    s = (c - x[k])[:, None]
    c0, c1, c2, c3 = np.take(table, k, axis=1)
    # scipy's power-sum order, not Horner's: the same bits.
    s2 = s * s
    return ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s)


def _build_interpolator(grid: np.ndarray, values: np.ndarray):
    """The interpolant of ``values`` on ``grid`` and, for a 1-d grid, its
    sorted nodes and ``(4, nodes - 1, 1)`` table (``_pchip``), else None."""
    if grid.shape[1] == 1:
        x = grid[:, 0]
        if x.size < 2:
            raise ValueError("a 1-d sampled grid needs at least 2 points")
        order = np.argsort(x)
        x, y = x[order], values[order]
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("sampled grid points must be distinct")
        table = _pchip_table(x, y)[:, :, None]
        for a in (x, table):
            a.setflags(write=False)
        return (lambda C: _pchip(x, table, C[:, 0])[:, 0]), (x, table)
    # The points must affinely span the chart.  A direction counts above 1e-12
    # of the largest singular value: qhull refuses ratios up to about 3.5e-14,
    # and realised grids have about 0.5.
    s = np.linalg.svd(grid[1:] - grid[:1], compute_uv=False)
    span = int((s > 1e-12 * s.max(initial=0.0)).sum())
    if grid.shape[1] < 1 or span < grid.shape[1]:
        raise ValueError(_untriangulable(grid, f"its points span {span} of them"))
    # Built on first evaluation: a scale that is only written, or only read
    # at its nodes, needs no triangulation and no scipy.
    linear = functools.cache(lambda: _linear_nd(grid, values))
    return (lambda C: linear()(C)), None


def _untriangulable(grid: np.ndarray, reason: str) -> str:
    return (
        f"sampled grid of {grid.shape[0]} points in {grid.shape[1]} chart "
        f"dimensions cannot be triangulated ({reason})"
    )


def _linear_nd(grid: np.ndarray, values: np.ndarray):
    """Piecewise-linear interpolation on the Delaunay triangulation of
    scattered n-d nodes, nearest-value outside their convex hull."""
    # scipy is loaded here, by multi-dimensional sampled grids alone.
    from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator
    from scipy.spatial import QhullError

    try:
        lin = LinearNDInterpolator(_delaunay(grid.tobytes(), grid.shape), values)
    except QhullError as exc:
        # A grid that is flat within qhull's precision but not by the rank test.
        raise ValueError(_untriangulable(grid, str(exc).strip().splitlines()[0])) from None
    near = NearestNDInterpolator(grid, values)

    def call(C):
        out = lin(C)
        bad = np.isnan(out)
        if np.any(bad):
            out[bad] = near(C[bad])
        return out

    return call


@dataclass(frozen=True)
class SampledScale(Scale):
    """Interpolation of positive values sampled on a chart grid.

    One chart dimension uses shape-preserving piecewise-cubic interpolation
    (values between nodes stay within the node range, which keeps the scale
    positive); higher dimensions use piecewise-linear interpolation with
    nearest-value extension outside the hull.  Outside the grid range the
    nearest value is held constant.

    Every check is made when the scale is built, and a grid of two or more
    chart dimensions whose points do not affinely span the chart, a singular
    value counting only above 1e-12 of the largest, is refused there with
    "cannot be triangulated".  Its interpolator (scipy's) is
    built on the first call; the grid's triangulation is cached, so scales
    that share a grid share it.  Should qhull refuse a grid that passed the
    rank test, that first call raises the same ``ValueError``.
    """

    kind = "sampled"

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.atleast_2d(np.asarray(self.grid, dtype=float))
        if grid.shape[0] == 1 and grid.shape[1] > 1:
            grid = grid.T
        values = np.asarray(self.values, dtype=float)
        if grid.shape[0] != values.size:
            raise ValueError("grid and values must have the same length")
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError("sampled scale values must be finite and strictly positive")
        if not np.all(np.isfinite(grid)):
            raise ValueError("sampled grid points must be finite")
        grid = grid.copy()
        grid.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        interp, pchip = _build_interpolator(grid, values)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_pchip", pchip)

    def __call__(self, P):
        return np.asarray(self._interp(P[:, :-1]), dtype=float)


@dataclass(frozen=True)
class KernelSampledScale(SampledScale):
    """Sampled ratio times the closed-form kernel weight of one canonical consumer.

    Evaluates to ``interp(ratio)(chart(p)) * share / (p[good] * level)`` on
    simplex-frame prices.  ``share`` and ``level`` are the preference share
    and endowment level of the consumer holding only ``good``; a
    :class:`~walraskit.consumers.Consumer` checks that ``good`` is one of
    its goods.
    """

    kind = "kernel_sampled"

    good: int
    share: float
    level: float

    def __post_init__(self):
        for name in ("share", "level"):
            object.__setattr__(self, name, _number(getattr(self, name), f"kernel {name}"))
        if not (0.0 < self.share < 1.0):
            raise ValueError("share must lie strictly between 0 and 1")
        if not (np.isfinite(self.level) and self.level > 0.0):
            raise ValueError("endowment level must be a positive finite number")
        super().__post_init__()
        # Only an integer is made plain: 0.5 or True stays as given, for the
        # consumer's check to refuse.
        if isinstance(self.good, Integral) and not isinstance(self.good, bool):
            object.__setattr__(self, "good", int(self.good))

    def __call__(self, P):
        return self._weighted(super().__call__(P), P)

    def at_nodes(self, P):
        """The scale at ``P``, the simplex rows of its own grid nodes in grid
        order: each node value times the kernel weight, with no interpolation."""
        return self._weighted(self.values, P)

    def _weighted(self, ratio, P):
        return _kernel_weighted(ratio, P, self.good, self.share, self.level)


def _kernel_weighted(ratio, P, good, share, level):
    """``ratio`` times the kernel weight ``share / (p_good * level)`` at the
    simplex rows ``P``, of one scale or, given arrays, of each column."""
    return ratio * share / (P[:, good] * level)


def _scale_groups(scales: list) -> tuple:
    """The ``(position, scale)`` pairs ``scales`` as ``(positions, map)``
    groups, each map taking simplex price rows to the values of its scales,
    one column each: the 1-d ``kernel_sampled`` scales of each grid, stacked
    (``_kernel_stack``), then every other scale alone, in the order given."""
    grids, others = {}, []
    for k, s in scales:
        if isinstance(s, KernelSampledScale) and s._pchip is not None:
            grids.setdefault(s._pchip[0].tobytes(), []).append((k, s))
        else:
            others.append((np.array([k]), lambda P, s=s: s(P)[:, None]))
    stacks = [(np.array([k for k, _ in g]), _kernel_stack([s for _, s in g])) for g in grids.values()]
    return tuple(stacks + others)


def _kernel_stack(scales: list):
    """The 1-d ``kernel_sampled`` ``scales``, which share one grid, as one
    map of simplex price rows ``(n, l)`` to their values ``(n, scales)``:
    one ``_pchip`` call on their stacked tables, then the kernel weight of
    each column (``_kernel_weighted``)."""
    x = scales[0]._pchip[0]
    table = np.concatenate([s._pchip[1] for s in scales], axis=2)
    kernel = [np.array([getattr(s, name) for s in scales]) for name in ("good", "share", "level")]
    return lambda P: _kernel_weighted(_pchip(x, table, P[:, 0]), P, *kernel)


_KINDS = {
    cls.kind: cls
    for cls in (ConstantScale, PolynomialScale, BumpScale, SampledScale, KernelSampledScale)
}


def scale_from_dict(data: dict) -> Scale:
    """Rebuild a scale from its serialised form: every field is required,
    other keys are ignored."""
    if not isinstance(data, dict):
        raise TypeError(f"a scale must be a mapping, not {type(data).__name__}")
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown scale type {kind!r}")
    cls = _KINDS[kind]
    return cls(**{f.name: data[f.name] for f in fields(cls)})
