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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import LinearNDInterpolator, NearestNDInterpolator, PchipInterpolator
from scipy.spatial import Delaunay, QhullError


class Scale:
    """Base class: a scale maps simplex price rows ``(n, l)`` to values ``(n,)``."""

    kind = ""  # the ``type`` of its serialised form

    def __call__(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantScale(Scale):
    kind = "constant"

    value: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0.0):
            raise ValueError("constant scale must be a positive finite number")

    def __call__(self, P):
        return np.full(P.shape[0], float(self.value))

    def to_dict(self):
        return {"type": self.kind, "value": float(self.value)}


@dataclass(frozen=True)
class PolynomialScale(Scale):
    """Polynomial in chart coordinates: sum of ``coeff * prod(c_j ** power_j)``.

    ``terms`` is a list of ``(coeff, powers)`` with one integer power per
    chart dimension.  Positivity is the caller's responsibility and is
    enforced where the scale is evaluated.
    """

    kind = "polynomial"

    terms: tuple = field(default=((1.0, (0,)),))

    def __post_init__(self):
        clean = []
        for coeff, powers in self.terms:
            powers = tuple(int(e) for e in powers)
            if any(e < 0 for e in powers):
                raise ValueError("polynomial powers must be non-negative")
            clean.append((float(coeff), powers))
        object.__setattr__(self, "terms", tuple(clean))

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

    def to_dict(self):
        return {
            "type": self.kind,
            "terms": [[c, list(p)] for c, p in self.terms],
        }


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
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        if self.radius <= 0.0:
            raise ValueError("bump radius must be positive")
        if self.floor <= 0.0 and self.floor + self.height <= 0.0:
            raise ValueError("bump scale must be positive somewhere")

    def __call__(self, P):
        C = P[:, :-1]
        u2 = ((C - np.asarray(self.center)) ** 2).sum(axis=1) / self.radius**2
        out = np.full(P.shape[0], float(self.floor))
        inside = u2 < 1.0
        out[inside] += self.height * np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return out

    def to_dict(self):
        return {
            "type": self.kind,
            "center": list(self.center),
            "radius": float(self.radius),
            "height": float(self.height),
            "floor": float(self.floor),
        }


@functools.lru_cache(maxsize=8)
def _delaunay(data: bytes, shape: tuple) -> Delaunay:
    # The l kernel_sampled scales of a realised economy share one grid, so
    # they share one triangulation; the key is the grid's float64 bytes.
    return Delaunay(np.frombuffer(data).reshape(shape))


def _build_interpolator(grid: np.ndarray, values: np.ndarray):
    if grid.shape[1] == 1:
        x = grid[:, 0]
        order = np.argsort(x)
        if np.any(np.diff(x[order]) <= 0.0):
            raise ValueError("sampled grid points must be distinct")
        interp = PchipInterpolator(x[order], values[order], extrapolate=False)
        lo, hi = x[order][0], x[order][-1]

        def call(C):
            c = np.clip(C[:, 0], lo, hi)
            return interp(c)

        return call
    # Scattered multi-dimensional data: piecewise-linear on the Delaunay
    # triangulation, nearest-value outside the convex hull.
    try:
        lin = LinearNDInterpolator(_delaunay(grid.tobytes(), grid.shape), values)
    except QhullError as exc:
        first = str(exc).strip().splitlines()[0]
        raise ValueError(
            f"sampled grid of {grid.shape[0]} points in {grid.shape[1]} chart "
            f"dimensions cannot be triangulated ({first})"
        ) from None
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
        grid = grid.copy()
        grid.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", _build_interpolator(grid, values))

    def __call__(self, P):
        return np.asarray(self._interp(P[:, :-1]), dtype=float)

    def to_dict(self):
        return {
            "type": self.kind,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
        }


@dataclass(frozen=True)
class KernelSampledScale(Scale):
    """Sampled ratio times the closed-form kernel weight of one canonical consumer.

    Evaluates to ``interp(ratio)(chart(p)) * share / (p[good] * level)`` on
    simplex-frame prices.  ``share`` and ``level`` are the preference share
    and endowment level of the consumer holding only ``good``.
    """

    kind = "kernel_sampled"

    grid: np.ndarray
    values: np.ndarray
    good: int
    share: float
    level: float

    def __post_init__(self):
        if not (0.0 < self.share < 1.0):
            raise ValueError("share must lie strictly between 0 and 1")
        if not (np.isfinite(self.level) and self.level > 0.0):
            raise ValueError("endowment level must be a positive finite number")
        sampled = SampledScale(self.grid, self.values)
        object.__setattr__(self, "grid", sampled.grid)
        object.__setattr__(self, "values", sampled.values)
        object.__setattr__(self, "_ratio", sampled)

    def __call__(self, P):
        ratio = self._ratio(P)
        return ratio * self.share / (P[:, self.good] * self.level)

    def to_dict(self):
        return {
            "type": self.kind,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "good": int(self.good),
            "share": float(self.share),
            "level": float(self.level),
        }


def scale_from_dict(data: dict) -> Scale:
    """Rebuild a scale from its serialised form."""
    kind = data.get("type")
    if kind == "constant":
        return ConstantScale(data["value"])
    if kind == "polynomial":
        return PolynomialScale(tuple((c, tuple(p)) for c, p in data["terms"]))
    if kind == "bump":
        return BumpScale(
            tuple(data["center"]), data["radius"], data["height"], data["floor"]
        )
    if kind == "sampled":
        return SampledScale(np.asarray(data["grid"]), np.asarray(data["values"]))
    if kind == "kernel_sampled":
        return KernelSampledScale(
            np.asarray(data["grid"]),
            np.asarray(data["values"]),
            data["good"],
            data["share"],
            data["level"],
        )
    raise ValueError(f"unknown scale type {kind!r}")
