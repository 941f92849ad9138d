"""Positive-cone decomposition of tangent fields over canonical consumers.

A canonical family consists of ``l`` Cobb-Douglas consumers sharing one
preference vector ``alpha``, where consumer ``i`` holds only good ``i``.
Its individual excess demands at any interior price ``p`` are

    z_i(p)_j = alpha_j * (p_i / p_j) * level_i     for j != i,
    z_i(p)_i = -(1 - alpha_i) * level_i,

so each ``z_i`` has a strictly negative i-th coordinate and strictly
positive others.  The ``l`` vectors positively span the ``(l-1)``-dimensional
tangent space at ``p``: they admit a strictly positive linear dependency
(the "positive kernel"), and consequently every tangent vector is a strictly
positive combination of them.  Decomposing a whole tangent field pointwise
and interpolating the coefficients realises the field as the aggregate
excess demand of an ``l``-consumer economy.

The positive kernel has the closed form ``kappa_i ~ alpha_i / (p_i level_i)``,
and that is how it is computed: no singular value decomposition.  One core
decomposes raw ``(n, l)`` target rows, checking numerically that the kernel
annihilates the basis and that each residual is small; any failure of the
positive-spanning property is an internal error (it would disprove the
construction, so it is never silently ignored).  :func:`decompose_at` and
:func:`positive_kernel` are one-row calls; :func:`realize_economy` makes one
call for its whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consumers import UNIT_SCALE, Consumer, Economy
from .fields import as_field
from .geometry import PricePoint, TangentVector
from .scales import KernelSampledScale

KERNEL_NULLSPACE_TOL = 1e-10
COEFFICIENT_FLOOR = 1.0
RECONSTRUCTION_TOL = 1e-8


class PositiveSpanningError(RuntimeError):
    """The canonical excess demands failed to positively span the tangent space.

    This contradicts the construction and indicates a numerical breakdown;
    it is reported rather than worked around.
    """


@dataclass(frozen=True)
class CanonicalFamily:
    """``l`` single-good Cobb-Douglas consumers with a shared share vector.

    Parameters
    ----------
    alpha : array_like
        Shared preference shares (positive, summing to one).
    endowment_levels : array_like, optional
        ``level_i`` is consumer i's holding of good i; defaults to all ones.
    """

    alpha: np.ndarray
    endowment_levels: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a vector of length >= 2")
        # Written so that NaN and inf entries fail the checks too.
        if not (np.all(alpha > 0.0) and abs(alpha.sum() - 1.0) <= 1e-12):
            raise ValueError("alpha must be strictly positive and sum to 1")
        levels = self.endowment_levels
        levels = np.ones_like(alpha) if levels is None else np.array(levels, dtype=float)
        if levels.shape != alpha.shape or not np.all((levels > 0.0) & (levels < np.inf)):
            raise ValueError("endowment levels must be finite and strictly positive, one per good")
        alpha.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "endowment_levels", levels)

    @property
    def goods(self) -> int:
        return self.alpha.size

    @classmethod
    def symmetric(cls, goods: int) -> "CanonicalFamily":
        return cls(np.full(goods, 1.0 / goods))

    def consumers(self, scales=None) -> tuple[Consumer, ...]:
        """The family as plain consumers, optionally with per-consumer scales."""
        scales = scales or [UNIT_SCALE] * self.goods
        omegas = np.diag(self.endowment_levels)
        return tuple(Consumer(self.alpha, omegas[i], scale=s) for i, s in enumerate(scales))


@dataclass(frozen=True)
class DecompositionWitness:
    """Strictly positive coefficients reconstructing a target tangent vector.

    The residual is checked, relative to the target's norm, by
    :func:`decompose_at`, which builds every witness of this package.
    """

    price: PricePoint
    mu: np.ndarray
    residual: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        if not np.all(mu > 0.0):
            raise ValueError("decomposition coefficients must be strictly positive")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def basis_matrix(f: CanonicalFamily, P: np.ndarray) -> np.ndarray:
    """Stacked basis vectors over price rows.

    Returns ``Z`` of shape ``(n, l, l)`` with ``Z[k, :, i]`` the excess
    demand of canonical consumer ``i`` at price row ``k``.  Writing
    ``omega = levels``, the matrix at one price is
    ``outer(alpha / p, p * omega) - diag(omega)``.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    A = f.alpha / P                          # (n, l) rows alpha_j / p_j
    B = P * f.endowment_levels               # (n, l) cols p_i * omega_i
    Z = A[:, :, None] * B[:, None, :]
    idx = np.arange(f.goods)
    Z[:, idx, idx] -= f.endowment_levels
    return Z


def basis_excess_demands(f: CanonicalFamily, p: PricePoint) -> list[TangentVector]:
    """The ``l`` canonical excess demands at ``p``, as tangent vectors."""
    Z = basis_matrix(f, p.coords[None, :])[0]
    return [TangentVector(p, Z[:, i]) for i in range(f.goods)]


def kernel_weights(f: CanonicalFamily, P: np.ndarray) -> np.ndarray:
    """Closed-form positive kernel ``alpha_i / (p_i * level_i)`` per price row."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return f.alpha / (P * f.endowment_levels)


def _rowdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # Summed in the order of a 1-d ``@``: rows match one-point results bit for bit.
    return (X[:, None, :] @ Y[:, :, None])[:, 0]


def _decompose_rows(f: CanonicalFamily, P: np.ndarray, V: np.ndarray):
    """:func:`decompose_at` on ``(n, l)`` rows: coefficients ``mu`` and
    residual norms for tangent target rows ``V`` at positive price rows ``P``.

    Both checks (kernel and residual) raise :class:`PositiveSpanningError`
    on NaN as well.
    """
    Z = basis_matrix(f, P)
    kappa = kernel_weights(f, P)
    kappa = (kappa / kappa.min(axis=1, keepdims=True))[:, :, None]
    if not np.all(np.abs(Z @ kappa) <= KERNEL_NULLSPACE_TOL * (np.abs(Z) @ kappa)):
        raise PositiveSpanningError("closed-form kernel does not annihilate the basis")

    # The construction runs in extended precision: re-orthogonalise the
    # target against the base, pick S, and form mu.  The returned mu is cast
    # back to double; its residual (measured in extended precision against
    # the caller's vector) is then dominated by that final rounding, about
    # eps * |v| * |alpha/p|.
    pc = P.astype(np.longdouble)
    v = V.astype(np.longdouble)
    vt = v - _rowdot(pc, v) * pc / _rowdot(pc, pc)
    a = f.alpha.astype(np.longdouble) / pc
    omega = f.endowment_levels.astype(np.longdouble)
    s_star = np.max((COEFFICIENT_FLOOR * omega + vt) / a, axis=1, keepdims=True)
    s_star += 1e-15 * (1.0 + np.abs(s_star))  # keep min(mu) >= the floor despite rounding
    mu = np.asarray((a * s_star - vt) / omega, dtype=float)

    R = (Z.astype(np.longdouble) @ mu.astype(np.longdouble)[:, :, None])[:, :, 0] - v
    residual = np.sqrt(_rowdot(R, R)[:, 0]).astype(float)
    if not np.all(residual <= RECONSTRUCTION_TOL * np.maximum(1.0, np.linalg.norm(V, axis=1))):
        raise PositiveSpanningError(
            f"decomposition residual {np.max(residual):.3e} is too large"
        )
    return mu, residual


def positive_kernel(f: CanonicalFamily, p: PricePoint) -> np.ndarray:
    """Strictly positive dependency of the canonical excess demands at ``p``.

    The closed form :func:`kernel_weights`, normalised so the smallest entry
    is one (within ``1e-15``): the decomposition of the zero vector.  No SVD
    is computed.  Raises :class:`PositiveSpanningError` unless the basis
    matrix maps it to zero within rounding.  The rank needs no check: the
    basis matrix is ``diag(-omega)`` plus a rank-one matrix, so its rank is
    at least ``l - 1``.
    """
    return _decompose_rows(f, p.coords[None, :], np.zeros((1, p.goods)))[0][0]


def decompose_at(f: CanonicalFamily, target: TangentVector) -> DecompositionWitness:
    """Strictly positive coefficients with ``sum_i mu_i z_i(p) = target``.

    Tangency was checked when the target was built; the positive-spanning
    property is re-validated numerically at ``p`` on every call.

    The basis matrix is ``outer(alpha/p, p*omega) - diag(omega)``, so for a
    tangent target the solution set is the explicit line

        mu_j(S) = (S * alpha_j / p_j - v_j) / omega_j,

    directed by the positive kernel.  The witness returned is the unique
    point on that line whose smallest entry equals ``COEFFICIENT_FLOOR``
    (1.0) -- the same point the minimum-norm solution reaches after shifting
    along the kernel, but computed without a least-squares solve, which
    keeps the residual at rounding level relative to the target's norm,
    whatever that norm is.
    A residual above ``1e-8 * max(1, |target|)`` raises
    :class:`PositiveSpanningError`.
    """
    p = target.base
    mu, residual = _decompose_rows(f, p.coords[None, :], target.components[None, :])
    return DecompositionWitness(price=p, mu=mu[0], residual=float(residual[0]))


class GridTooCoarseError(ValueError):
    """Interpolated coefficients dipped non-positive between grid points."""


def realize_economy(f: CanonicalFamily, target_field, grid: list[PricePoint]) -> Economy:
    """An ``l``-consumer economy whose aggregate excess demand matches a field
    on a price grid.

    The target is evaluated once over the grid and decomposed over the
    canonical basis as in :func:`decompose_at`, with smallest coefficient
    ``COEFFICIENT_FLOOR`` at every grid point; consumer ``i`` receives a
    scale interpolating its coefficients between grid points.  What is
    sampled is the ratio of the coefficient to the closed-form kernel weight:
    wherever the target is identically zero the sampled ratios coincide
    across consumers and the reconstructed aggregate vanishes exactly between
    grid points as well, not only at them.

    Raises ``ValueError`` if the target is not finite at a grid point, and
    :class:`GridTooCoarseError` if an interpolated coefficient fails to stay
    strictly positive between grid points.
    """
    field = as_field(target_field)
    if not grid:
        raise ValueError("realisation needs a non-empty price grid")
    S = np.array([p.simplex_coords() for p in grid])
    chart_rows = S[:, :-1]
    _, V = field.full_values(chart_rows)
    if not np.all(np.isfinite(V)):
        raise ValueError("target field values must be finite at every grid point")
    # Decompose at the sphere normalisation of each price, as decompose_at does.
    mu, _ = _decompose_rows(f, S / np.sqrt(_rowdot(S, S)), V)
    ratios = mu / kernel_weights(f, S)

    scales = [
        KernelSampledScale(
            grid=chart_rows,
            values=ratios[:, i],
            good=i,
            share=float(f.alpha[i]),
            level=float(f.endowment_levels[i]),
        )
        for i in range(f.goods)
    ]
    _check_positive_between_nodes(scales, chart_rows)
    return Economy(f.consumers(scales=scales))


def _check_positive_between_nodes(scales, chart_rows: np.ndarray) -> None:
    # Shape-preserving (1-d) and piecewise-linear (n-d) interpolants cannot
    # leave the range of their node values, so with positive nodes this never
    # fires; it is kept as a cheap guard on the realisation contract.
    if chart_rows.shape[1] == 1:
        xs = np.sort(chart_rows[:, 0])
        dense = np.linspace(xs[0], xs[-1], 8 * xs.size + 1)
        probe = np.column_stack([dense, 1.0 - dense])
    else:
        probe_rows = 0.5 * (chart_rows[:-1] + chart_rows[1:])
        probe = np.hstack(
            [probe_rows, 1.0 - probe_rows.sum(axis=1, keepdims=True)]
        )
    for scale in scales:
        if np.any(scale(probe) <= 0.0):
            raise GridTooCoarseError(
                "interpolated coefficient is not strictly positive between "
                "grid points; refine the grid"
            )
