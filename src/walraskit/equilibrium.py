"""Locating and classifying the zeros of excess-demand fields.

Zeros are found by damped Newton iteration in chart coordinates from a
regular grid of starting points, deduplicated, and classified:

* ``regular``  -- nonsingular chart Jacobian; the local index is the sign of
  ``det(-J)``, so the unique equilibrium of a gross-substitutes economy gets
  index +1 and the index sum of an inward-pointing field with only regular
  zeros is +1.  (The orientation is a convention of this package.)
* ``critical`` -- singular or step-size-inconsistent Jacobian; such zeros
  get index 0 recorded and are excluded from degree certification.

For two-good economies the order of the first non-vanishing chart derivative
at a zero is estimated by a local polynomial fit (``multiplicity_estimate``),
and a dense scan flags intervals of zeros (``continuum_detector``) -- no
finite procedure can decide infinitude, so the detector is a heuristic with
documented thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .fields import (
    JACOBIAN_STEP,
    JacobianConsistencyError,
    TangentField,
    _chart_coords,
    _derivative_scale,
    as_field,
    chart_jacobian,
)
from .geometry import PricePoint, chart_rows_embed, simplex_point

REGULAR = "regular"
CRITICAL = "critical"

DET_RELATIVE_TOL = 1e-6

NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 10
DEDUP_RADIUS = 1e-6
CONTINUUM_RUN_REQUIRED = 20
CONTINUUM_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    grid_density: int = 50
    newton_tol: float = 1e-11
    boundary_margin_min: float = 1e-4

    def __post_init__(self):
        if (
            self.grid_density < 2
            or self.newton_tol <= 0
            or self.boundary_margin_min <= 0
        ):
            raise ValueError("solver configuration values must be positive")


@dataclass(frozen=True)
class ContinuumConfig:
    scan_points: int = 2001
    boundary_margin_min: float = 1e-4


@dataclass(frozen=True)
class ContinuumReport:
    fired: bool
    interval: tuple | None
    points_hit: int


@dataclass(frozen=True)
class SolverStats:
    starts: int
    converged: int
    stalled: int
    exhausted: int
    newton_iterations: int
    dedup_merges: int


@dataclass(frozen=True)
class Equilibrium:
    price: PricePoint
    chart: np.ndarray
    residual: float
    regularity: str
    index: int
    multiplicity: int | None = None


@dataclass(frozen=True)
class EquilibriumReport:
    equilibria: tuple
    stats: SolverStats
    continuum: ContinuumReport

    @property
    def index_sum(self) -> int:
        return int(sum(eq.index for eq in self.equilibria))

    @property
    def finite_flag(self) -> bool:
        return not self.continuum.fired

    @property
    def all_regular(self) -> bool:
        return all(eq.regularity == REGULAR for eq in self.equilibria)


MAX_STARTS = 250_000


def _start_grid(dim: int, density: int, margin: float) -> np.ndarray:
    if density**dim > MAX_STARTS:
        raise ValueError(
            f"start grid of {density}^{dim} points is too large; "
            f"lower grid_density (limit {MAX_STARTS} starts)"
        )
    axis = np.linspace(margin, 1.0 - margin, density)
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    C = np.column_stack([g.ravel() for g in grids])
    return C[C.sum(axis=1) <= 1.0 - margin]


def _interior(C: np.ndarray, margin: float) -> np.ndarray:
    return (C >= margin).all(axis=1) & (1.0 - C.sum(axis=1) >= margin)


def _batched_jacobian(field: TangentField, C: np.ndarray, h: np.ndarray) -> np.ndarray:
    n, d = C.shape
    J = np.empty((n, d, d))
    for j in range(d):
        step = np.zeros((n, d))
        step[:, j] = h
        diff = field.chart_values(C + step) - field.chart_values(C - step)
        J[:, :, j] = diff / (2.0 * h)[:, None]
    return J


def _newton_multistart(field: TangentField, starts: np.ndarray, cfg: SolverConfig):
    C = starts.copy()
    res = field.residual_norms(C)
    # Points keep iterating while a damped step still improves the residual,
    # even past the convergence tolerance: the extra polishing drives the
    # offset of degenerate (critical) zeros toward zero, so classification at
    # the returned point behaves like classification at the exact zero.
    active = res > 0.0
    halted = np.zeros(len(C), dtype=bool)
    total_iterations = 0

    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        total_iterations += idx.size
        Ca, ra = C[idx], res[idx]
        F = field.chart_values(Ca)
        h = JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(Ca, axis=1))
        J = _batched_jacobian(field, Ca, h)

        dets = np.linalg.det(J)
        solvable = np.isfinite(dets) & (np.abs(dets) > 0.0)
        delta = np.zeros_like(Ca)
        if solvable.any():
            delta[solvable] = np.linalg.solve(
                J[solvable], F[solvable][..., None]
            )[..., 0]

        # Damped step: halve until the residual drops enough or give up.
        lam = np.ones(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        newC, newres = Ca.copy(), ra.copy()
        for _halving in range(NEWTON_MAX_HALVINGS + 1):
            rem = solvable & ~improved
            if not rem.any():
                break
            trial = Ca[rem] - lam[rem, None] * delta[rem]
            tres = np.full(rem.sum(), np.inf)
            inside = _interior(trial, cfg.boundary_margin_min)
            if inside.any():
                tres[inside] = field.residual_norms(trial[inside])
            accept = tres <= (1.0 - 0.5 * lam[rem]) * ra[rem]
            rem_idx = np.flatnonzero(rem)
            acc_idx = rem_idx[accept]
            newC[acc_idx] = trial[accept]
            newres[acc_idx] = tres[accept]
            improved[acc_idx] = True
            lam[rem_idx[~accept]] *= 0.5

        dead = ~improved
        halted[idx[dead]] = True
        active[idx[dead]] = False
        C[idx], res[idx] = newC, newres
        # An exact zero cannot improve; without this its zero step would be
        # accepted (0 <= 0) on every remaining iteration.
        active[idx[newres == 0.0]] = False

    converged = res <= cfg.newton_tol
    stalled = int((halted & ~converged).sum())
    exhausted = int((active & ~converged).sum())
    return C, res, converged, stalled, exhausted, total_iterations


def _dedup(C: np.ndarray, res: np.ndarray, radius: float):
    # Greedy in ascending residual: a point is kept unless it lies within
    # ``radius`` of a point kept before it.
    order = np.argsort(res, kind="stable")
    tree = cKDTree(C)
    covered = np.zeros(len(C), dtype=bool)
    kept: list[int] = []
    for k in order:
        if covered[k]:
            continue
        kept.append(int(k))
        covered[tree.query_ball_point(C[k], radius)] = True
    merges = len(order) - len(kept)
    kept.sort(key=lambda k: tuple(C[k]))
    return kept, merges


def _require_zero(field: TangentField, c: np.ndarray, tol: float = 1e-9) -> float:
    res = float(field.residual_norms(c[None, :])[0])
    if res > tol * max(1.0, _derivative_scale(field, c)):
        raise ValueError(f"point is not a zero of the field (residual {res:.3e})")
    return res


def classify(field_or_economy, p):
    """Regularity and local index of a zero of the field.

    Returns ``("regular", +-1)`` when the chart Jacobian is well conditioned
    with a clearly nonzero determinant, and ``("critical", 0)`` otherwise
    (including when the finite-difference Jacobian is step-size dependent).
    """
    field = as_field(field_or_economy)
    c = _chart_coords(p)
    _require_zero(field, c)
    try:
        J = chart_jacobian(field, c)
    except JacobianConsistencyError:
        return CRITICAL, 0
    d = field.dim
    det = float(np.linalg.det(J))
    scale = max(float(np.abs(J).max()), _derivative_scale(field, c))
    if abs(det) <= DET_RELATIVE_TOL * scale**d:
        return CRITICAL, 0
    index = 1 if ((-1) ** d) * det > 0 else -1
    return REGULAR, index


def multiplicity_estimate(field_or_economy, p, k_max: int = 8) -> int | None:
    """Order of the first non-vanishing chart derivative at a two-good zero.

    Fits a degree-``k_max`` polynomial to the chart map on a small symmetric
    window around the zero and reports the lowest order whose scaled
    coefficient stands out from the local field magnitude.  Returns ``None``
    when every tested order is below the noise threshold ("exceeds k_max"),
    which is the signature of a flat, continuum-suspect zero.  ``1`` means
    regular.
    """
    field = as_field(field_or_economy)
    if field.goods != 2:
        raise ValueError("multiplicity estimation is implemented for two goods only")
    c0 = float(_chart_coords(p)[0])
    _require_zero(field, np.array([c0]))

    r = min(0.02, 0.5 * min(c0, 1.0 - c0))
    s = np.linspace(-1.0, 1.0, 4 * k_max + 1)
    g = field.chart_values((c0 + r * s)[:, None])[:, 0]
    scale = float(np.abs(g).max())
    if scale <= 1e-12:
        return None
    # Column j of the fit is s**j, so coefficient j estimates g^(j) r^j / j!.
    V = np.vander(s, k_max + 1, increasing=True)
    b, *_ = np.linalg.lstsq(V, g, rcond=None)
    significant = np.abs(b) >= 1e-3 * scale
    for m in range(1, k_max + 1):
        if significant[m]:
            return m
    return None


def continuum_detector(field_or_economy, config: ContinuumConfig | None = None) -> ContinuumReport:
    """Scan the chart for runs of consecutive near-zeros of the field.

    Fires when at least 20 adjacent scan points have full residual at most
    ``1e-9``; the witness is the chart interval (or bounding box) spanned by
    the largest such run.
    """
    field = as_field(field_or_economy)
    cfg = config or ContinuumConfig()
    m = cfg.boundary_margin_min
    if field.dim == 1:
        xs = np.linspace(m, 1.0 - m, cfg.scan_points)
        hit = field.residual_norms(xs[:, None]) <= CONTINUUM_RESIDUAL_TOL
        start, length = _longest_run(hit)
        fired = length >= CONTINUUM_RUN_REQUIRED
        interval = (float(xs[start]), float(xs[start + length - 1])) if fired else None
        return ContinuumReport(fired, interval, int(hit.sum()))
    # Higher-dimensional charts: clustered zeros on a coarse grid.
    per_dim = max(11, int(round(cfg.scan_points ** (1.0 / field.dim))))
    C = _start_grid(field.dim, per_dim, m)
    hit = field.residual_norms(C) <= CONTINUUM_RESIDUAL_TOL
    component = _largest_grid_cluster(C, hit, spacing=(1.0 - 2 * m) / (per_dim - 1))
    fired = component.size >= CONTINUUM_RUN_REQUIRED
    if fired:
        box = (C[component].min(axis=0), C[component].max(axis=0))
    else:
        box = None
    return ContinuumReport(fired, box, int(hit.sum()))


def _longest_run(mask: np.ndarray):
    """Start and length of the first longest run of ``True``; ``(0, 0)`` if none."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        return 0, 0
    lengths = np.flatnonzero(edges == -1) - starts
    k = int(np.argmax(lengths))
    return int(starts[k]), int(lengths[k])


def _largest_grid_cluster(C: np.ndarray, hit: np.ndarray, spacing: float) -> np.ndarray:
    """Sorted indices of the largest cluster of hit grid points, linking
    points within 1.5 grid spacings (the lowest-indexed cluster on ties)."""
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        return idx
    pairs = cKDTree(C[idx]).query_pairs(1.5 * spacing, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(idx.size, idx.size)
    )
    _, labels = connected_components(graph, directed=False)
    return idx[labels == np.argmax(np.bincount(labels))]


def find_equilibria(
    field_or_economy,
    config: SolverConfig | None = None,
    continuum_config: ContinuumConfig | None = None,
    k_max: int = 8,
) -> EquilibriumReport:
    """Locate, deduplicate, and classify the zeros of an excess-demand field.

    Damped Newton iteration runs from a regular chart grid restricted to the
    configured boundary margin; converged points with full residual at most
    ``newton_tol`` are merged within ``1e-6`` and classified.
    Non-convergence of individual starts is reported in the statistics, not
    raised.  The continuum detector runs alongside and sets ``finite_flag``.
    """
    field = as_field(field_or_economy)
    cfg = config or SolverConfig()
    starts = _start_grid(field.dim, cfg.grid_density, cfg.boundary_margin_min)
    C, res, converged, stalled, exhausted, iterations = _newton_multistart(
        field, starts, cfg
    )
    conv_idx = np.flatnonzero(converged)
    kept, merges = _dedup(C[conv_idx], res[conv_idx], DEDUP_RADIUS)

    equilibria = []
    for k in kept:
        c = C[conv_idx][k]
        # Re-evaluate the residual independently of the solver loop.
        residual = float(field.residual_norms(c[None, :])[0])
        regularity, index = classify(field, c)
        multiplicity = None
        if field.goods == 2 and residual <= 1e-9:
            multiplicity = multiplicity_estimate(field, c, k_max=k_max)
        price = simplex_point(chart_rows_embed(c[None, :])[0])
        equilibria.append(
            Equilibrium(
                price=price,
                chart=c.copy(),
                residual=residual,
                regularity=regularity,
                index=index,
                multiplicity=multiplicity,
            )
        )

    stats = SolverStats(
        starts=len(starts),
        converged=int(converged.sum()),
        stalled=stalled,
        exhausted=exhausted,
        newton_iterations=iterations,
        dedup_merges=merges,
    )
    detector = continuum_detector(
        field,
        continuum_config
        or ContinuumConfig(boundary_margin_min=cfg.boundary_margin_min),
    )
    return EquilibriumReport(tuple(equilibria), stats, detector)


def index_sum_check(report: EquilibriumReport) -> bool:
    """True when the indices of an all-regular report sum to +1.

    Refuses to certify reports containing critical zeros, whose index is
    undefined without higher-order analysis.
    """
    if not report.all_regular:
        raise ValueError("cannot certify the index sum: report contains critical zeros")
    return report.index_sum == 1
