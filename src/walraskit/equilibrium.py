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
    _full_rows,
    as_field,
    chart_jacobian,
)
from .geometry import PricePoint, _greedy_cover, chart_rows_embed, simplex_point

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


def _batched_jacobian(evaluate, C: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    n, d = C.shape
    J = np.empty((n, d, d))
    for j in range(d):
        step = np.zeros((n, d))
        step[:, j] = h
        diff = evaluate(C + step, rows) - evaluate(C - step, rows)
        J[:, :, j] = diff / (2.0 * h)[:, None]
    return J


def _residual_norms(evaluate, C: np.ndarray, rows: np.ndarray) -> np.ndarray:
    _, Z = _full_rows(C, evaluate(C, rows))
    return np.linalg.norm(Z, axis=1)


def _newton_multistart(evaluate, starts: np.ndarray, cfg: SolverConfig):
    """Damped Newton from every start row, as one batch.

    ``evaluate(C, rows)`` returns the chart values at the rows of ``C``; row
    ``k`` of ``C`` is an iterate of start ``rows[k]``, and ``rows`` is
    ascending.  Every row follows its own iteration, independent of the
    others in the batch.  Returns per-row arrays: final points, residuals,
    and the converged, stalled and exhausted masks and iteration counts.
    """
    C = starts.copy()
    res = _residual_norms(evaluate, C, np.arange(len(C)))
    # Points keep iterating while a damped step still improves the residual,
    # even past the convergence tolerance: the extra polishing drives the
    # offset of degenerate (critical) zeros toward zero, so classification at
    # the returned point behaves like classification at the exact zero.
    # A start whose residual is not finite cannot take a step: it stalls.
    halted = ~np.isfinite(res)
    active = ~halted & (res > 0.0)
    iterations = np.zeros(len(C), dtype=np.int64)

    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        Ca, ra = C[idx], res[idx]
        F = evaluate(Ca, idx)
        h = JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(Ca, axis=1))
        J = _batched_jacobian(evaluate, Ca, idx, h)

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
            rem_idx = np.flatnonzero(rem)
            trial = Ca[rem] - lam[rem, None] * delta[rem]
            tres = np.full(rem_idx.size, np.inf)
            inside = _interior(trial, cfg.boundary_margin_min)
            if inside.any():
                tres[inside] = _residual_norms(evaluate, trial[inside], idx[rem_idx[inside]])
            accept = tres <= (1.0 - 0.5 * lam[rem]) * ra[rem]
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
    return C, res, converged, halted & ~converged, active & ~converged, iterations


def _dedup(C: np.ndarray, res: np.ndarray, radius: float):
    # Greedy in ascending residual: a point is kept unless it lies within
    # ``radius`` of a point kept before it.
    owner = _greedy_cover(C, np.argsort(res, kind="stable"), radius, p=2)
    kept = np.flatnonzero(owner == np.arange(len(C))).tolist()
    kept.sort(key=lambda k: tuple(C[k]))
    return kept, len(C) - len(kept)


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
    """Scan the chart for clusters of neighbouring near-zeros of the field.

    The scan grid has about ``scan_points`` points and at least 11 per chart
    axis; in one dimension a cluster is a run of consecutive points.  Fires
    when at least 20 linked scan points have full residual at most ``1e-9``;
    the witness is the chart interval (two floats, for two goods) or the
    bounding box spanned by the largest such cluster.
    """
    field = as_field(field_or_economy)
    cfg = config or ContinuumConfig()
    m = cfg.boundary_margin_min
    per_dim = max(11, int(round(cfg.scan_points ** (1.0 / field.dim))))
    C = _start_grid(field.dim, per_dim, m)
    hit = field.residual_norms(C) <= CONTINUUM_RESIDUAL_TOL
    component = _largest_grid_cluster(C, hit, spacing=(1.0 - 2 * m) / (per_dim - 1))
    fired = component.size >= CONTINUUM_RUN_REQUIRED
    box = None
    if fired:
        lo, hi = C[component].min(axis=0), C[component].max(axis=0)
        box = (float(lo[0]), float(hi[0])) if field.dim == 1 else (lo, hi)
    return ContinuumReport(fired, box, int(hit.sum()))


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
    newton = _newton_multistart(lambda C, rows: field.chart_values(C), starts, cfg)
    return _field_report(field, newton, slice(None), cfg, continuum_config, k_max)


def _field_report(
    field: TangentField,
    newton: tuple,
    rows: slice,
    cfg: SolverConfig,
    continuum_config: ContinuumConfig | None = None,
    k_max: int = 8,
) -> EquilibriumReport:
    """The report on ``field`` from its start rows ``rows`` of a Newton phase:
    deduplication, classification, statistics and the continuum scan."""
    C, res, converged, stalled, exhausted, iterations = (a[rows] for a in newton)
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
        starts=len(C),
        converged=int(converged.sum()),
        stalled=int(stalled.sum()),
        exhausted=int(exhausted.sum()),
        newton_iterations=int(iterations.sum()),
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
