"""Locating and classifying the zeros of excess-demand fields.

One pipeline, ``_solve``, does every solve.  It takes a base field and a
list of chart-map terms (``None``, or a perturbation added to the base
chart map), evaluates each field once on a lattice of chart points
(``grid_density`` per axis, and at least as many as the continuum scan
grid, which it then is) and runs damped Newton iteration in chart
coordinates (``_newton_multistart``) over the stacked ``(field, start)``
rows of the lattice's candidates (``_candidates``): the zero of the
piecewise-linear interpolant of the Newton map in every Freudenthal
simplex that holds one (Scarf's simplicial method), every lattice point
whose residual is least among its Freudenthal neighbours, and one point
per cluster of near-zero lattice points.  :func:`find_equilibria` is its
one-field case and the genericity experiment its many-field case.

The aggregate excess demand ``z`` of an economy (a field marked
``price_weighted``, with no term) is solved on the price-weighted field
``w = p * z``: it has the same zeros in the open simplex and the same
index signs (``det J_w = prod(p) det J_z`` at a zero), stays bounded at
the faces where ``z`` grows like ``1/p_j``, and is affine in the chart for
constant-scale Cobb-Douglas economies, so its PL zero is the equilibrium.
Convergence is judged on ``|z|`` either way, and other fields, including
perturbed economy fields, are solved on ``z`` itself.  Every residual
threshold is a constant times the field's scale ``sigma``, the largest
finite ``|p * z|`` on the scan grid (``_scan``), so rescaling every
endowment changes no answer.

Converged points are deduplicated, and all kept zeros of a field are
classified from one evaluation of its chart map, on a few probe rows around
each zero (``fields._probe_rows``):

* ``regular``  -- nonsingular chart Jacobian; the local index is the sign of
  ``det(-J)``, so the unique equilibrium of a gross-substitutes economy gets
  index +1 and the index sum of an inward-pointing field with only regular
  zeros is +1.  (The orientation is a convention of this package.)
* ``critical`` -- singular or step-size-inconsistent Jacobian; such zeros
  get index 0 recorded and are excluded from degree certification.

Newton creeps onto a degenerate zero and stops on either side of it, so
critical zeros closer than ``JOIN_RADIUS`` whose midpoint is itself a zero
are then joined into one.  A finite, all-regular report whose index sum is
not +1 has missed or misclassified a zero; ``EquilibriumReport.index_check``
says so.

For two goods the order of the first non-vanishing chart derivative at a
zero is estimated by a polynomial fit on a window of those probe rows
(``multiplicity_estimate``).  ``classify``, ``multiplicity_estimate`` and
``chart_jacobian`` are the one-zero case.  The scan flags clusters of zeros
(``continuum_detector``) -- no finite procedure can decide infinitude, so
the detector is a heuristic with documented thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from numbers import Integral

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .fields import (
    JACOBIAN_STEP,
    JacobianConsistencyError,
    TangentField,
    _chart_coords,
    _full_rows,
    _probe_rows,
    _with_term,
    as_field,
)
from .geometry import PricePoint, _greedy_cover, chart_rows_embed, simplex_point

REGULAR = "regular"
CRITICAL = "critical"

DET_RELATIVE_TOL = 1e-6
BOUNDARY_MARGIN = 1e-4
MULTIPLICITY_K_MAX = 8

# Newton convergence, also the bound of the in-iteration merge and of the
# flat-zero join's midpoint test, in units of the field's scale ``sigma``.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 10
DEDUP_RADIUS = 1e-6
JOIN_RADIUS = 1e-4
CONTINUUM_SCAN_POINTS = 2001
MAX_SCAN_POINTS = 250_000
CONTINUUM_RUN_REQUIRED = 20
CONTINUUM_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    grid_density: int = 50

    def __post_init__(self):
        if not isinstance(self.grid_density, Integral) or self.grid_density < 2:
            raise ValueError("grid_density must be an integer of at least 2")


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

    @property
    def index_check(self) -> str:
        return _index_check(self.finite_flag, self.all_regular, self.index_sum)


def _index_check(finite: bool, all_regular: bool, index_sum: int) -> str:
    """The index-sum self-check of a report: ``"ok"`` when it is finite and
    all-regular with index sum +1, ``"MISMATCH"`` when it is finite and
    all-regular with any other sum (a zero was missed or misclassified),
    ``"n/a"`` otherwise."""
    if not (finite and all_regular):
        return "n/a"
    return "ok" if index_sum == 1 else "MISMATCH"


MAX_STARTS = 250_000


@lru_cache(maxsize=16)
def _start_grid(dim: int, density: int) -> np.ndarray:
    """The chart lattice of ``density`` points per axis, ``BOUNDARY_MARGIN``
    from every face; read-only, since every caller shares it."""
    axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    C = np.column_stack([g.ravel() for g in grids])
    C = C[C.sum(axis=1) <= 1.0 - BOUNDARY_MARGIN]
    C.setflags(write=False)
    return C


def _interior(C: np.ndarray) -> np.ndarray:
    return (C >= BOUNDARY_MARGIN).all(axis=1) & (1.0 - C.sum(axis=1) >= BOUNDARY_MARGIN)


def _batched_jacobian(evaluate, C: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians at the rows of ``C``, with step
    ``JACOBIAN_STEP * max(1, |c|)`` per row, from one call on the stencil
    rows ``c + h e_j`` and then ``c - h e_j`` of each row in turn."""
    m, d = C.shape
    h = JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(C, axis=1))
    stencil = C[:, None, :] + h[:, None, None] * np.concatenate([np.eye(d), -np.eye(d)])
    F = evaluate(stencil.reshape(-1, d), np.repeat(rows, 2 * d)).reshape(m, 2, d, d)
    return ((F[:, 0] - F[:, 1]) / (2.0 * h)[:, None, None]).swapaxes(1, 2)


def _newton_state(evaluate, C: np.ndarray, rows: np.ndarray, weighted: bool):
    """The Newton map's chart values and the norms of its full values and of
    the field's, from one evaluation: the map is ``p * z`` when ``weighted``,
    else ``z`` itself."""
    P, Z = _full_rows(C, evaluate(C, rows))
    W = P * Z if weighted else Z
    return W[:, :-1], np.linalg.norm(W, axis=1), np.linalg.norm(Z, axis=1)


def _newton_multistart(
    evaluate,
    starts: np.ndarray,
    tol,
    weighted: bool = False,
    labels: np.ndarray | None = None,
):
    """Damped Newton from every start row, as one batch.

    ``evaluate(C, rows)`` returns the chart values at the rows of ``C``; row
    ``k`` of ``C`` is an iterate of start ``rows[k]``, and ``rows`` is
    non-decreasing.  Each row follows its own iteration and carries one
    state: its point, the Newton map's chart values there and the residual
    norms.  With ``weighted`` the map is the price-weighted field
    ``w = p * z`` (chart part ``C * F``), which has the same zeros and index
    signs in the open simplex and stays bounded at its faces; convergence is
    judged on ``|z| <= tol`` (one bound, or one per row) either way.

    A step tries ``C - lambda * delta`` for ``lambda = 1, 1/2, ...,
    2**-NEWTON_MAX_HALVINGS`` and takes the first trial inside the boundary
    margin that cuts the residual by ``1 - lambda / 2`` (backtracking).  A
    row stops when no step size improves its residual, or when the step no
    longer moves the point (as a singular Jacobian's zero step does).  An
    iteration makes two calls: one for the Jacobian stencils of every
    iterating row and one for the trials of all their step sizes.

    Rows that are still iterating and already converged are merged at the
    top of every iteration: within the rows of each field (``labels``, one
    per row, non-decreasing; one field by default), greedily in ascending
    residual, a row claims every such row within ``DEDUP_RADIUS``
    (``_dedup``'s rule).  A claimed row
    stops and returns the final point and residual of the row that claimed
    it, following chains of claims to their end.  Returns per-row arrays:
    final points, field residuals ``|z|``, and the converged, stalled and
    exhausted masks and iteration counts.
    """
    newton_map = (lambda C, rows: C * evaluate(C, rows)) if weighted else evaluate
    C = starts.copy()
    G, res, zres = _newton_state(evaluate, C, np.arange(len(C)), weighted)
    # Points keep iterating while a damped step still improves the residual,
    # even past the convergence tolerance: the extra polishing drives the
    # offset of degenerate (critical) zeros toward zero, so classification at
    # the returned point behaves like classification at the exact zero.
    # A start whose residual is not finite cannot take a step: it stalls.
    halted = ~np.isfinite(res)
    active = ~halted & (res > 0.0)
    iterations = np.zeros(len(C), dtype=np.int64)
    owner = np.arange(len(C))
    labels = np.zeros(len(C), dtype=np.int64) if labels is None else labels

    for _ in range(NEWTON_MAX_ITER):
        _merge_converged(C, zres, active, owner, tol, labels)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        took = _damped_step(evaluate, newton_map, idx, (C, G, res, zres), weighted)
        # A row halts unless one of its trials is accepted.  An exact zero
        # stops here, not after one more Jacobian whose zero step would end it.
        halted[idx], active[idx] = True, False
        halted[took], active[took] = False, res[took] > 0.0

    # Each claim was made by a row still iterating, so chains end.
    while (owner[owner] != owner).any():
        owner = owner[owner]
    C, zres = C[owner], zres[owner]
    converged = zres <= tol
    return C, zres, converged, halted & ~converged, active & ~converged, iterations


_STEP_SIZES = 0.5 ** np.arange(NEWTON_MAX_HALVINGS + 1)


def _newton_direction(newton_map, C, G, rows) -> np.ndarray:
    """The Newton steps ``J^-1 G`` at the rows of ``C``, zero where the
    finite-difference Jacobian is singular or not finite."""
    J = _batched_jacobian(newton_map, C, rows)
    dets = np.linalg.det(J)
    solvable = np.isfinite(dets) & (np.abs(dets) > 0.0)
    delta = np.zeros_like(C)
    delta[solvable] = np.linalg.solve(J[solvable], G[solvable][..., None])[..., 0]
    return delta


def _damped_step(evaluate, newton_map, rows, state: tuple, weighted: bool):
    """One damped Newton step from each of ``rows`` of the iterates
    ``state``: their points ``C``, the Newton map's chart values ``G`` and
    the residuals ``res`` and ``zres``.  Updates ``state`` in place on the
    rows that accept a trial, and returns those rows.

    The trials ``C - lambda * delta`` of every row and step size
    (``_STEP_SIZES``) are evaluated in one call.  A row's trials end before
    the first that rounds to its point, and one outside the boundary margin
    has residual ``inf``; a row accepts its first trial whose residual is at
    most ``(1 - lambda / 2) res``.
    """
    C, G, res, zres = (a[rows] for a in state)
    delta = _newton_direction(newton_map, C, G, rows)
    T = C[:, None, :] - _STEP_SIZES[:, None] * delta[:, None, :]
    # No shorter step moves a point that a longer one leaves in place.
    live = np.logical_and.accumulate((T != C[:, None, :]).any(axis=2), axis=1)
    ask = live & _interior(T.reshape(-1, C.shape[1])).reshape(live.shape)
    TG = np.empty_like(T)
    TR, TZ = np.full((2, *live.shape), np.inf)
    r, k = np.nonzero(ask)
    if r.size:
        TG[r, k], TR[r, k], TZ[r, k] = _newton_state(evaluate, T[r, k], rows[r], weighted)
    accept = TR <= (1.0 - 0.5 * _STEP_SIZES) * res[:, None]
    hit = np.flatnonzero(accept.any(axis=1))
    pos = np.argmax(accept[hit], axis=1)
    for a, v in zip(state, (T, TG, TR, TZ)):
        a[rows[hit]] = v[hit, pos]
    return rows[hit]


def _merge_converged(C, zres, active, owner, tol, labels: np.ndarray) -> None:
    """Stop the iterating rows that are converged and within ``DEDUP_RADIUS``
    of a lower-residual such row of their field, recording it in ``owner``."""
    cand = np.flatnonzero(active & (zres <= tol))
    if cand.size < 2:
        return
    # Fields lie one unit apart on an extra axis, beyond the radius.
    X = np.column_stack([C[cand], labels[cand]])
    cover = cand[_greedy_cover(X, np.argsort(zres[cand], kind="stable"), DEDUP_RADIUS, p=2)]
    merged = cover != cand
    owner[cand[merged]] = cover[merged]
    active[cand[merged]] = False


def _dedup(C: np.ndarray, res: np.ndarray, radius: float):
    # Greedy in ascending residual: a point is kept unless it lies within
    # ``radius`` of a point kept before it.
    owner = _greedy_cover(C, np.argsort(res, kind="stable"), radius, p=2)
    kept = np.flatnonzero(owner == np.arange(len(C))).tolist()
    kept.sort(key=lambda k: tuple(C[k]))
    return kept, len(C) - len(kept)


def _join_flat_zeros(
    field: TangentField, Z: np.ndarray, res: np.ndarray, critical: np.ndarray, tol: float
) -> np.ndarray:
    """Ascending positions of the zeros ``Z`` left after joining, transitively,
    critical zeros within ``JOIN_RADIUS`` whose midpoint is a zero
    (``|z| <= tol``); a joined group keeps its lowest-residual zero.  The
    field is evaluated only when two critical zeros are that close."""

    def flat(pairs):
        linked = critical[pairs].all(axis=1)
        if linked.any():
            a, b = pairs[linked].T
            linked[linked] = field.residual_norms(0.5 * (Z[a] + Z[b])) <= tol
        return linked

    return np.sort(_lowest_per_label(_linked_components(Z, JOIN_RADIUS, flat), res))


def _lowest_per_label(labels: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Position of the lowest-residual row of each label, in label order
    (the first such row on ties)."""
    order = np.argsort(res, kind="stable")
    return order[np.unique(labels[order], return_index=True)[1]]


def _classify_rows(field: TangentField, C: np.ndarray, sigma: float, fit: bool = False):
    """Residual norms, regular mask, indices and multiplicities of the zeros
    ``C``, from one evaluation of every probe row (``fields._probe_rows``).

    The first row whose residual exceeds ``1e-9 * sigma`` raises
    ``ValueError``.  Multiplicities are fitted on a window of
    ``4 MULTIPLICITY_K_MAX + 1`` points when ``fit`` is set (two goods), else
    ``None``.
    """
    window = np.linspace(-1.0, 1.0, 4 * MULTIPLICITY_K_MAX + 1) if fit else None
    residual, J, consistent, G = _probe_rows(field, C, sigma, window)
    bad = residual > 1e-9 * sigma
    if bad.any():
        res = residual[np.argmax(bad)]
        raise ValueError(f"point is not a zero of the field (residual {res:.3e})")
    d = field.dim
    det = np.linalg.det(J)
    size = np.fmax(np.abs(J).max(axis=(1, 2)), sigma)
    regular = consistent & ~(np.abs(det) <= DET_RELATIVE_TOL * size**d)
    index = np.where(regular, np.where((-1) ** d * det > 0, 1, -1), 0)
    fits = [_fit_order(window, g[:, 0], sigma) for g in G] if fit else [None] * len(C)
    return residual, regular, index, fits


def _fit_order(s: np.ndarray, g: np.ndarray, sigma: float) -> int | None:
    """Lowest order whose fitted coefficient on the window ``s`` stands out."""
    scale = float(np.abs(g).max())
    if scale <= 1e-12 * sigma:
        return None
    # Column j of the fit is s**j, so coefficient j estimates g^(j) r^j / j!.
    V = np.vander(s, MULTIPLICITY_K_MAX + 1, increasing=True)
    b, *_ = np.linalg.lstsq(V, g, rcond=None)
    orders = np.flatnonzero(np.abs(b[1:]) >= 1e-3 * scale)
    return int(orders[0]) + 1 if orders.size else None


def classify(field_or_economy, p):
    """Regularity and local index of a zero of the field.

    Returns ``("regular", +-1)`` when the chart Jacobian is well conditioned
    with a clearly nonzero determinant, and ``("critical", 0)`` otherwise
    (including when the finite-difference Jacobian is step-size dependent).
    Raises ``ValueError`` when ``p`` is not a zero.  This is the one-point
    case of the rows core that classifies every zero of a solver report; it
    evaluates the field on the scan grid, for ``sigma``, and on the probe rows.
    """
    field = as_field(field_or_economy)
    C = _chart_coords(p)[None, :]
    _, regular, index, _ = _classify_rows(field, C, _scan(field, [None])[0][0])
    return (REGULAR if regular[0] else CRITICAL), int(index[0])


def multiplicity_estimate(field_or_economy, p) -> int | None:
    """Order of the first non-vanishing chart derivative at a two-good zero.

    Fits a polynomial of degree ``MULTIPLICITY_K_MAX`` (8) to the chart map
    on a small symmetric window around the zero and reports the lowest order
    whose scaled coefficient stands out from the local field magnitude.
    Returns ``None`` when every tested order is below the noise threshold
    (the order exceeds ``MULTIPLICITY_K_MAX``), which is the signature of a
    flat, continuum-suspect zero.  ``1`` means regular.  Like
    :func:`classify`, it evaluates the field twice.
    """
    field = as_field(field_or_economy)
    if field.goods != 2:
        raise ValueError("multiplicity estimation is implemented for two goods only")
    C = _chart_coords(p)[None, :1]
    return _classify_rows(field, C, _scan(field, [None])[0][0], fit=True)[3][0]


def chart_jacobian(field_or_economy, c) -> np.ndarray:
    """Central-difference Jacobian of a field's chart map at chart point ``c``.

    Two estimates at steps ``h = 1e-6 * max(1, |c|)`` and ``h/2`` are
    compared; a disagreement above ``1e-4`` relative plus ``1e-12 sigma``
    raises :class:`JacobianConsistencyError`.  This is the one-point case of
    the probe that classifies zeros, and evaluates the field twice.
    """
    field = as_field(field_or_economy)
    _, J, consistent, _ = _probe_rows(field, _chart_coords(c)[None, :], _scan(field, [None])[0][0])
    if not consistent[0]:
        raise JacobianConsistencyError(
            "finite-difference Jacobian is step-size dependent at this point"
        )
    return J[0]


def continuum_detector(field_or_economy) -> ContinuumReport:
    """Scan the chart for clusters of neighbouring near-zeros of the field.

    The scan grid has about ``CONTINUUM_SCAN_POINTS`` points, at least 11 per
    chart axis, ``BOUNDARY_MARGIN`` from every face; in one dimension a
    cluster is a run of consecutive points.  Fires when at least 20 linked
    scan points have full residual at most ``1e-9 sigma`` (``_scan``); the
    witness is the chart interval (two floats, for two goods) or the
    bounding box spanned by the largest such cluster.  Raises ``ValueError``
    when the grid would have more than ``MAX_SCAN_POINTS`` points (seven or
    more goods).
    """
    return _scan(as_field(field_or_economy), [None])[0][1]


def _spacing(density: int) -> float:
    """Spacing of the chart grid ``_start_grid(dim, density)``."""
    return (1.0 - 2 * BOUNDARY_MARGIN) / (density - 1)


def _scan_grid(dim: int) -> tuple:
    """The continuum scan grid and its points per axis; ``ValueError`` when
    its ``per_dim**dim`` grid would exceed ``MAX_SCAN_POINTS``."""
    per_dim = max(11, int(round(CONTINUUM_SCAN_POINTS ** (1.0 / dim))))
    if per_dim**dim > MAX_SCAN_POINTS:
        raise ValueError(
            f"continuum scan grid of {per_dim}^{dim} points is too large "
            f"(limit {MAX_SCAN_POINTS} points)"
        )
    return _start_grid(dim, per_dim), per_dim


def _evaluate_grid(base: TangentField, terms: list, C: np.ndarray) -> tuple:
    """Simplex rows and full field rows, shaped ``(fields, points, goods)``,
    of ``base`` plus each chart-map term on the chart grid ``C``, from one
    call of the chart map."""
    stacked = np.tile(C, (len(terms), 1))
    labels = np.repeat(np.arange(len(terms)), len(C))
    P, Z = _full_rows(stacked, _stacked_map(base, terms, labels)(stacked, np.arange(len(stacked))))
    shape = (len(terms), len(C), -1)
    return P.reshape(shape), Z.reshape(shape)


def _scan(base: TangentField, terms: list) -> list:
    """``(sigma, ContinuumReport)`` of ``base`` plus each chart-map term, from
    one evaluation of the scan grid for all; ``sigma`` is 0 with no finite row."""
    C, per_dim = _scan_grid(base.dim)
    return _scan_reports(C, per_dim, *_evaluate_grid(base, terms, C))


def _scan_reports(C: np.ndarray, per_dim: int, P: np.ndarray, Z: np.ndarray) -> list:
    """``_scan``'s result from the evaluation ``P, Z`` of its grid ``C``."""
    zres = np.linalg.norm(Z, axis=2)
    wres = np.linalg.norm(P * Z, axis=2)
    out = []
    for z, w in zip(zres, wres):
        sigma = float(w[np.isfinite(w)].max(initial=0.0))
        hit = z <= CONTINUUM_RESIDUAL_TOL * sigma
        component = _largest_grid_cluster(C, hit, _spacing(per_dim))
        fired = component.size >= CONTINUUM_RUN_REQUIRED
        box = None
        if fired:
            lo, hi = C[component].min(axis=0), C[component].max(axis=0)
            box = (float(lo[0]), float(hi[0])) if C.shape[1] == 1 else (lo, hi)
        out.append((sigma, ContinuumReport(fired, box, int(hit.sum()))))
    return out


def _largest_grid_cluster(C: np.ndarray, hit: np.ndarray, spacing: float) -> np.ndarray:
    """Sorted indices of the largest cluster of hit grid points, linking
    points within 1.5 grid spacings (the lowest-indexed cluster on ties)."""
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        return idx
    labels = _linked_components(C[idx], 1.5 * spacing)
    return idx[labels == np.argmax(np.bincount(labels))]


def _linked_components(X: np.ndarray, radius: float, keep=None) -> np.ndarray:
    """Connected-component labels of the rows of ``X``, linking rows within
    ``radius``; given ``keep``, only the pairs that ``keep(pairs)`` accepts
    (called only when there are pairs)."""
    pairs = cKDTree(X).query_pairs(radius, output_type="ndarray")
    if keep is not None and len(pairs):
        pairs = pairs[keep(pairs)]
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(len(X), len(X))
    )
    return connected_components(graph, directed=False)[1]


def _candidates(C: np.ndarray, density: int, W: np.ndarray, zres: np.ndarray, sigma: float):
    """The Newton starts of one field from its values on the lattice ``C``
    (``_start_grid(d, density)``): the Newton map's full rows ``W`` and the
    field's residual norms ``zres``.  In order: the PL zeros (``_pl_zeros``);
    every lattice point whose residual ``|W|`` is finite and at most that of
    each Freudenthal neighbour ``v +- sum_{i in S} e_i``, which catches two
    close zeros with no sign change between them; and the lowest-residual
    point of each cluster of hits, points where ``|z|`` is at most
    ``CONTINUUM_RESIDUAL_TOL * sigma``, linked within 1.5 spacings.  Hits
    are neither simplex vertices nor minima, so a flat stretch of zeros
    gives one start, not one per cell.
    """
    d = C.shape[1]
    k = tuple(np.rint((C - BOUNDARY_MARGIN) / _spacing(density)).astype(int).T)
    res = np.linalg.norm(W, axis=1)
    hit = zres <= CONTINUUM_RESIDUAL_TOL * sigma
    R = np.full((density,) * d, np.inf)
    R[k] = np.where(np.isfinite(res), res, np.inf)
    G = np.full((d,) + R.shape, np.nan)
    G[(slice(None), *k)] = np.where((np.isfinite(res) & ~hit)[:, None], W[:, :-1], np.nan).T
    # The least residual at v + b and at v - b over b in {0, 1}^d.
    least = _over_cells(np.minimum, np.pad(R, 1, constant_values=np.inf))
    up, down = (least[(slice(s, len(least) - 1 + s),) * d] for s in (1, 0))
    minima = (np.isfinite(R) & (R <= up) & (R <= down))[k] & ~hit
    hits = np.flatnonzero(hit)
    if hits.size:
        labels = _linked_components(C[hits], 1.5 * _spacing(density))
        hits = hits[_lowest_per_label(labels, res[hits])]
    return np.vstack([_pl_zeros(G), C[minima], C[hits]])


def _over_cells(op, X: np.ndarray) -> np.ndarray:
    """``op`` over the corners of every cell of the cube ``X``: entry ``k``
    combines the entries ``k + b``, ``b`` in ``{0, 1}^ndim``."""
    for a in range(X.ndim):
        X = op(X[(slice(None),) * a + (slice(0, -1),)], X[(slice(None),) * a + (slice(1, None),)])
    return X


def _pl_zeros(G: np.ndarray) -> np.ndarray:
    """The zeros of the piecewise-linear interpolant of ``G`` (the ``d``
    chart components on the cube of lattice indices, NaN where there is no
    vertex) in the closed Freudenthal simplices of its cells, in cell and
    permutation order.  The simplex of permutation ``p`` in the cell with
    corner ``k`` has vertices ``k``, ``k + e_p1``, ..., ``k + 1``.
    """
    d, density = G.shape[:2]
    # A cell can hold a zero only if every component takes both signs at its
    # corners, and none of them is NaN.
    screen = [_over_cells(np.logical_and, ~np.isnan(G[0]))]
    for g in G:
        screen.append(_over_cells(np.logical_or, g >= 0.0) & _over_cells(np.logical_or, g <= 0.0))
    cells = np.argwhere(reduce(np.logical_and, screen))
    # Vertex j of permutation p steps along the axes p_1, ..., p_j.
    paths = np.array([np.arange(d + 1)[:, None] > np.argsort(p) for p in permutations(range(d))])
    V = (cells[:, None, None, :] + paths).reshape(-1, d + 1, d)
    # Barycentric weights lam: sum(lam) = 1 and sum(lam_j G(v_j)) = 0.
    values = G[(slice(None), *np.moveaxis(V, -1, 0))].swapaxes(0, 1)
    A = np.concatenate([np.ones((len(V), 1, d + 1)), values], axis=1)
    det = np.linalg.det(A)
    solvable = np.isfinite(det) & (det != 0.0)
    V, A = V[solvable], A[solvable]
    lam = np.linalg.solve(A, np.eye(d + 1)[:, :1])[..., 0]
    inside = (lam >= 0.0).all(axis=1)
    axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
    return np.einsum("kj,kji->ki", lam[inside], axis[V[inside]])


def find_equilibria(field_or_economy, config: SolverConfig | None = None) -> EquilibriumReport:
    """Locate, deduplicate, and classify the zeros of an excess-demand field.

    The one-field case of the solve pipeline: the continuum scan gives
    ``sigma`` and ``finite_flag``; damped Newton iteration runs from the
    candidates of one lattice evaluation (``_candidates``; the report's
    ``starts``) and stays ``BOUNDARY_MARGIN`` from every face, on ``p * z``
    for an economy's field and on the field itself otherwise; points with
    ``|z| <= NEWTON_TOL * sigma`` are merged within ``1e-6`` and classified in
    one call, and critical zeros within ``1e-4`` whose midpoint is a zero are
    joined (both merges counted in ``dedup_merges``).  Non-convergence of
    individual starts is reported in the statistics, not raised.
    """
    report = _solve(as_field(field_or_economy), [None], config or SolverConfig())[0]
    if isinstance(report, Exception):
        raise report
    return report


def _solve(base: TangentField, terms: list, cfg: SolverConfig) -> list:
    """The report of ``base`` plus each chart-map term (``None``: no term),
    or the exception that its solve raised.

    Chunks of ``MAX_STARTS // lattice points`` fields are scanned in one
    call, for ``sigma``, and their lattices evaluated in one call (none when
    the lattice is the scan grid), then run one Newton phase over the
    stacked ``_candidates`` of all their fields.  A chunk that raises is
    solved again one field at a time.
    """
    try:
        if cfg.grid_density**base.dim > MAX_STARTS:
            raise ValueError(
                f"start grid of {cfg.grid_density}^{base.dim} points is too large; "
                f"lower grid_density (limit {MAX_STARTS} starts)"
            )
        scan_grid, per_dim = _scan_grid(base.dim)
    except ValueError as exc:
        return [exc] * len(terms)
    density = max(cfg.grid_density, per_dim)
    lattice = scan_grid if density == per_dim else _start_grid(base.dim, density)
    weighted = base.price_weighted and all(term is None for term in terms)
    chunk = max(1, MAX_STARTS // len(lattice))
    outcomes = []
    for first in range(0, len(terms), chunk):
        group = terms[first : first + chunk]
        try:
            P, Z = _evaluate_grid(base, group, scan_grid)
            scans = _scan_reports(scan_grid, per_dim, P, Z)
            if lattice is not scan_grid:
                P, Z = _evaluate_grid(base, group, lattice)
            W = P * Z if weighted else Z
            zres = np.linalg.norm(Z, axis=2)
            sigmas = np.array([sigma for sigma, _ in scans])
            starts = [_candidates(lattice, density, *a) for a in zip(W, zres, sigmas)]
            counts = [len(c) for c in starts]
            labels = np.repeat(np.arange(len(group)), counts)
            newton = _newton_multistart(
                _stacked_map(base, group, labels), np.vstack(starts),
                NEWTON_TOL * sigmas[labels], weighted, labels,
            )
        except Exception as exc:  # noqa: BLE001 - each field then records its own error
            outcomes += [exc] if len(group) == 1 else [_solve(base, [t], cfg)[0] for t in group]
            continue
        bounds = np.cumsum([0, *counts])
        for t, (term, scan) in enumerate(zip(group, scans)):
            try:
                field = _with_term(base, term)
                rows = slice(bounds[t], bounds[t + 1])
                outcomes.append(_field_report(field, newton, rows, *scan))
            except Exception as exc:  # noqa: BLE001 - per-field isolation is the contract
                outcomes.append(exc)
    return outcomes


def _stacked_map(base: TangentField, terms: list, labels: np.ndarray):
    """The chart map over stacked rows: the base map, plus on row ``r`` the
    term of field ``labels[r]`` (``_with_term``'s arithmetic, row by row)."""

    def evaluate(C, rows):
        # A copy: the base chart map may return a view of its input.
        F = np.array(base.chart_values(C))
        # ``rows`` and the labels are sorted, so each field's rows form one block.
        bounds = np.searchsorted(labels[rows], np.arange(len(terms) + 1))
        for term, lo, hi in zip(terms, bounds[:-1], bounds[1:]):
            if term is not None and hi > lo:
                F[lo:hi] += term(C[lo:hi])
        return F

    return evaluate


def _field_report(
    field: TangentField, newton: tuple, rows: slice, sigma: float, continuum: ContinuumReport
) -> EquilibriumReport:
    """The report on ``field`` (scale ``sigma``, continuum report
    ``continuum``) from its start rows ``rows`` of a Newton phase:
    deduplication, one classification call for all kept zeros, the flat-zero
    join (one call more when two critical zeros are within ``JOIN_RADIUS``)
    and statistics."""
    C, res, converged, stalled, exhausted, iterations = (a[rows] for a in newton)
    conv_idx = np.flatnonzero(converged)
    kept, merges = _dedup(C[conv_idx], res[conv_idx], DEDUP_RADIUS)

    equilibria = []
    if kept:
        idx = conv_idx[kept]
        Z = C[idx]
        residual, regular, index, multiplicity = _classify_rows(field, Z, sigma, field.goods == 2)
        joined = _join_flat_zeros(field, Z, res[idx], ~regular, NEWTON_TOL * sigma)
        merges += len(idx) - len(joined)
        P = chart_rows_embed(Z[joined])
        equilibria = [
            Equilibrium(
                price=simplex_point(P[j]),
                chart=Z[i].copy(),
                residual=float(residual[i]),
                regularity=REGULAR if regular[i] else CRITICAL,
                index=int(index[i]),
                multiplicity=multiplicity[i],
            )
            for j, i in enumerate(joined)
        ]

    stats = SolverStats(
        starts=len(C),
        converged=int(converged.sum()),
        stalled=int(stalled.sum()),
        exhausted=int(exhausted.sum()),
        newton_iterations=int(iterations.sum()),
        dedup_merges=merges,
    )
    return EquilibriumReport(tuple(equilibria), stats, continuum)
