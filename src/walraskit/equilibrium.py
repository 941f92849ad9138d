"""Locating and classifying the zeros of excess-demand fields.

One pipeline, ``_solve``, does every solve.  It takes a base field and a
list of chart-map terms (``None``, or a perturbation added to the base
chart map) and runs damped Newton iteration in chart coordinates from one
regular grid of starting points, over the stacked ``(field, start)`` rows;
:func:`find_equilibria` is its one-field case and the genericity experiment
its many-field case.  The aggregate excess demand ``z`` of an economy (a
field marked ``price_weighted``, with no term) is solved on the
price-weighted field ``w = p * z``: it has the same zeros in the open
simplex and the same index signs (``det J_w = prod(p) det J_z`` at a zero),
stays bounded at the faces where ``z`` grows like ``1/p_j``, and is affine
in the chart for constant-scale Cobb-Douglas economies, so Newton takes
few steps on it.  Convergence is judged on ``|z|`` either way, and other
fields, including perturbed economy fields, are solved on ``z`` itself.
Each Newton step is halved at most 10 times; a row stops when no shorter
step improves its residual, or when the step no longer moves the point, and
each point is evaluated once per step.  An iteration evaluates the field in
at most ``2 d + 2`` calls over all rows (``d`` chart dimensions): ``2 d``
for the Jacobian, one for the full steps and one for every remaining
halving, unless more than a tenth of ``NEWTON_CALL_ROWS``, or of the
phase's rows if more, need halvings.  A converged row that is still
iterating stops once it lies within ``DEDUP_RADIUS`` of such a row of its
field with a lower residual, and ends at that row's final point
(``_newton_multistart``).

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
(``multiplicity_estimate``).  ``classify`` and ``multiplicity_estimate`` are
the one-zero case of the same evaluation.  A dense scan flags clusters of
zeros (``continuum_detector``) -- no finite procedure can decide
infinitude, so the detector is a heuristic with documented thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .fields import (
    JACOBIAN_STEP,
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

NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 10
# A call of the Newton phase evaluates at most this many trials, or as many
# as the phase has rows when that is more: in a phase whose starts stall
# most rows need all ten halvings, and one call for all of them would take
# ten times the memory of the full steps.
NEWTON_CALL_ROWS = 16_384
DEDUP_RADIUS = 1e-6
JOIN_RADIUS = 1e-4
CONTINUUM_SCAN_POINTS = 2001
MAX_SCAN_POINTS = 250_000
CONTINUUM_RUN_REQUIRED = 20
CONTINUUM_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    grid_density: int = 50
    newton_tol: float = 1e-11

    def __post_init__(self):
        if not isinstance(self.grid_density, Integral) or self.grid_density < 2:
            raise ValueError("grid_density must be an integer of at least 2")
        # Written so that NaN fails the check too.
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be finite and positive")


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


def _start_grid(dim: int, density: int) -> np.ndarray:
    axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    C = np.column_stack([g.ravel() for g in grids])
    return C[C.sum(axis=1) <= 1.0 - BOUNDARY_MARGIN]


def _interior(C: np.ndarray) -> np.ndarray:
    return (C >= BOUNDARY_MARGIN).all(axis=1) & (1.0 - C.sum(axis=1) >= BOUNDARY_MARGIN)


def _batched_jacobian(evaluate, C: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians at the rows of ``C``, one column per pair
    of calls, with step ``JACOBIAN_STEP * max(1, |c|)`` per row."""
    h = JACOBIAN_STEP * np.maximum(1.0, np.linalg.norm(C, axis=1))
    columns = []
    for e in np.eye(C.shape[1]):
        step = h[:, None] * e
        columns.append((evaluate(C + step, rows) - evaluate(C - step, rows)) / (2.0 * h)[:, None])
    return np.stack(columns, axis=2)


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
    cfg: SolverConfig,
    weighted: bool = False,
    block: int | None = None,
):
    """Damped Newton from every start row, as one batch.

    ``evaluate(C, rows)`` returns the chart values at the rows of ``C``; row
    ``k`` of ``C`` is an iterate of start ``rows[k]``, and ``rows`` is
    non-decreasing.  Each row follows its own iteration and carries one
    state: its point, the Newton map's chart values there and the residual
    norms.  With ``weighted`` the map is the price-weighted field
    ``w = p * z`` (chart part ``C * F``), which has the same zeros and index
    signs in the open simplex and stays bounded at its faces; convergence is
    judged on ``|z| <= newton_tol`` either way, from the same evaluations.

    The step is halved at most ``NEWTON_MAX_HALVINGS`` (10) times, until a
    trial inside the boundary margin cuts the residual by ``1 - lambda / 2``.
    A row stops when no shorter step improves its residual, or when the step
    no longer moves the point (as a singular Jacobian's zero step does).
    Each point is evaluated once per step: an accepted trial's values become
    the row's state, a trial that rounds to the row's point is not evaluated
    and one that rounds to the previous trial keeps its values.  An
    iteration makes at most ``2 d + 2`` calls: ``2 d`` for the Jacobian, one
    for the full step of every row and one for all the halvings of the rows
    whose full step is neither accepted nor stopped.  No call evaluates more
    than ``max(len(starts), NEWTON_CALL_ROWS)`` trials: the halvings of more
    rows than a tenth of that take one call per such group of rows.

    Rows that are still iterating and already converged are merged at the
    top of every iteration: within each block of ``block`` rows (one field;
    all rows by default), greedily in ascending residual, a row claims every
    such row within ``DEDUP_RADIUS`` (``_dedup``'s rule).  A claimed row
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
    cap = max(len(C), NEWTON_CALL_ROWS)

    for _ in range(NEWTON_MAX_ITER):
        _merge_converged(C, zres, active, owner, cfg.newton_tol, block or len(C))
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        took = _damped_step(evaluate, newton_map, idx, (C, G, res, zres), weighted, cap)
        # A row halts unless one of its trials is accepted.  An exact zero
        # stops here, not after one more Jacobian whose zero step would end it.
        halted[idx], active[idx] = True, False
        halted[took], active[took] = False, res[took] > 0.0

    # Each claim was made by a row still iterating, so chains end.
    while (owner[owner] != owner).any():
        owner = owner[owner]
    C, zres = C[owner], zres[owner]
    converged = zres <= cfg.newton_tol
    return C, zres, converged, halted & ~converged, active & ~converged, iterations


_FULL_STEP = np.ones(1)
_HALVINGS = 0.5 ** np.arange(1, NEWTON_MAX_HALVINGS + 1)


def _newton_direction(newton_map, C, G, rows) -> np.ndarray:
    """The Newton steps ``J^-1 G`` at the rows of ``C``, zero where the
    finite-difference Jacobian is singular or not finite."""
    J = _batched_jacobian(newton_map, C, rows)
    dets = np.linalg.det(J)
    solvable = np.isfinite(dets) & (np.abs(dets) > 0.0)
    delta = np.zeros_like(C)
    delta[solvable] = np.linalg.solve(J[solvable], G[solvable][..., None])[..., 0]
    return delta


def _damped_step(evaluate, newton_map, rows, state: tuple, weighted: bool, cap: int):
    """One damped Newton step from each of ``rows`` of the iterates
    ``state``: their points ``C``, the Newton map's chart values ``G`` and
    the residuals ``res`` and ``zres``.  Updates ``state`` in place on the
    rows that accept a trial, and returns those rows.

    The full step of every row is evaluated in one call, and then the
    halvings of the rows it leaves pending, from the full step's trial, in
    one call for every ``cap // NEWTON_MAX_HALVINGS`` of those rows.
    """
    C, G, res, zres = (a[rows] for a in state)
    delta = _newton_direction(newton_map, C, G, rows)
    hit, pending, trial, values = _first_accepted(
        evaluate, C, delta, rows, _FULL_STEP, C, (G, res, zres), res, weighted
    )
    pending = np.flatnonzero(pending)
    group = max(1, cap // NEWTON_MAX_HALVINGS)
    for lo in range(0, pending.size, group):
        p = pending[lo : lo + group]
        hit[p], _, trial[p], halved = _first_accepted(
            evaluate, C[p], delta[p], rows[p], _HALVINGS, trial[p],
            tuple(v[p] for v in values), res[p], weighted,
        )
        for v, h in zip(values, halved):
            v[p] = h
    took = rows[hit]
    for a, v in zip(state, (trial, *values)):
        a[took] = v[hit]
    return took


def _merge_converged(C, zres, active, owner, tol: float, block: int) -> None:
    """Stop the iterating rows that are converged and within ``DEDUP_RADIUS``
    of a lower-residual such row of their block, recording it in ``owner``."""
    cand = np.flatnonzero(active & (zres <= tol))
    if cand.size < 2:
        return
    # Blocks lie one unit apart on an extra axis, beyond the radius.
    X = np.column_stack([C[cand], cand // block])
    cover = cand[_greedy_cover(X, np.argsort(zres[cand], kind="stable"), DEDUP_RADIUS, p=2)]
    merged = cover != cand
    owner[cand[merged]] = cover[merged]
    active[cand[merged]] = False


def _first_accepted(evaluate, C, delta, rows, lams, last, state, res, weighted: bool):
    """Each row's first accepted trial ``C - lam * delta`` over the step
    sizes ``lams``, with every trial evaluated in one call.

    A row's trials end before the first that rounds to its point; a trial
    that rounds to the one before it (``last`` for the first, with values
    ``state``) keeps that trial's values, and one outside the boundary
    margin has residual ``inf``.  Returns which rows accepted a trial, which
    may go on to shorter steps (no trial accepted or ended), and per row the
    accepted trial, else the last, with its values.
    """
    m, d = delta.shape
    T = C[:, None, :] - lams[:, None] * delta[:, None, :]
    # No shorter step moves a point that a longer one leaves in place.
    live = np.logical_and.accumulate((T != C[:, None, :]).any(axis=2), axis=1)
    fresh = live.copy()
    fresh[:, 0] &= (T[:, 0] != last).any(axis=1)
    fresh[:, 1:] &= (T[:, 1:] != T[:, :-1]).any(axis=2)
    ask = fresh & _interior(T.reshape(-1, d)).reshape(fresh.shape)
    G = np.empty_like(T)
    R, Z = np.full((2, *fresh.shape), np.inf)
    r, k = np.nonzero(ask)
    if r.size:
        G[r, k], R[r, k], Z[r, k] = _newton_state(evaluate, T[r, k], rows[r], weighted)
    # Each trial takes the values of the latest fresh trial up to it, or
    # ``state`` when there is none (-1).
    src = np.maximum.accumulate(np.where(fresh, np.arange(lams.size), -1), axis=1)
    i = np.arange(m)
    tres = np.where(src >= 0, R[i[:, None], src], state[1][:, None])
    accept = live & (tres <= (1.0 - 0.5 * lams) * res[:, None])
    hit = accept.any(axis=1)
    pos = np.where(hit, np.argmax(accept, axis=1), lams.size - 1)
    j = src[i, pos]
    values = (G[i, j], R[i, j], Z[i, j])
    for v, s in zip(values, state):
        v[j < 0] = s[j < 0]
    return hit, live[:, -1] & ~hit, T[i, pos], values


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

    labels = _linked_components(Z, JOIN_RADIUS, flat)
    order = np.argsort(res, kind="stable")
    return np.sort(order[np.unique(labels[order], return_index=True)[1]])


def _classify_rows(field: TangentField, C: np.ndarray, fit: bool = False):
    """Residual norms, regular mask, indices and multiplicities of the zeros
    ``C``, from one evaluation of every probe row (``fields._probe_rows``).

    The first row whose residual exceeds ``1e-9 * max(1, derivative scale)``
    raises ``ValueError``.  Multiplicities are fitted on a window of
    ``4 MULTIPLICITY_K_MAX + 1`` points when ``fit`` is set (two goods), else
    ``None``.
    """
    window = np.linspace(-1.0, 1.0, 4 * MULTIPLICITY_K_MAX + 1) if fit else None
    residual, scale, J, consistent, G = _probe_rows(field, C, window)
    bad = residual > 1e-9 * np.fmax(1.0, scale)
    if bad.any():
        res = residual[np.argmax(bad)]
        raise ValueError(f"point is not a zero of the field (residual {res:.3e})")
    d = field.dim
    det = np.linalg.det(J)
    size = np.fmax(np.abs(J).max(axis=(1, 2)), scale)
    regular = consistent & ~(np.abs(det) <= DET_RELATIVE_TOL * size**d)
    index = np.where(regular, np.where((-1) ** d * det > 0, 1, -1), 0)
    fits = [_fit_order(window, g[:, 0]) for g in G] if fit else [None] * len(C)
    return residual, regular, index, fits


def _fit_order(s: np.ndarray, g: np.ndarray) -> int | None:
    """Lowest order whose fitted coefficient on the window ``s`` stands out."""
    scale = float(np.abs(g).max())
    if scale <= 1e-12:
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
    case of the rows core that classifies every zero of a solver report, and
    evaluates the field once.
    """
    field = as_field(field_or_economy)
    _, regular, index, _ = _classify_rows(field, _chart_coords(p)[None, :])
    return (REGULAR if regular[0] else CRITICAL), int(index[0])


def multiplicity_estimate(field_or_economy, p) -> int | None:
    """Order of the first non-vanishing chart derivative at a two-good zero.

    Fits a polynomial of degree ``MULTIPLICITY_K_MAX`` (8) to the chart map
    on a small symmetric window around the zero and reports the lowest order
    whose scaled coefficient stands out from the local field magnitude.
    Returns ``None`` when every tested order is below the noise threshold
    (the order exceeds ``MULTIPLICITY_K_MAX``), which is the signature of a
    flat, continuum-suspect zero.  ``1`` means regular.
    """
    field = as_field(field_or_economy)
    if field.goods != 2:
        raise ValueError("multiplicity estimation is implemented for two goods only")
    return _classify_rows(field, _chart_coords(p)[None, :1], fit=True)[3][0]


def continuum_detector(field_or_economy) -> ContinuumReport:
    """Scan the chart for clusters of neighbouring near-zeros of the field.

    The scan grid has about ``CONTINUUM_SCAN_POINTS`` points, at least 11 per
    chart axis, ``BOUNDARY_MARGIN`` from every face; in one dimension a
    cluster is a run of consecutive points.  Fires when at least 20 linked
    scan points have full residual at most ``1e-9``; the witness is the chart
    interval (two floats, for two goods) or the bounding box spanned by the
    largest such cluster.  Raises ``ValueError`` when the grid would have
    more than ``MAX_SCAN_POINTS`` points (seven or more goods).
    """
    field = as_field(field_or_economy)
    per_dim = _scan_density(field.dim)
    C = _start_grid(field.dim, per_dim)
    hit = field.residual_norms(C) <= CONTINUUM_RESIDUAL_TOL
    component = _largest_grid_cluster(C, hit, (1.0 - 2 * BOUNDARY_MARGIN) / (per_dim - 1))
    fired = component.size >= CONTINUUM_RUN_REQUIRED
    box = None
    if fired:
        lo, hi = C[component].min(axis=0), C[component].max(axis=0)
        box = (float(lo[0]), float(hi[0])) if field.dim == 1 else (lo, hi)
    return ContinuumReport(fired, box, int(hit.sum()))


def _scan_density(dim: int) -> int:
    """Points per chart axis of the continuum scan grid; ``ValueError`` when
    its ``per_dim**dim`` grid would exceed ``MAX_SCAN_POINTS``."""
    per_dim = max(11, int(round(CONTINUUM_SCAN_POINTS ** (1.0 / dim))))
    if per_dim**dim > MAX_SCAN_POINTS:
        raise ValueError(
            f"continuum scan grid of {per_dim}^{dim} points is too large "
            f"(limit {MAX_SCAN_POINTS} points)"
        )
    return per_dim


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


def find_equilibria(field_or_economy, config: SolverConfig | None = None) -> EquilibriumReport:
    """Locate, deduplicate, and classify the zeros of an excess-demand field.

    The one-field case of the solve pipeline: damped Newton iteration runs
    from a regular chart grid and stays ``BOUNDARY_MARGIN`` from every face,
    on ``p * z`` for an economy's field and on the field itself otherwise;
    converged points, those with full field residual ``|z|`` at most
    ``newton_tol``, are merged within ``1e-6`` and classified, and critical
    zeros within ``1e-4`` whose midpoint is a zero too are joined (both
    merges counted in ``dedup_merges``).  Non-convergence of individual starts is
    reported in the statistics, not raised.  The continuum detector runs
    alongside and sets ``finite_flag``.
    """
    report = _solve(as_field(field_or_economy), [None], config or SolverConfig())[0]
    if isinstance(report, Exception):
        raise report
    return report


def _solve(base: TangentField, terms: list, cfg: SolverConfig) -> list:
    """The report of ``base`` plus each chart-map term (``None``: no term),
    or the exception that its solve raised.

    The Newton phase runs over up to ``MAX_STARTS`` stacked rows at a time;
    each row follows the iteration of its own field's solve.  A chunk whose
    phase raises is solved again one field at a time.
    """
    if cfg.grid_density**base.dim > MAX_STARTS:
        message = (
            f"start grid of {cfg.grid_density}^{base.dim} points is too large; "
            f"lower grid_density (limit {MAX_STARTS} starts)"
        )
        return [ValueError(message)] * len(terms)
    starts = _start_grid(base.dim, cfg.grid_density)
    n = len(starts)
    weighted = base.price_weighted and all(term is None for term in terms)
    chunk = max(1, MAX_STARTS // max(1, n))
    outcomes = []
    for first in range(0, len(terms), chunk):
        group = terms[first : first + chunk]
        try:
            evaluate = _stacked_map(base, group, n)
            newton = _newton_multistart(
                evaluate, np.tile(starts, (len(group), 1)), cfg, weighted, n
            )
        except Exception as exc:  # noqa: BLE001 - each field then records its own error
            outcomes += [exc] if len(group) == 1 else [_solve(base, [t], cfg)[0] for t in group]
            continue
        for t, term in enumerate(group):
            try:
                field = _with_term(base, term)
                outcomes.append(_field_report(field, newton, slice(t * n, (t + 1) * n), cfg))
            except Exception as exc:  # noqa: BLE001 - per-field isolation is the contract
                outcomes.append(exc)
    return outcomes


def _stacked_map(base: TangentField, terms: list, n: int):
    """The chart map over stacked rows ``t * n + k``: the base map, plus each
    term on its own ``n`` rows (``_with_term``'s arithmetic, row by row)."""

    def evaluate(C, rows):
        # A copy: the base chart map may return a view of its input.
        F = np.array(base.chart_values(C))
        # ``rows`` is sorted, so each field's rows form one block.
        bounds = np.searchsorted(rows, n * np.arange(len(terms) + 1))
        for term, lo, hi in zip(terms, bounds[:-1], bounds[1:]):
            if term is not None and hi > lo:
                F[lo:hi] += term(C[lo:hi])
        return F

    return evaluate


def _field_report(
    field: TangentField, newton: tuple, rows: slice, cfg: SolverConfig
) -> EquilibriumReport:
    """The report on ``field`` from its start rows ``rows`` of a Newton phase:
    deduplication, classification, the flat-zero join, statistics and the
    continuum scan.

    The kept zeros are classified together, so the field is evaluated once
    for all of them and once for the continuum scan (and once for the join,
    when two critical zeros are within ``JOIN_RADIUS``).
    """
    C, res, converged, stalled, exhausted, iterations = (a[rows] for a in newton)
    conv_idx = np.flatnonzero(converged)
    kept, merges = _dedup(C[conv_idx], res[conv_idx], DEDUP_RADIUS)

    equilibria = []
    if kept:
        idx = conv_idx[kept]
        Z = C[idx]
        residual, regular, index, multiplicity = _classify_rows(field, Z, field.goods == 2)
        joined = _join_flat_zeros(field, Z, res[idx], ~regular, cfg.newton_tol)
        merges += len(idx) - len(joined)
        P = chart_rows_embed(Z[joined])
        equilibria = [
            Equilibrium(
                price=simplex_point(P[j]),
                chart=Z[i].copy(),
                residual=float(residual[i]),
                regularity=REGULAR if regular[i] else CRITICAL,
                index=int(index[i]),
                multiplicity=multiplicity[i] if residual[i] <= 1e-9 else None,
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
    return EquilibriumReport(tuple(equilibria), stats, continuum_detector(field))
