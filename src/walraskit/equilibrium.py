"""Locating and classifying the zeros of excess-demand fields.

One pipeline, ``_solve``, does every solve.  It takes a base field and a
list of chart-map terms (``None``, or a perturbation added to the base
chart map), so that each field's chart values are the base's plus its
term, the field that ``perturb`` returns, and evaluates each field once on
the continuum scan grid, the coarse level of a Kuhn lattice.  A level is a
set of patches, cubes of lattice indices in the chart region
(``_interior``), over stacked ``(field, point)`` rows.  One routine lays
out both levels (``_layout``), one map evaluates them (``_stacked_map``),
and one reads a level's starts (``_level_starts``): the zero of the
piecewise-linear interpolant of the Newton map in every Freudenthal
simplex that holds one (Scarf's simplicial method, restarted on a finer
mesh as in Eaves 1972), every lattice point whose residual is least in the
box of its neighbours, and the lowest-residual point of each cluster of
its hits (``_hits``).  The scan grid is one patch per field, read in one
pass (``_scan_stage``).  When it is coarser than the target spacing
``_spacing(grid_density)``, its cells that can hold a zero are refined in
one step into patches of ``m`` subdivisions per axis, the fewest that
reach the target, evaluated in one call (``_refine``), and the refined
level gives the starts.  Damped Newton iteration in chart coordinates
(``_newton_multistart``) runs over them, merging starts that converge
together; a converged start takes only full steps and stops at the first
that does not halve its residual, which polishes a degenerate zero and
stops at a regular one.  Every point Newton evaluates comes with its
central-difference Jacobian stencil (``_stencil``, ``_newton_points``): an
iteration asks the full steps in one call and the shorter steps, in one
call more, only of the starts whose full step failed, and each start moves
with the Jacobian of its new point.  On a refined level Newton runs once
more between and beyond every two close zeros of a field
(``_restart_between``).  :func:`find_equilibria` is its one-field case
and the genericity experiment its many-field case.

The aggregate excess demand ``z`` of an economy (a field marked
``price_weighted``, with no term) is solved on the price-weighted field
``w = p * z``: it has the same zeros in the open simplex and the same
index signs (``det J_w = prod(p) det J_z`` at a zero), stays bounded at
the faces where ``z`` grows like ``1/p_j``, and is affine in the chart for
constant-scale Cobb-Douglas economies, so its PL zero is the equilibrium.
Convergence is judged on ``|z|`` either way, and other fields, including
perturbed economy fields, are solved on ``z`` itself.  ``_stacked_map``
makes this choice for each chunk of fields and gives every level, Newton
phase and probe the full rows of both maps, each row on the field that the
caller names for it.  Every residual threshold is a constant times the
field's scale ``sigma``, the largest finite ``|p * z|`` on the scan grid
(``_scan``), so rescaling every endowment changes no answer.

One rule, ``_cover``, says which converged rows are one zero: Newton's
merge, the restarts between close zeros and the report step use it.  The
report step, like the Newton phase, takes a chunk of fields at a time
(``_reports``) and reads them only through its map (``_stacked_map``): the
kept zeros of all its fields are classified from one evaluation, on a few
probe rows around each zero (``_probe``, on Newton's central-difference
``_stencil``):

* ``regular``  -- nonsingular chart Jacobian; the local index is the sign of
  ``det(-J)``, so the unique equilibrium of a gross-substitutes economy gets
  index +1 and the index sum of an inward-pointing field with only regular
  zeros is +1.  (The orientation is a convention of this package.)
* ``critical`` -- singular or step-size-inconsistent Jacobian; such zeros
  get index 0 recorded and are excluded from degree certification.

Newton creeps onto a degenerate zero and stops on either side of it, so
critical zeros of a field closer than ``JOIN_RADIUS`` whose midpoint is
itself a zero are then joined into one.  A finite, all-regular report
whose index sum is not +1 has missed or misclassified a zero;
``EquilibriumReport.index_check`` says so.  A chunk that raises anywhere
is solved again one field at a time (``_solve``).

For two goods the order of the first non-vanishing chart derivative at a
zero is estimated by a polynomial fit on a window of those probe rows
(``multiplicity_estimate``).  ``classify``, ``multiplicity_estimate`` and
``chart_jacobian`` are the one-zero case.  The scan flags clusters of zeros
(``continuum_detector``) -- no finite procedure can decide infinitude, so
the detector is a heuristic with documented thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import permutations
from numbers import Integral

import numpy as np

from .fields import TangentField, _full_rows, as_field
from .geometry import (
    ChartPoint,
    PricePoint,
    _close_pairs,
    _greedy_cover,
    _linked_components,
    chart_rows_embed,
    simplex_point,
)

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
# Finite-difference Jacobians step by ``JACOBIAN_STEP`` (chart points have
# |c| < 1, so no step needs scaling); the probe's estimates at that step and
# at half of it must agree within ``JACOBIAN_CONSISTENCY_TOL`` relative,
# plus 1e-12 of the field's scale.
JACOBIAN_STEP = 1e-6
JACOBIAN_CONSISTENCY_TOL = 1e-4


class JacobianConsistencyError(RuntimeError):
    """Finite-difference Jacobian estimates at steps h and h/2 disagree."""


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


# A solve takes its fields in chunks of about this many points of the
# finest lattice (``_solve``).
MAX_STARTS = 250_000


def _interior(C: np.ndarray) -> np.ndarray:
    """The chart region: the rows of ``C`` (its last axis) at least
    ``BOUNDARY_MARGIN`` from every face.  Every lattice level, Newton trial
    and restart keeps to it."""
    return (C >= BOUNDARY_MARGIN).all(axis=-1) & (C.sum(axis=-1) <= 1.0 - BOUNDARY_MARGIN)


@lru_cache(maxsize=16)
def _axis(density: int) -> np.ndarray:
    """The coordinates along a chart axis of the lattice of ``density``
    points per axis; read-only, since every caller shares them."""
    axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
    axis.setflags(write=False)
    return axis


def _layout(field: np.ndarray, corner: np.ndarray, n: int, m: int) -> tuple:
    """The level of the cells with corners ``corner`` on the lattice of ``n``
    points per axis, of the fields ``field``, each refined into a patch of
    ``m`` subdivisions per axis: the keys (ascending), fields and chart rows
    of its points in the chart region, a point that patches share once, and
    its ``n``, ``vertex``, ``field`` and ``corner`` (``_level_starts``)."""
    d = corner.shape[1]
    n = (n - 1) * m + 1
    offsets = np.indices((m + 1,) * d).reshape(d, -1).T @ (n ** np.arange(d - 1, -1, -1))
    corner = corner * m
    corners = field * n**d + np.ravel_multi_index(tuple(corner.T), (n,) * d)
    keys, vertex = np.unique(corners[:, None] + offsets, return_inverse=True)
    labels, K = np.divmod(keys, n**d)
    C = _axis(n)[np.column_stack(np.unravel_index(K, (n,) * d))]
    inside = _interior(C)
    rows = np.where(inside, np.cumsum(inside) - 1, -1)
    vertex = rows[vertex].reshape((len(corners),) + (m + 1,) * d)
    return keys[inside], labels[inside], C[inside], n, vertex, field, corner


@lru_cache(maxsize=16)
def _scan_level(dim: int, density: int) -> tuple:
    """The lattice of ``density`` points per axis as a level of one patch,
    the single cell of the 2-point lattice refined by ``density - 1``
    (``_layout``): its chart rows in index order, ``density``, keys and
    ``vertex``; read-only, since every caller shares them."""
    keys, _, C, n, vertex, *_ = _layout(np.zeros(1, dtype=int), np.zeros((1, dim), dtype=int), 2, density - 1)
    for a in (C, keys, vertex):
        a.setflags(write=False)
    return C, n, keys, vertex


@lru_cache(maxsize=16)
def _offsets(d: int, fractions: tuple) -> tuple:
    """The steps ``s = f * JACOBIAN_STEP``, ``(k,)``, of the fractions ``f``
    and the offsets ``s e_j``, then ``-s e_j``, of each, ``(k, 2d, d)``;
    read-only, since every stencil shares them."""
    s = JACOBIAN_STEP * np.asarray(fractions)
    E = s[:, None, None] * np.concatenate([np.eye(d), -np.eye(d)])
    for a in (s, E):
        a.setflags(write=False)
    return s, E


def _stencil(C: np.ndarray, fractions=(1.0,)) -> tuple:
    """The steps ``s = f * JACOBIAN_STEP``, ``(k,)``, of the fractions ``f``,
    and the central-difference rows ``c + s e_j``, then ``c - s e_j``, of
    every row ``c`` of ``C`` and each step, ``(m, k, 2d, d)``."""
    s, E = _offsets(C.shape[1], tuple(fractions))
    return s, C[:, None, None, :] + E


def _difference_quotient(F: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Jacobians ``(F_k(c + s e_j) - F_k(c - s e_j)) / 2s`` (entry ``k, j``)
    from the values ``F``, ``(..., 2d, d)``, on the ``_stencil`` rows of the
    steps ``s``, which broadcast against the leading axes of ``F``."""
    d = F.shape[-1]
    return ((F[..., :d, :] - F[..., d:, :]) / (2.0 * s)[..., None, None]).swapaxes(-1, -2)


def _probe(evaluate, C: np.ndarray, labels: np.ndarray, sigma, window=None):
    """Probe the chart map of field ``labels[k]`` (non-decreasing) around
    every chart row ``c = C[k]``, in one call of the chunk's map ``evaluate``
    (``_stacked_map``) for all of them: at ``c``, its ``_stencil`` rows at
    steps ``h`` and ``h/2`` and, given a ``window``, ``c + r s`` for each
    ``s`` in it, ``r = min(0.02, margin/2)`` (``margin``: the distance to
    the nearest face).  Returns per row: the full residual norm; the
    Jacobian at step ``h/2``; whether it agrees with the one at step ``h``,
    relative to its size plus ``1e-12 sigma`` (``sigma``: the field's scale,
    one or one per row); and the values on the window."""
    m, d = C.shape
    s, stencil = _stencil(C, (1.0, 0.5))
    blocks = [C[:, None, :], stencil.reshape(m, -1, d)]
    if window is not None:
        r = np.minimum(0.02, 0.5 * np.minimum(C.min(axis=1), 1.0 - C.sum(axis=1)))
        blocks.append(C[:, None, :] + (r[:, None] * window)[:, :, None])
    rows = np.concatenate(blocks, axis=1)
    per = rows.shape[1]
    Z = evaluate(rows.reshape(-1, d), np.repeat(labels, per))[1]
    V = Z[:, :-1].reshape(rows.shape)

    residual = np.linalg.norm(_full_rows(C, V[:, 0])[1], axis=1)
    J = _difference_quotient(V[:, 1 : 1 + 4 * d].reshape(m, 2, 2 * d, d), s)
    size = np.abs(J).max(axis=(1, 2, 3))
    # The floor keeps an exactly (or numerically) flat field from tripping
    # the check: both estimates are then noise around zero.
    spread = np.abs(J[:, 0] - J[:, 1]).max(axis=(1, 2))
    consistent = ~(spread > JACOBIAN_CONSISTENCY_TOL * size + 1e-12 * sigma)
    return residual, J[:, 1], consistent, V[:, 1 + 4 * d :]


def _jacobians(W: np.ndarray) -> np.ndarray:
    """The central-difference Jacobians, ``(m, d, d)``, of the Newton map from
    its full rows ``W``, ``(m, 2d, d + 1)``, on the ``_stencil`` rows of
    ``m`` points."""
    return _difference_quotient(W[..., :-1], _offsets(W.shape[2] - 1, (1.0,))[0])


def _newton_points(evaluate, X: np.ndarray, rows: np.ndarray) -> tuple:
    """The Newton map's chart values, ``(m, d)``, the norms of its full
    values and of the field's, ``(m,)``, and its central-difference
    Jacobians, ``(m, d, d)``, at the points ``X``, ``(m, d)``, from one call
    of ``evaluate`` on every point followed by its ``2d`` ``_stencil`` rows;
    point ``X[k]`` is evaluated on row ``rows[k]`` (non-decreasing), so the
    rows of the call stay non-decreasing.  A point whose residual is not
    finite gets a zero Jacobian: no step is taken from it."""
    m, d = X.shape
    per = 1 + 2 * d
    points = np.concatenate([X[:, None, :], _stencil(X)[1][:, 0]], axis=1)
    W, Z = evaluate(points.reshape(-1, d), np.repeat(rows, per))
    W = W.reshape(m, per, d + 1)
    res = np.linalg.norm(W[:, 0], axis=1)
    finite = np.isfinite(res)
    J = np.zeros((m, d, d))
    J[finite] = _jacobians(W[finite, 1:])
    return W[:, 0, :-1], res, np.linalg.norm(Z[::per], axis=1), J


def _newton_multistart(evaluate, starts: np.ndarray, tol, labels: np.ndarray):
    """Damped Newton from every start row, as one batch.

    ``evaluate(C, rows)`` returns the full rows of the Newton map and of the
    field at the rows of ``C``; row ``k`` of ``C`` is an iterate of start
    ``rows[k]``, and ``rows`` is non-decreasing.  Each row
    follows its own iteration and carries one state: its point, the Newton
    map's chart values there, the residual norms, and the central-difference
    Jacobian of the Newton map there.  Newton steps on the map; convergence
    is judged on the field, ``|z| <= tol`` (one bound, or one per row).

    A step tries ``C - lambda * delta`` for ``lambda = 1, 1/2, ...,
    2**-NEWTON_MAX_HALVINGS`` and takes the first trial inside the boundary
    margin that cuts the residual by ``1 - lambda / 2`` (backtracking).  A
    converged row, ``|z| <= tol``, tries the full step ``lambda = 1`` only,
    and takes it when it at least halves the residual.  A row stops when
    no step size it tries improves its residual, or when the step no
    longer moves the point (as a singular Jacobian's zero step does).

    Every point is evaluated with its ``2d`` Jacobian stencil rows
    (``_newton_points``): the first call holds every start, ``starts x
    (1 + 2d)`` rows.  Then an iteration (``_damped_step``) makes one call
    for the full steps of every iterating row and, only when some row that
    has not converged failed its full step, one call more for the shorter
    steps of those rows.  A row moves to its first accepted trial with the
    Jacobian there, so every iteration starts from a known Jacobian.  Every
    iterate, Jacobian and step has the bits that a call of its own would
    give, since a row gets the same bits in any batch.

    At the top of every iteration the rows of each field (``labels``, one
    per row, non-decreasing) that are still iterating and converged are
    merged (``_merge_converged``).  Returns per-row arrays: final points,
    field residuals ``|z|``, and the converged, stalled and exhausted masks
    and iteration counts.
    """
    C = starts.copy()
    state = (C, *_newton_points(evaluate, C, np.arange(len(C))))
    res, zres = state[2], state[3]
    # A start whose residual is not finite cannot take a step: it stalls.
    halted = ~np.isfinite(res)
    # Points keep iterating past the convergence tolerance while a full step
    # still halves the residual: at a zero of multiplicity k it cuts |z| by
    # ((k - 1) / k)^k <= 1/e, so this polishing drives the offset of
    # degenerate (critical) zeros toward zero, and classification at the
    # returned point behaves like classification at the exact zero.  At a
    # regular zero the first full step that fails this ends a walk through
    # rounding noise that damped steps would continue.
    active = ~halted & (res > 0.0)
    iterations = np.zeros(len(C), dtype=np.int64)

    for _ in range(NEWTON_MAX_ITER):
        _merge_converged(C, zres, active, tol, labels)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] += 1
        took = _damped_step(evaluate, idx, state, (zres <= tol)[idx])
        # A row halts unless one of its trials is accepted.  An exact zero
        # stops here, not after one more Jacobian whose zero step would end it.
        halted[idx], active[idx] = True, False
        halted[took], active[took] = False, res[took] > 0.0

    converged = zres <= tol
    return C, zres, converged, halted & ~converged, active & ~converged, iterations


_STEP_SIZES = 0.5 ** np.arange(NEWTON_MAX_HALVINGS + 1)
# A trial of step size lambda is accepted at residual (1 - lambda / 2) res.
_ACCEPT = 1.0 - 0.5 * _STEP_SIZES


def _newton_direction(J: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The Newton steps ``J^-1 G`` of the Jacobians ``J`` and the Newton
    map's chart values ``G``, zero where ``J`` is singular or not finite."""
    dets = np.linalg.det(J)
    solvable = np.isfinite(dets) & (np.abs(dets) > 0.0)
    delta = np.zeros_like(G)
    delta[solvable] = np.linalg.solve(J[solvable], G[solvable][..., None])[..., 0]
    return delta


def _damped_step(evaluate, rows, state: tuple, converged: np.ndarray):
    """One damped Newton step from each of ``rows`` of the iterates
    ``state``: their points ``C``, the Newton map's chart values ``G``, the
    residuals ``res`` and ``zres`` and the Newton map's Jacobians ``J``.
    Updates ``state`` in place on the rows that accept a trial, and returns
    those rows.

    The step solves ``J delta = G`` (``_newton_direction``) and tries
    ``C - lambda * delta`` for each step size (``_STEP_SIZES``), every trial
    evaluated with its stencil rows (``_newton_points``).  One call asks the
    full step of every row; a second asks the shorter steps of the rows
    whose full step failed and that have not ``converged`` (one flag per
    row), and is made only when there are any.  A row's trials end before
    the first that rounds to its point, and one outside the boundary margin
    is not asked; a row accepts its first trial whose residual is at most
    ``(1 - lambda / 2) res``, with the Jacobian there.
    """
    C, G, res, _, J = (a[rows] for a in state)
    T = C[:, None, :] - _STEP_SIZES[:, None] * _newton_direction(J, G)[:, None, :]
    # No shorter step moves a point that a longer one leaves in place.
    ask = np.logical_and.accumulate((T != C[:, None, :]).any(axis=2), axis=1) & _interior(T)
    hit = np.zeros(len(rows), dtype=bool)
    for steps in (slice(0, 1), slice(1, None)):
        i, j = np.nonzero(ask[:, steps])
        j += steps.start
        if i.size:
            X = T[i, j]
            out = _newton_points(evaluate, X, rows[i])
            # The first accepted trial of each row; i is non-decreasing.
            ok = np.flatnonzero(out[1] <= _ACCEPT[j] * res[i])
            ok = ok[np.unique(i[ok], return_index=True)[1]]
            for a, v in zip(state, (X, *out)):
                a[rows[i[ok]]] = v[ok]
            hit[i[ok]] = True
        # Only a row that has not converged and failed its full step goes on.
        ask[hit | converged] = False
    return rows[hit]


def _merge_converged(C, zres, active, tol, labels: np.ndarray) -> None:
    """Stop, where they are, the iterating rows that are converged and
    claimed by another such row (``_cover``): a stopped row keeps its own
    point and residual, and the report step's cover claims it again."""
    cand = np.flatnonzero(active & (zres <= tol))
    if cand.size > 1:
        active[cand[_cover(C, zres, labels, cand) != cand]] = False


def _cover(C: np.ndarray, zres: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The row that claims each of ``rows`` (points ``C``, residuals ``zres``,
    fields ``labels``): in ascending residual, first on ties, a row not yet
    claimed claims itself and every such row of its field within
    ``DEDUP_RADIUS``.  The rows that claim themselves are distinct zeros."""
    X = _apart(C[rows], labels[rows])
    return rows[_greedy_cover(X, np.argsort(zres[rows], kind="stable"), DEDUP_RADIUS, p=2)]


def _apart(C: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The rows ``C`` with their fields ``labels`` on an extra last axis, two
    units apart: beyond every radius of a near-row search over stacked
    fields (``_cover``'s, 1.5 scan spacings, ``_restart_between``'s)."""
    return np.column_stack([C, 2.0 * labels])


def _join_flat_zeros(residuals, Z: np.ndarray, res: np.ndarray, critical: np.ndarray, tol: float) -> np.ndarray:
    """Ascending positions of the zeros ``Z`` left after joining, transitively,
    critical zeros within ``JOIN_RADIUS`` whose midpoint is a zero, with
    ``residuals(midpoints)``, the field's ``|z|``, at most ``tol``; a joined
    group keeps its lowest-residual zero.  ``residuals`` is called once, and
    only when two critical zeros are that close."""
    if np.count_nonzero(critical) < 2:
        return np.arange(len(Z))

    def flat(pairs):
        linked = critical[pairs].all(axis=1)
        if linked.any():
            a, b = pairs[linked].T
            linked[linked] = residuals(0.5 * (Z[a] + Z[b])) <= tol
        return linked

    return np.sort(_lowest_per_label(_linked_components(Z, JOIN_RADIUS, flat), res))


def _lowest_per_label(labels: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Position of the lowest-residual row of each label, in label order
    (the first such row on ties)."""
    order = np.argsort(res, kind="stable")
    return order[np.unique(labels[order], return_index=True)[1]]


def _classify_rows(field: TangentField, C: np.ndarray, sigma: float):
    """``_classification`` of the zeros ``C`` of the one field ``field``;
    the first whose residual exceeds ``1e-9 * sigma`` raises ``ValueError``."""
    out = _classification(_stacked_map(field, [None]), C, np.zeros(len(C), dtype=int), sigma)
    _check_zeros(out[0], sigma)
    return out


def _check_zeros(residual: np.ndarray, sigma: float) -> None:
    """Raise ``ValueError``, naming the first, when a residual of zeros of a
    field of scale ``sigma`` exceeds ``1e-9 * sigma``."""
    bad = residual > 1e-9 * sigma
    if bad.any():
        res = residual[np.argmax(bad)]
        raise ValueError(f"point is not a zero of the field (residual {res:.3e})")


def _classification(evaluate, C: np.ndarray, labels: np.ndarray, sigma):
    """Residual norms, regular mask, indices and multiplicities of the zeros
    ``C`` of the fields ``labels`` (non-decreasing) of a chunk, of scale
    ``sigma`` (one or one per row), from one evaluation of every probe row
    (``_probe``), one determinant and one fit.

    Multiplicities are fitted on a window of ``4 MULTIPLICITY_K_MAX + 1``
    points for two goods (``d = 1`` chart axis), else ``None``.
    """
    d = C.shape[1]
    window = np.linspace(-1.0, 1.0, 4 * MULTIPLICITY_K_MAX + 1) if d == 1 else None
    residual, J, consistent, G = _probe(evaluate, C, labels, sigma, window)
    det = np.linalg.det(J)
    size = np.fmax(np.abs(J).max(axis=(1, 2)), sigma)
    regular = consistent & ~(np.abs(det) <= DET_RELATIVE_TOL * size**d)
    index = np.where(regular, np.where((-1) ** d * det > 0, 1, -1), 0)
    fits = _fit_orders(window, G[:, :, 0], sigma) if d == 1 else [None] * len(C)
    return residual, regular, index, fits


def _fit_orders(s: np.ndarray, G: np.ndarray, sigma) -> list:
    """Per row ``g`` of ``G`` (scale ``sigma``, one or one per row), the
    lowest order whose fitted coefficient on the window ``s`` stands out,
    from one least-squares fit of every row."""
    scale = np.abs(G).max(axis=1)
    # Column j of the fit is s**j, so coefficient j estimates g^(j) r^j / j!.
    V = np.vander(s, MULTIPLICITY_K_MAX + 1, increasing=True)
    B = np.linalg.lstsq(V, G.T, rcond=None)[0]
    stands = np.abs(B[1:].T) >= 1e-3 * scale[:, None]
    first = np.where(stands.any(axis=1) & ~(scale <= 1e-12 * sigma), np.argmax(stands, axis=1) + 1, 0)
    return [int(k) or None for k in first]


def _chart_row(c) -> np.ndarray:
    """The chart row, ``(1, d)``, of a price point or of a chart point given
    as a ``ChartPoint`` or as raw coordinates, which ``ChartPoint`` checks."""
    if isinstance(c, PricePoint):
        return c.simplex_coords()[None, :-1]
    return (c if isinstance(c, ChartPoint) else ChartPoint(c)).coords[None, :]


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
    _, regular, index, _ = _classify_rows(field, _chart_row(p), _scan(field)[0])
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
    return _classify_rows(field, _chart_row(p), _scan(field)[0])[3][0]


def chart_jacobian(field_or_economy, c) -> np.ndarray:
    """Central-difference Jacobian of a field's chart map at chart point ``c``.

    Two estimates at steps ``h = 1e-6`` and ``h/2`` are
    compared; a disagreement above ``1e-4`` relative plus ``1e-12 sigma``
    raises :class:`JacobianConsistencyError`.  This is the one-point case of
    the probe that classifies zeros, and evaluates the field twice.
    """
    field = as_field(field_or_economy)
    _, J, consistent, _ = _probe(_stacked_map(field, [None]), _chart_row(c), np.zeros(1, int), _scan(field)[0])
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
    return _scan(as_field(field_or_economy))[1]


def _spacing(density: int) -> float:
    """Spacing of the lattice of ``density`` points per axis (``_axis``)."""
    return (1.0 - 2 * BOUNDARY_MARGIN) / (density - 1)


def _scan_grid(dim: int) -> tuple:
    """The continuum scan grid as a level (``_scan_level``); ``ValueError``
    when its ``per_dim**dim`` grid would exceed ``MAX_SCAN_POINTS``."""
    per_dim = max(11, int(round(CONTINUUM_SCAN_POINTS ** (1.0 / dim))))
    if per_dim**dim > MAX_SCAN_POINTS:
        raise ValueError(
            f"continuum scan grid of {per_dim}^{dim} points is too large "
            f"(limit {MAX_SCAN_POINTS} points)"
        )
    return _scan_level(dim, per_dim)


def _base_grid(base: TangentField) -> tuple:
    """The continuum scan grid, its points per axis and the chart values of
    ``base`` on it: the one evaluation of the base on the grid."""
    C, per_dim, *_ = _scan_grid(base.dim)
    return C, per_dim, base.chart_values(C)


def _scan(field: TangentField, grid: tuple | None = None) -> tuple:
    """``(sigma, ContinuumReport)`` of ``field`` from one evaluation of the
    scan grid (``grid``, its ``_base_grid``, when the caller has made it);
    ``sigma`` is 0 with no finite row.  The one-field ``_scan_stage``."""
    grid = _base_grid(field) if grid is None else grid
    sigmas, *_, reports = _scan_stage(_stacked_map(field, [None]), grid, 1)
    return float(sigmas[0]), reports[0]


def _scan_stage(evaluate, grid: tuple, count: int) -> tuple:
    """The one pass over the scan grid of ``count`` fields, which the
    chunk's map ``evaluate`` (``_stacked_map``) evaluates from the base's
    values in ``grid`` (``_base_grid``), every field on every grid row in one
    call:
    their scales ``sigma``, the largest finite ``|p * z|`` of each, the full
    rows of their Newton map, field by field, its hits and their clusters
    (``_hits``) and their ``ContinuumReport``s."""
    C, per_dim, values = grid
    fields = np.arange(count)
    W, Z = evaluate(C, fields[:, None], values)
    wres = np.linalg.norm(chart_rows_embed(C) * Z, axis=2)
    sigmas = np.where(np.isfinite(wres), wres, 0.0).max(axis=1)
    W, Z = W.reshape(-1, W.shape[2]), Z.reshape(-1, Z.shape[2])
    labels = np.repeat(fields, len(C))
    X = np.tile(C, (count, 1))
    hit, clusters = _hits(X, Z, labels, sigmas, _spacing(per_dim))
    H, of = X[hit], labels[hit]
    reports = []
    for f in range(count):
        # The largest cluster of the field, the first on ties.
        own = clusters[of == f]
        component = H[clusters == np.argmax(np.bincount(own))] if own.size else H[:0]
        box = None
        if len(component) >= CONTINUUM_RUN_REQUIRED:
            lo, hi = component.min(axis=0), component.max(axis=0)
            box = (float(lo[0]), float(hi[0])) if C.shape[1] == 1 else (lo, hi)
        reports.append(ContinuumReport(box is not None, box, own.size))
    return sigmas, W, hit, clusters, reports


def _hits(C: np.ndarray, Z: np.ndarray, labels: np.ndarray, sigmas, spacing: float) -> tuple:
    """Which rows ``C`` of the fields ``labels`` (field rows ``Z``, scales
    ``sigmas``) are hits, ``|z| <= CONTINUUM_RESIDUAL_TOL * sigma``, and the
    cluster of each hit, linking the hits of a field within 1.5 scan
    spacings ``spacing``, so that a flat stretch of zeros is one cluster."""
    hit = np.linalg.norm(Z, axis=1) <= CONTINUUM_RESIDUAL_TOL * sigmas[labels]
    return hit, _linked_components(_apart(C[hit], labels[hit]), 1.5 * spacing)


def _subdivisions(per_dim: int, density: int) -> int:
    """Subdivisions per axis of a refined scan-grid cell: the fewest whose
    spacing is at most ``_spacing(density)``."""
    return -(-(density - 1) // (per_dim - 1))


def _starts(evaluate, m: int, sigmas, W, hit, clusters) -> tuple:
    """The Newton starts of a chunk of fields, and the field of each start
    (non-decreasing), from their scales ``sigmas``, the full rows ``W`` of
    their Newton map on the scan grid, its hits and their clusters
    (``_scan_stage``) and the solve's ``_subdivisions`` ``m``.

    The scan grid is a level of one patch per field; with ``m > 1`` its
    flagged cells are refined, and the chunk's map ``evaluate``
    (``_stacked_map``) evaluates them.  A field's starts are those of the
    finest level (``_level_starts``).
    """
    F, d = len(sigmas), W.shape[1] - 1
    _, per_dim, keys, vertex = _scan_grid(d)
    field = np.arange(F)
    # The scan grid as one patch per field, its rows stacked field by field.
    keys = (field[:, None] * per_dim**d + keys).ravel()
    vertex = np.where(vertex >= 0, vertex + len(W) // F * field.reshape((F,) + (1,) * d), -1)
    refine = partial(_refine, evaluate, sigmas, m) if m > 1 else None
    corner = np.zeros((F, d), dtype=int)
    blocks = _level_starts(W, hit, clusters, keys, per_dim, vertex, field, corner, refine)
    labels = np.concatenate([f for f, _ in blocks])
    order = np.argsort(labels, kind="stable")
    return np.vstack([X for _, X in blocks])[order], labels[order]


def _level_starts(W, hit, clusters, keys, n: int, vertex, field, corner, refine=None) -> list:
    """The starts of a lattice level as ``(fields, starts)`` blocks: its PL
    zeros, its minima and the lowest-residual point of each cluster of its
    hits (``clusters``, one per hit, from ``_hits``), so a flat stretch of
    zeros gives one start, not one per cell.  A zero on a face that
    simplices share is found in each; Newton merges such starts.  With
    ``refine``, they are the starts of the level that
    ``refine(fields, corners, n)`` makes of its cells that can hold a zero:
    those where every component takes both signs at the corners that have
    a value (``_sign_screen``), or with a minimum or a hit as a corner.

    A level is a set of patches over stacked rows on the lattice of ``n``
    points per axis.  Row ``r`` is the lattice point ``K`` of field ``f``
    with key ``keys[r] = f * n**d + ravel(K)`` (ascending), the Newton map's
    full values ``W[r]`` there, and ``hit[r]`` marks a hit, a point where
    ``|z| <= CONTINUUM_RESIDUAL_TOL * sigma``.  Patch ``q`` of
    field ``field[q]`` is the cube of lattice indices from ``corner[q]``:
    its entry ``j`` is row ``vertex[q, j]``, -1 for a point with no row.
    Hits are neither simplex vertices nor minima.

    A vertex is a minimum when its residual is finite and at most that of
    every point ``v + b``, ``b`` in ``{-1, 0, 1}^d``, of the level, in its
    own patch and in the patches next to it.  In one dimension these are
    its Freudenthal neighbours ``v +- e_1``; in more, the box also holds the
    points ``v + b`` whose ``b`` mixes signs, along which a trough's floor
    descends.  Judged within its own patch alone, each border vertex of a
    patch on the floor of a trough was one; judged only where the whole box
    was evaluated, a minimum on the border of a refined region, next to a
    zero that the scan grid hides, was none.
    """
    d = vertex.ndim - 1
    res = np.linalg.norm(W, axis=1)
    finite = np.isfinite(res)
    # Row -1 stands for a lattice point with no row: no values, no residual.
    G = np.vstack([np.where((finite & ~hit)[:, None], W[:, :-1], np.nan), np.full(d, np.nan)])
    R = np.append(np.where(finite, res, np.inf), np.inf)

    # Minima within their patch, then against their neighbours in others.
    box = np.full((len(vertex),) + tuple(np.add(vertex.shape[1:], 2)), np.inf)
    box[(slice(None),) + (slice(1, -1),) * d] = R[vertex]
    least = _over_cells(np.minimum, _over_cells(np.minimum, box))
    minima = np.unique(vertex[np.isfinite(R[vertex]) & (R[vertex] <= least)])
    labels, K = np.divmod(keys[minima], n**d)
    K = np.column_stack(np.unravel_index(K, (n,) * d))
    lowest = ~hit[minima]
    # With one patch per field (the scan grid), no neighbour lies in another.
    if len(np.unique(field)) < len(field):
        near = K[:, None, :] + np.indices((3,) * d).reshape(d, -1).T - 1
        within = ((near >= 0) & (near < n)).all(axis=2)
        near = labels[:, None] * n**d + near @ (n ** np.arange(d - 1, -1, -1))
        at = np.minimum(np.searchsorted(keys, near), len(keys) - 1)
        lowest &= (~within | (keys[at] != near) | (R[minima][:, None] <= R[at])).all(axis=1)
    minima, labels, K = minima[lowest], labels[lowest], K[lowest]

    if refine is not None:
        mark = np.append(hit, False)
        mark[minima] = True
        patch, *cell = np.nonzero(_sign_screen(G, vertex) | _over_cells(np.logical_or, mark[vertex]))
        return _level_starts(*refine(field[patch], corner[patch] + np.column_stack(cell), n))
    axis = _axis(n)
    patch, zeros = _pl_zeros(G, vertex, corner, axis)
    blocks = [(field[patch], zeros), (labels, axis[K])]
    rep = np.flatnonzero(hit)[_lowest_per_label(clusters, res[hit])]
    labels, K = np.divmod(keys[rep], n**d)
    return blocks + [(labels, axis[np.column_stack(np.unravel_index(K, (n,) * d))])]


def _refine(evaluate, sigmas, m: int, field, corner, n: int) -> tuple:
    """The level (``_level_starts``' arguments) that ``_layout`` makes of the
    cells with corners ``corner`` on the lattice of ``n`` points per axis, of
    the fields ``field`` (scales ``sigmas``), each refined into ``m``
    subdivisions per axis, with its rows evaluated in one call of the
    chunk's map ``evaluate`` (``_stacked_map``) and its ``_hits``."""
    keys, labels, C, *patches = _layout(field, corner, n, m)
    W, Z = evaluate(C, labels)
    return W, *_hits(C, Z, labels, sigmas, _spacing(n)), keys, *patches


def _over_cells(op, X: np.ndarray, lead: int = 1) -> np.ndarray:
    """``op`` over the corners of every cell of each cube of ``X`` (its axes
    after the first ``lead``): entry ``k`` combines the entries ``k + b``,
    ``b`` in ``{0, 1}^d``."""
    for a in range(lead, X.ndim):
        X = op(X[(slice(None),) * a + (slice(0, -1),)], X[(slice(None),) * a + (slice(1, None),)])
    return X


def _sign_screen(G: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """The cells of each patch (``_pl_zeros``'s layout) in which every
    component takes both signs at the corners that have a value; only they
    can hold a zero of the interpolant."""
    signs = np.ascontiguousarray(np.concatenate([G >= 0.0, G <= 0.0], axis=1).T)
    return reduce(np.logical_and, _over_cells(np.logical_or, np.take(signs, vertex, axis=1), 2))


def _pl_zeros(G: np.ndarray, vertex: np.ndarray, corner: np.ndarray, axis: np.ndarray) -> tuple:
    """The zeros of the piecewise-linear interpolant of the chart values
    ``G`` (rows, NaN where there is none) in the closed Freudenthal
    simplices whose vertices all have values, and the patch of each, in
    patch, cell and permutation order.

    ``vertex`` stacks patches, cubes of lattice indices: entry ``j`` of
    patch ``q`` is the lattice point ``corner[q] + j``, at chart coordinates
    ``axis[corner[q] + j]``, whose values are row ``vertex[q, j]`` of ``G``.
    The simplex of permutation ``p`` in the cell with corner ``k`` has
    vertices ``k``, ``k + e_p1``, ..., ``k + 1``.
    """
    d = G.shape[1]
    cells = np.argwhere(_sign_screen(G, vertex))
    # Vertex j of permutation p steps along the axes p_1, ..., p_j.
    paths = np.arange(d + 1)[:, None] > np.argsort(list(permutations(range(d))), axis=1)[:, None, :]
    V = (cells[:, None, None, 1:] + paths).reshape(-1, d + 1, d)
    patch = np.repeat(cells[:, 0], len(paths))
    # Barycentric weights lam: sum(lam) = 1 and sum(lam_j G(v_j)) = 0.
    values = G[vertex[(patch[:, None], *np.moveaxis(V, -1, 0))]].swapaxes(1, 2)
    whole = ~np.isnan(values).any(axis=(1, 2))
    V, values, patch = V[whole], values[whole], patch[whole]
    A = np.concatenate([np.ones((len(V), 1, d + 1)), values], axis=1)
    det = np.linalg.det(A)
    solvable = np.isfinite(det) & (det != 0.0)
    V, A, patch = V[solvable], A[solvable], patch[solvable]
    lam = np.linalg.solve(A, np.eye(d + 1)[:, :1])[..., 0]
    inside = (lam >= 0.0).all(axis=1)
    patch = patch[inside]
    return patch, np.einsum("kj,kji->ki", lam[inside], axis[corner[patch][:, None, :] + V[inside]])


def find_equilibria(field_or_economy, config: SolverConfig | None = None) -> EquilibriumReport:
    """Locate, deduplicate, and classify the zeros of an excess-demand field.

    The one-field case of the solve pipeline: the continuum scan gives
    ``sigma`` and ``finite_flag``; damped Newton iteration runs from the
    starts found on the finest lattice level, the scan grid or its refined
    patches (``_starts``; the report's ``starts``), and stays in the chart
    region ``BOUNDARY_MARGIN`` from every face, on ``p * z``
    for an economy's field and on the field itself otherwise; points with
    ``|z| <= NEWTON_TOL * sigma`` are merged within ``1e-6`` and classified in
    one call, and critical zeros within ``1e-4`` whose midpoint is a zero are
    joined (both merges counted in ``dedup_merges``).  Non-convergence of
    individual starts is reported in the statistics; the field's errors raise.
    """
    report = _solve(as_field(field_or_economy), [None], config or SolverConfig())[0]
    if isinstance(report, Exception):
        raise report
    return report


def _solve(base: TangentField, terms: list, cfg: SolverConfig, grid: tuple | None = None) -> list:
    """The report of ``base`` plus each chart-map term (``None``: no term),
    or the exception that its solve raised.

    The base is evaluated once on the scan grid (``grid``, from
    ``_base_grid``, is that evaluation when the caller has made it), which
    raises when it fails, as every field would.  The fields are solved in
    chunks of ``MAX_STARTS // (scan points * m^d)`` fields, ``m`` the
    ``_subdivisions`` of the scan grid's cells: about ``MAX_STARTS`` points
    of the finest lattice.  A chunk is scanned in one pass (``_scan_stage``),
    for ``sigma``, its refined cells evaluated in one call more when
    ``m > 1`` (``_starts``), and one Newton phase runs over the stacked
    starts of all its fields, reading the chunk's map (``_stacked_map``) on
    the field of each start; a restart phase appends its rows.  One report step reads the rows of both
    (``_reports``): one cover, and one probe call for the zeros of every
    field.  One rule holds for failure: a chunk of several fields whose
    scan, Newton phases or report step raise is solved again one field at
    a time, and a chunk of one field records the exception.
    """
    grid = _base_grid(base) if grid is None else grid
    scan_grid, per_dim, _ = grid
    m = _subdivisions(per_dim, cfg.grid_density)
    # Zeros this close can hide a third from the scan grid (_restart_between).
    restart_radius = 2.0 * _spacing(per_dim)
    chunk = max(1, MAX_STARTS // (len(scan_grid) * m**base.dim))
    outcomes = []
    for first in range(0, len(terms), chunk):
        group = terms[first : first + chunk]
        try:
            evaluate = _stacked_map(base, group)
            sigmas, *scan, reports = _scan_stage(evaluate, grid, len(group))
            starts, labels = _starts(evaluate, m, sigmas, *scan)

            def phase(X, labels):
                return _newton_multistart(
                    lambda C, rows: evaluate(C, labels[rows]), X, NEWTON_TOL * sigmas[labels], labels
                )

            newton = phase(starts, labels)
            if m > 1:
                newton, labels = _restart_between(phase, newton, labels, restart_radius)
            outcomes += _reports(evaluate, newton, labels, sigmas, reports)
        except Exception as exc:  # noqa: BLE001 - each field then records its own error
            outcomes += [exc] if len(group) == 1 else [_solve(base, [t], cfg, grid)[0] for t in group]
    return outcomes


def _restart_between(phase, newton, labels, radius: float) -> tuple:
    """The Newton phase ``newton`` over rows of the fields ``labels``, and
    the rows and labels of a second ``phase`` appended to it, from the line
    through every two distinct converged points of a field (``_cover``)
    within ``radius`` of each other, sorted by field as a phase's rows are.

    The second phase starts at the pair's midpoint and one secant length
    beyond each end, ``c_a + w (c_b - c_a)`` for ``w`` = 1/2, -1 and 2, where
    inside the boundary margin.  Zeros on a curve alternate in index, as at
    a fold, so two close zeros that a refined level resolved can have a
    third between or beyond them that it did not (a secant predictor, as
    in continuation).
    """
    C, zres, converged = newton[:3]
    idx = np.flatnonzero(converged)
    if idx.size < 2:
        return newton, labels
    idx = idx[_cover(C, zres, labels, idx) == idx]
    pairs = _close_pairs(_apart(C[idx], labels[idx]), radius, p=2)
    if not len(pairs):
        return newton, labels
    a, b = np.sort(idx[pairs], axis=1).T
    order = np.lexsort((b, a, labels[a]))
    a, b = np.repeat(a[order], 3), np.repeat(b[order], 3)
    X = C[a] + np.tile([0.5, -1.0, 2.0], len(pairs))[:, None] * (C[b] - C[a])
    a, X = a[_interior(X)], X[_interior(X)]
    more = phase(X, labels[a])
    return tuple(map(np.concatenate, zip(newton, more))), np.concatenate([labels, labels[a]])


def _stacked_map(base: TangentField, terms: list):
    """The map of a chunk of fields, ``base`` plus each of ``terms``:
    ``evaluate(C, fields, values=None)`` returns the full rows ``W`` of the
    Newton map and ``Z`` of the field at the chart rows ``C``, row ``r`` of
    field ``fields[r]`` (non-decreasing), each chart value the base's
    (evaluated once, or ``values``) plus that field's term (``_term_rows``),
    the field that ``perturb`` returns.  With ``fields`` of shape ``(k, 1)``
    each of those ``k`` fields is evaluated on every row of ``C`` (the scan
    grid), and ``W`` and ``Z`` are ``(k, len(C), l)``.  It writes into no
    array it did not allocate.  The Newton map is ``p * z`` when the base is
    ``price_weighted`` and no field has a term, else ``z``."""
    weighted = base.price_weighted and all(term is None for term in terms)
    term_rows = _term_rows(terms)

    def evaluate(C, fields, values=None):
        F = base.chart_values(C) if values is None else values
        if term_rows is not None:
            F = F + term_rows(C, fields)
        elif fields.ndim > 1:
            F = np.broadcast_to(F, fields.shape[:-1] + F.shape)
        P, Z = _full_rows(C, F)
        return (P * Z if weighted else Z), Z

    return evaluate


def _term_rows(terms: list):
    """``rows(C, fields)``, the values of the term of field ``fields[r]`` on
    row ``r`` of the chart rows ``C`` (each of the ``k`` terms on every row,
    ``(k, len(C), d)``, for ``fields`` of shape ``(k, 1)``), or None when no
    field has a term.

    Terms of one class with a ``stack`` class method (the trials of a
    genericity experiment) are evaluated in one call of
    ``stack(terms)(C, fields)``; other terms one field at a time, on its
    block of rows (a phase's rows and labels are sorted), into zeros, so a
    field without a term gets ``+0.0``.
    """
    if all(term is None for term in terms):
        return None
    (kind, *others) = {type(term) for term in terms}
    if not others and hasattr(kind, "stack"):
        return kind.stack(terms)

    def rows(C, fields):
        T = np.zeros(fields.shape[:-1] + C.shape)
        X = np.broadcast_to(C, T.shape).reshape(-1, C.shape[1])
        flat, fields = T.reshape(-1, C.shape[1]), np.broadcast_to(fields, T.shape[:-1]).ravel()
        bounds = np.searchsorted(fields, np.arange(len(terms) + 1))
        for term, lo, hi in zip(terms, bounds[:-1], bounds[1:]):
            if term is not None and hi > lo:
                flat[lo:hi] = term(X[lo:hi])
        return T

    return rows


def _reports(evaluate, newton: tuple, labels: np.ndarray, sigmas, continua: list) -> list:
    """The report on each field of a chunk (scales ``sigmas``, continuum
    reports ``continua``) from the rows of its Newton phases (``newton``;
    ``labels``, the field of each), reading the fields only through the
    chunk's map ``evaluate`` (``_stacked_map``).  Any error raises for the
    whole chunk, which ``_solve`` then solves one field at a time.

    One cover (``_cover``) deduplicates the converged rows of every field,
    the rows that Newton's merge stopped among them.
    The kept zeros, ordered by field, then by chart coordinates, are
    classified from one probe call for all of them (``_classification``).
    Then, per field, a zero whose residual exceeds ``1e-9 sigma`` raises
    that field's error, the flat-zero join evaluates the field, in one call,
    only when two of its critical zeros are within ``JOIN_RADIUS``, and its
    statistics are counted.
    """
    C, res, converged, stalled, exhausted, iterations = newton
    conv = np.flatnonzero(converged)
    kept = conv[_cover(C, res, labels, conv) == conv]
    kept = kept[np.lexsort((*C[kept].T[::-1], labels[kept]))]
    of = labels[kept]
    if kept.size:
        residual, regular, index, multiplicity = _classification(evaluate, C[kept], of, sigmas[of])
    F = len(continua)
    bounds = np.searchsorted(of, np.arange(F + 1))
    starts = np.bincount(labels, minlength=F)
    counts = [np.bincount(labels, a, F) for a in (converged, stalled, exhausted, iterations)]

    def report(t):
        zeros = slice(bounds[t], bounds[t + 1])
        equilibria, joined = [], []
        if zeros.stop > zeros.start:
            r, reg, ind, mult = residual[zeros], regular[zeros], index[zeros], multiplicity[zeros]
            _check_zeros(r, sigmas[t])
            Z = C[kept[zeros]]

            def residuals(X):
                return np.linalg.norm(evaluate(X, np.full(len(X), t))[1], axis=1)

            joined = _join_flat_zeros(residuals, Z, res[kept[zeros]], ~reg, NEWTON_TOL * sigmas[t])
            P = chart_rows_embed(Z[joined])
            equilibria = [
                Equilibrium(
                    price=simplex_point(P[j]),
                    chart=Z[i].copy(),
                    residual=float(r[i]),
                    regularity=REGULAR if reg[i] else CRITICAL,
                    index=int(ind[i]),
                    multiplicity=mult[i],
                )
                for j, i in enumerate(joined)
            ]
        n_converged, stalled_t, exhausted_t, iterations_t = (int(c[t]) for c in counts)
        stats = SolverStats(
            starts=int(starts[t]),
            converged=n_converged,
            stalled=stalled_t,
            exhausted=exhausted_t,
            newton_iterations=iterations_t,
            dedup_merges=n_converged - len(joined),
        )
        return EquilibriumReport(tuple(equilibria), stats, continua[t])

    return [report(t) for t in range(F)]
