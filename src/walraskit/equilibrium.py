"""Locating and classifying the zeros of excess-demand fields.

One pipeline, ``_solve``, does every solve.  It takes a base field and a
list of chart-map terms (``None``, or a perturbation added to the base
chart map), so that each field's chart values are the base's plus its
term, the field that ``perturb`` returns, and evaluates each field once on
the continuum scan grid, a Kuhn lattice of the chart region
(``_interior``), over stacked ``(field, point)`` rows, in one pass
(``_scan_stage``) of the one map that evaluates every row
(``_stacked_map``).  The grid gives the starts (``_starts``): the zero of
the piecewise-linear interpolant of the Newton map in every Freudenthal
simplex that holds one (Scarf's simplicial method), every lattice point
whose residual is least in the box of its neighbours, and the
lowest-residual point of each cluster of its hits (``_hits``).  Damped
Newton iteration in chart coordinates (``_newton_multistart``) runs over
them, merging starts that converge together; a converged start takes only
full steps and stops at the first that does not halve its residual, which
polishes a degenerate zero and stops at a regular one.  Every point Newton
evaluates comes with its central-difference Jacobian stencil
(``_stencil``, ``_newton_points``): an iteration asks the full steps in one
call and the shorter steps, in one call more, only of the starts whose
full step failed, and each start moves with the Jacobian of its new point.
Above one chart dimension, where the scan grid is coarser than
``CONTINUUM_SCAN_POINTS`` along an axis, deflation searches next to every
zero found (``_deflate``): Newton runs again from small offsets of each
zero, on the Newton map times a factor that grows without bound at every
zero of the field found so far, for up to ``DEFLATION_ROUNDS`` rounds, each
from the zeros that the round before found.  A field whose continuum
detector fired is not deflated.  :func:`find_equilibria` is the one-field
case and the genericity experiment the many-field case.

The aggregate excess demand ``z`` of an economy (a field marked
``price_weighted``, with no term) is solved on the price-weighted field
``w = p * z``: it has the same zeros in the open simplex and the same
index signs (``det J_w = prod(p) det J_z`` at a zero), stays bounded at
the faces where ``z`` grows like ``1/p_j``, and is affine in the chart for
constant-scale Cobb-Douglas economies, so its PL zero is the equilibrium.
Convergence is judged on ``|z|`` either way, and other fields, including
perturbed economy fields, are solved on ``z`` itself.  ``_stacked_map``
makes this choice for each chunk of fields and gives the scan, every
Newton phase and probe the full rows of both maps, each row on the field that the
caller names for it.  Every residual threshold is a constant times the
field's scale ``sigma``, the largest finite ``|p * z|`` on the scan grid
(``_scan``), so rescaling every endowment changes no answer.

One rule, ``_cover``, says which converged rows are one zero: Newton's
merge, the deflation rounds and the report step use it.  The
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
``chart_jacobian`` are the one-zero case: each takes its map, chart row and
``sigma`` from one helper (``_one_point``, one scan) and makes one probe
call.  The scan flags clusters of zeros (``continuum_detector``) -- no finite procedure can decide infinitude, so
the detector is a heuristic with documented thresholds.

:func:`find_equilibria` answers an economy in closed form, before any of
this, when every scale is constant and every good has a positive aggregate
scaled endowment (``_closed_form``): its one equilibrium is the positive
null vector of a matrix, from one linear solve, regular with index +1.
Every other input, and an economy whose closed form fails its checks, goes
to the grid pipeline.  ``EquilibriumReport.method`` says which answered,
and ``declined`` why the closed form did not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .consumers import Economy, aed_rows
from .fields import TangentField, _full_rows, as_field
from .geometry import (
    ChartPoint,
    PricePoint,
    _greedy_cover,
    _linked_components,
    _row_sums,
    chart_rows_embed,
    simplex_point,
)
from .scales import ConstantScale

REGULAR = "regular"
CRITICAL = "critical"
# The methods that answer a solve (``EquilibriumReport.method``).
GRID = "grid"
CLOSED_FORM = "closed form"

DET_RELATIVE_TOL = 1e-6
BOUNDARY_MARGIN = 1e-4
MULTIPLICITY_K_MAX = 8

# Newton convergence, also the bound of the in-iteration merge and of the
# flat-zero join's midpoint test, in units of the field's scale ``sigma``.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 60
NEWTON_MAX_HALVINGS = 10
DEDUP_RADIUS = 1e-6
# The deflation phase (``_deflate``): at most this many rounds, each from
# the zeros ``r`` that the round before found, at ``r + s u`` for each step
# ``s``; a deflation row takes at most this many iterations and halvings.
# The shift ``a`` of the factor ``1/|c - r|^2 + a`` makes it nearly flat
# beyond ``1/sqrt(a)`` (a tenth of a chart axis) of every known zero.
DEFLATION_ROUNDS = 3
DEFLATION_STEPS = (1e-3, 1e-2)
DEFLATION_MAX_ITER = 15
DEFLATION_MAX_HALVINGS = 3
DEFLATION_SHIFT = 100.0
JOIN_RADIUS = 1e-4
# Around a zero of order k <= MULTIPLICITY_K_MAX of a field that varies by
# its scale sigma across the chart, |z| <= NEWTON_TOL sigma reaches about
# NEWTON_TOL^(1/k) of it along some axis: at most this far.
DEGENERATE_BAND = NEWTON_TOL ** (1.0 / MULTIPLICITY_K_MAX)
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
    deflated: int


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
    """The zeros of a solve, its solver counts and continuum scan, the
    method that answered (``GRID`` or ``CLOSED_FORM``) and, when the closed
    form did not, why (None for the fields of a genericity experiment)."""

    equilibria: tuple
    stats: SolverStats
    continuum: ContinuumReport
    method: str = GRID
    declined: str | None = None

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
    ``BOUNDARY_MARGIN`` from every face.  The scan grid, every Newton trial
    and every deflation start keep to it."""
    return np.logical_and.reduce(C >= BOUNDARY_MARGIN, axis=-1) & (np.add.reduce(C, axis=-1) <= 1.0 - BOUNDARY_MARGIN)


@lru_cache(maxsize=16)
def _axis(density: int) -> np.ndarray:
    """The coordinates along a chart axis of the lattice of ``density``
    points per axis; read-only, since every caller shares them."""
    axis = np.linspace(BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, density)
    axis.setflags(write=False)
    return axis


@lru_cache(maxsize=16)
def _scan_level(dim: int, density: int) -> tuple:
    """The lattice of ``density`` points per axis in the chart region: its
    chart rows in index order, ``density``, and ``vertex``, the cube of
    lattice indices holding the row of each point (-1 for a point outside
    the region); read-only, since every caller shares them."""
    C = _axis(density)[np.indices((density,) * dim).reshape(dim, -1).T]
    inside = _interior(C)
    vertex = np.where(inside, np.cumsum(inside) - 1, -1).reshape((density,) * dim)
    C = C[inside]
    for a in (C, vertex):
        a.setflags(write=False)
    return C, density, vertex


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

    residual = _norms(_full_rows(C, V[:, 0])[1])
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
    return _difference_quotient(W[..., :-1], np.float64(JACOBIAN_STEP))


def _norms(V: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(V, axis=-1)`` to the bit, without its checks."""
    return np.sqrt(_row_sums(V * V))


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
    zres = None if W is Z else _norms(Z[::per])  # the map may be the field
    W = W.reshape(m, per, d + 1)
    res = _norms(W[:, 0])
    finite = np.isfinite(res)
    J = _jacobians(W[:, 1:]) if finite.all() else np.zeros((m, d, d))
    if not finite.all():
        J[finite] = _jacobians(W[finite, 1:])
    return W[:, 0, :-1], res, res if zres is None else zres, J


def _newton_multistart(
    evaluate, starts: np.ndarray, tol, labels: np.ndarray, max_iter=NEWTON_MAX_ITER, max_halvings=NEWTON_MAX_HALVINGS
):
    """Damped Newton from every start row, as one batch.

    ``evaluate(C, rows)`` returns the full rows of the Newton map and of the
    field at the rows of ``C``; row ``k`` of ``C`` is an iterate of start
    ``rows[k]``, and ``rows`` is non-decreasing.  Each row
    follows its own iteration and carries one state: its point, the Newton
    map's chart values there, the residual norms, and the central-difference
    Jacobian of the Newton map there.  Newton steps on the map; convergence
    is judged on the field, ``|z| <= tol`` (one bound, or one per row).

    A step tries ``C - lambda * delta`` for ``lambda = 1, 1/2, ...,
    2**-max_halvings`` and takes the first trial inside the boundary
    margin that cuts the residual by ``1 - lambda / 2`` (backtracking).  A
    converged row, ``|z| <= tol``, tries the full step ``lambda = 1`` only,
    and takes it when it at least halves the residual.  A row stops when
    no step size it tries improves its residual, when the step no longer
    moves the point (as a singular Jacobian's zero step does), or after
    ``max_iter`` iterations.

    Every point is evaluated with its ``2d`` Jacobian stencil rows
    (``_newton_points``), the starts in the first call and each iteration
    in one or two more (``_damped_step``), so every iteration starts from a
    known Jacobian.  Every iterate, Jacobian and step has the bits that a
    call of its own would give, since a row gets the same bits in any batch.

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

    for _ in range(max_iter):
        _merge_converged(C, zres, active, tol, labels)
        idx = active.nonzero()[0]
        if idx.size == 0:
            break
        iterations += active
        took = _damped_step(evaluate, idx, state, (zres <= tol)[idx], max_halvings)
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
    if solvable.all():
        return np.linalg.solve(J, G[..., None])[..., 0]
    delta = np.zeros_like(G)
    delta[solvable] = np.linalg.solve(J[solvable], G[solvable][..., None])[..., 0]
    return delta


def _damped_step(evaluate, rows, state: tuple, converged: np.ndarray, halvings: int):
    """One damped Newton step (``_newton_multistart``) from each of ``rows``
    of the iterates ``state``, their points ``C``, the Newton map's chart
    values ``G``, residuals ``res`` and ``zres`` and Jacobians ``J``, which
    it updates in place on the rows that accept a trial and returns: one
    call for the full steps ``C - J^-1 G`` (``_newton_direction``) and, when
    there are any, one for the shorter steps (``_STEP_SIZES``) of the rows
    whose full step failed and that have not ``converged``.  A row's trials
    end before the first that rounds to its point, and one outside the
    boundary margin is not asked.
    """
    C = state[0][rows]
    delta = _newton_direction(state[4][rows], state[1][rows])
    full = C - delta
    moves = np.logical_or.reduce(full != C, axis=1)
    hit = np.zeros(len(rows), dtype=bool)
    i = (moves & _interior(full)).nonzero()[0]
    _accept(evaluate, rows, state, hit, i, full[i], 0)
    i = (moves & ~(hit | converged)).nonzero()[0]
    if i.size and halvings:
        T = C[i, None, :] - _STEP_SIZES[1 : halvings + 1, None] * delta[i, None, :]
        # No shorter step moves a point that a longer one leaves in place.
        k, j = (np.logical_and.accumulate((T != C[i, None, :]).any(axis=2), axis=1) & _interior(T)).nonzero()
        _accept(evaluate, rows, state, hit, i[k], T[k, j], j + 1)
    return rows[hit]


def _accept(evaluate, rows, state: tuple, hit: np.ndarray, i: np.ndarray, X: np.ndarray, j) -> None:
    """``_damped_step``'s call for the trials ``X`` of ``rows[i]`` at step ``j``."""
    if not i.size:
        return
    at = rows[i]
    out = _newton_points(evaluate, X, at)
    ok = (out[1] <= _ACCEPT[j] * state[2][at]).nonzero()[0]
    if np.ndim(j) and ok.size:  # a row with several trials takes its first
        ok = ok[np.concatenate(([True], i[ok][1:] != i[ok][:-1]))]
    if ok.size < i.size:
        i, at, X, out = i[ok], at[ok], X[ok], [v[ok] for v in out]
    for a, v in zip(state, (X, *out)):
        a[at] = v
    hit[i] = True


def _merge_converged(C, zres, active, tol, labels: np.ndarray) -> None:
    """Stop, where they are, the iterating rows that are converged and
    claimed by another such row (``_cover``): a stopped row keeps its own
    point and residual, and the report step's cover claims it again.  The
    cover runs only when two are within ``DEDUP_RADIUS`` on the first axis."""
    cand = (active & (zres <= tol)).nonzero()[0]
    x = np.sort(C[cand, 0])
    if np.logical_or.reduce(x[1:] - x[:-1] <= 2.0 * DEDUP_RADIUS):
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
    fields (``_cover``'s and 1.5 scan spacings)."""
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
            linked[linked] = _one_flat_zero(residuals, Z[a], Z[b], tol)
        return linked

    return np.sort(_lowest_per_label(_linked_components(Z, JOIN_RADIUS, flat), res))


def _one_flat_zero(residuals, A: np.ndarray, B: np.ndarray, tol) -> np.ndarray:
    """Whether the zeros ``A[k]`` and ``B[k]`` are one flat zero: their
    midpoint is a zero, ``residuals(midpoints)``, the field's ``|z|``, at
    most ``tol`` (one bound, or one per pair), from one call."""
    return residuals(0.5 * (A + B)) <= tol


def _lowest_per_label(labels: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Position of the lowest-residual row of each label, in label order
    (the first such row on ties)."""
    order = np.argsort(res, kind="stable")
    return order[np.unique(labels[order], return_index=True)[1]]


def _check_zeros(residual: np.ndarray, sigma: float) -> None:
    """Raise ``ValueError``, naming the first, when a residual of zeros of a
    field of scale ``sigma`` exceeds ``1e-9 * sigma`` or is NaN."""
    bad = ~(residual <= 1e-9 * sigma)
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


def _one_point(field_or_economy, c) -> tuple:
    """The probe arguments of a one-point call at ``c``: the field's map
    (``_stacked_map``), the chart row ``(1, d)`` of ``c`` (a price point, a
    ``ChartPoint`` or raw coordinates, which ``ChartPoint`` checks), its
    label and ``sigma``, from one evaluation of the scan grid (``_scan``)."""
    field = as_field(field_or_economy)
    if isinstance(c, PricePoint):
        C = c.simplex_coords()[None, :-1]
    else:
        C = (c if isinstance(c, ChartPoint) else ChartPoint(c)).coords[None, :]
    return _stacked_map(field, [None]), C, np.zeros(1, dtype=int), _scan(field)[0]


def classify(field_or_economy, p):
    """Regularity and local index of a zero of the field.

    Returns ``("regular", +-1)`` when the chart Jacobian is well conditioned
    with a clearly nonzero determinant, and ``("critical", 0)`` otherwise
    (including when the finite-difference Jacobian is step-size dependent).
    Raises ``ValueError`` when ``p`` is not a zero.  This is the one-point
    case of the rows core that classifies every zero of a solver report; it
    evaluates the field on the scan grid, for ``sigma``, and on the probe rows.
    """
    evaluate, C, labels, sigma = _one_point(field_or_economy, p)
    residual, regular, index, _ = _classification(evaluate, C, labels, sigma)
    _check_zeros(residual, sigma)
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
    evaluate, C, labels, sigma = _one_point(field, p)
    residual, *_, multiplicity = _classification(evaluate, C, labels, sigma)
    _check_zeros(residual, sigma)
    return multiplicity[0]


def chart_jacobian(field_or_economy, c) -> np.ndarray:
    """Central-difference Jacobian of a field's chart map at chart point ``c``.

    Two estimates at steps ``h = 1e-6`` and ``h/2`` are
    compared; a disagreement above ``1e-4`` relative plus ``1e-12 sigma``
    raises :class:`JacobianConsistencyError`.  This is the one-point case of
    the probe that classifies zeros, and evaluates the field twice.
    """
    _, J, consistent, _ = _probe(*_one_point(field_or_economy, c))
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
    """The continuum scan grid (``_scan_level``); ``ValueError``
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
    wres = _norms(chart_rows_embed(C) * Z)
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
    hit = _norms(Z) <= CONTINUUM_RESIDUAL_TOL * sigmas[labels]
    return hit, _linked_components(_apart(C[hit], labels[hit]), 1.5 * spacing)


def _starts(W: np.ndarray, hit: np.ndarray, clusters: np.ndarray) -> tuple:
    """The Newton starts of a chunk of fields, and the field of each start
    (non-decreasing), from the full rows ``W`` of their Newton map on the
    scan grid, field by field, its hits (``|z| <= CONTINUUM_RESIDUAL_TOL *
    sigma``) and their clusters (``_scan_stage``): the PL zeros of the grid
    (``_pl_zeros``), its minima and the lowest-residual point of each
    cluster of its hits, so a flat stretch of zeros gives one start, not one
    per cell.  A zero on a face that simplices share is found in each;
    Newton merges such starts.  Hits are neither simplex vertices nor
    minima.

    A point ``v`` is a minimum when its residual is finite and at most that
    of every point ``v + b``, ``b`` in ``{-1, 0, 1}^d``, of the grid.  In one
    dimension these are its Freudenthal neighbours ``v +- e_1``; in more, the
    box also holds the points ``v + b`` whose ``b`` mixes signs, along which
    a trough's floor descends.
    """
    d = W.shape[1] - 1
    C, n, vertex = _scan_grid(d)
    F = len(W) // len(C)
    # The grid of each field is one cube of its rows, stacked field by field.
    vertex = np.where(vertex >= 0, vertex + len(C) * np.arange(F).reshape((F,) + (1,) * d), -1)
    res = _norms(W)
    finite = np.isfinite(res)
    # Row -1 stands for a lattice point with no row: no values, no residual.
    G = np.vstack([np.where((finite & ~hit)[:, None], W[:, :-1], np.nan), np.full(d, np.nan)])
    R = np.append(np.where(finite, res, np.inf), np.inf)[vertex]

    box = np.full((F,) + (n + 2,) * d, np.inf)
    box[(slice(None),) + (slice(1, -1),) * d] = R
    least = _over_cells(np.minimum, _over_cells(np.minimum, box))
    minima = vertex[np.isfinite(R) & (R <= least)]  # ascending, as the cube's rows
    minima = minima[~hit[minima]]
    field, zeros = _pl_zeros(G, vertex, _axis(n))
    rep = np.flatnonzero(hit)[_lowest_per_label(clusters, res[hit])]
    labels = np.concatenate([field, minima // len(C), rep // len(C)])
    order = np.argsort(labels, kind="stable")
    return np.vstack([zeros, C[minima % len(C)], C[rep % len(C)]])[order], labels[order]


def _over_cells(op, X: np.ndarray, lead: int = 1) -> np.ndarray:
    """``op`` over the corners of every cell of each cube of ``X`` (its axes
    after the first ``lead``): entry ``k`` combines the entries ``k + b``,
    ``b`` in ``{0, 1}^d``."""
    for a in range(lead, X.ndim):
        X = op(X[(slice(None),) * a + (slice(0, -1),)], X[(slice(None),) * a + (slice(1, None),)])
    return X


def _sign_screen(G: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """The cells of each cube (``_pl_zeros``'s layout) in which every
    component takes both signs at the corners that have a value; only they
    can hold a zero of the interpolant."""
    signs = np.ascontiguousarray(np.concatenate([G >= 0.0, G <= 0.0], axis=1).T)
    return reduce(np.logical_and, _over_cells(np.logical_or, np.take(signs, vertex, axis=1), 2))


def _pl_zeros(G: np.ndarray, vertex: np.ndarray, axis: np.ndarray) -> tuple:
    """The zeros of the piecewise-linear interpolant of the chart values
    ``G`` (rows, NaN where there is none) in the closed Freudenthal
    simplices whose vertices all have values, and the field of each, in
    field, cell and permutation order.

    ``vertex`` stacks one cube of lattice indices per field: entry ``j`` of
    field ``q`` is the lattice point ``j``, at chart coordinates
    ``axis[j]``, whose values are row ``vertex[q, j]`` of ``G``.  The
    simplex of permutation ``p`` in the cell with corner ``k`` has vertices
    ``k``, ``k + e_p1``, ..., ``k + 1``.
    """
    d = G.shape[1]
    screen = _sign_screen(G, vertex)  # np.argwhere, whose 2-d nonzero is slow:
    cells = np.column_stack(np.unravel_index(screen.ravel().nonzero()[0], screen.shape))
    # Vertex j of permutation p steps along the axes p_1, ..., p_j.
    paths = np.arange(d + 1)[:, None] > np.argsort(list(permutations(range(d))), axis=1)[:, None, :]
    V = (cells[:, None, None, 1:] + paths).reshape(-1, d + 1, d)
    field = np.repeat(cells[:, 0], len(paths))
    # Barycentric weights lam: sum(lam) = 1 and sum(lam_j G(v_j)) = 0.
    values = G[vertex[(field[:, None], *V.transpose(2, 0, 1))]].swapaxes(1, 2)
    whole = ~np.isnan(values).any(axis=(1, 2))
    V, values, field = V[whole], values[whole], field[whole]
    A = np.concatenate([np.ones((len(V), 1, d + 1)), values], axis=1)
    det = np.linalg.det(A)
    solvable = np.isfinite(det) & (det != 0.0)
    V, A, field = V[solvable], A[solvable], field[solvable]
    lam = np.linalg.solve(A, np.eye(d + 1)[:, :1])[..., 0]
    inside = (lam >= 0.0).all(axis=1)
    return field[inside], np.einsum("kj,kji->ki", lam[inside], axis[V[inside]])


def find_equilibria(field_or_economy) -> EquilibriumReport:
    """Locate, deduplicate, and classify the zeros of an excess-demand field.

    An economy with constant scales only, every good of which has a
    positive aggregate scaled endowment, is answered in closed form
    (``_closed_form``): one linear solve, no field evaluated on a grid.
    Every other input, and such an economy whose closed form fails its
    checks, goes to the grid pipeline, and the report's ``declined`` says
    why.

    The grid is the one-field case of the solve pipeline: the continuum
    scan gives ``sigma`` and ``finite_flag``; damped Newton iteration runs
    from the starts found on the scan grid (``_starts``) and, above one
    chart dimension and unless the continuum detector fired, from the
    deflation starts next to every zero found (``_deflate``; the report's
    ``starts`` count both, ``deflated`` the second), and stays in
    the chart region ``BOUNDARY_MARGIN`` from every face, on ``p * z``
    for an economy's field and on the field itself otherwise; points with
    ``|z| <= NEWTON_TOL * sigma`` are merged within ``1e-6`` and classified in
    one call, and critical zeros within ``1e-4`` whose midpoint is a zero are
    joined (both merges counted in ``dedup_merges``).  Non-convergence of
    individual starts is reported in the statistics; the field's errors raise.
    """
    if isinstance(field_or_economy, Economy):
        report, declined = _closed_form(field_or_economy)
        if report is not None:
            return report
    else:
        declined = "the input is a field, not an economy"
    report = _solve(as_field(field_or_economy), [None])[0]
    if isinstance(report, Exception):
        raise report
    return replace(report, declined=declined)


def _closed_form(e: Economy) -> tuple:
    """``(report, None)``, the closed-form report of the economy ``e``, or
    ``(None, reason)`` when the closed form declines.  It never raises.

    With constant scales ``t_c``, coordinate ``j`` of ``p * z(p)`` is
    ``(M p)_j`` with ``M = sum_c t_c (alpha_c omega_c^T - diag omega_c)``, so
    the equilibria are the positive null vectors of ``M``.  ``Consumer``
    makes every share ``alpha_cj`` positive.  When every good ``k`` has a
    positive aggregate scaled endowment ``sum_c t_c omega_ck``, some consumer
    holds it, so every off-diagonal entry ``M_jk = sum_c t_c alpha_cj
    omega_ck`` is positive: ``M`` is an irreducible Metzler matrix, and
    ``1^T M = 0`` since every consumer's shares sum to one.  A positive left
    eigenvector belongs to the Perron eigenvalue, so 0 is that eigenvalue
    (Perron-Frobenius): it is simple, with a positive eigenvector ``v``.
    Excess demand then has strict gross substitutes, and ``v`` is the unique
    equilibrium, regular with index +1 (Arrow, Block & Hurwicz 1959).  The
    rows of ``M`` sum to zero, so its first ``l - 1`` rows have its null
    space, and the bordered system ``[M[:-1]; 1^T] p = e_l`` is nonsingular:
    its solution is ``v`` scaled to sum to one.  It is solved by LU, then
    one step of iterative refinement, which gives a price near a face, such
    as 1e-6, to its last bits where the first solve was off in the 11th
    digit.

    The price is checked, not trusted: it must be positive, and its
    residual ``|z|`` at most ``1e-9 sigma`` (``_check_zeros``), with
    ``sigma = max_j |M e_j|``, the largest ``|p * z|`` on the closed
    simplex, which scales with the endowments as ``|z|`` does.  A failed
    check declines, so the grid answers instead.
    """
    varying = [k for k, c in enumerate(e.consumers) if not isinstance(c.scale, ConstantScale)]
    if varying:
        return None, f"the scale of consumer {varying[0]} is not constant"
    t, shares, endowments = e.constant_scales, e.shares, e.endowments
    total = t @ endowments
    if not (total > 0.0).all():
        return None, f"good {np.argmin(total > 0.0)} has no aggregate endowment"
    with np.errstate(all="ignore"):
        M = np.einsum("c,cj,ck->jk", t, shares, endowments) - np.diag(total)
        B, b = np.vstack([M[:-1], np.ones(e.goods)]), np.eye(e.goods)[-1]
        try:
            p = np.linalg.solve(B, b)
            p = p + np.linalg.solve(B, b - B @ p)
        except np.linalg.LinAlgError:
            return None, "the bordered system is singular"
        C = p[None, :-1]
        P = chart_rows_embed(C)
        if not ((p > 0.0) & (P > 0.0) & (P < np.inf)).all():
            return None, "a price of the null vector is not positive"
        residual = _norms(_full_rows(C, aed_rows(e, P)[:, :-1])[1])
        sigma = np.linalg.norm(M, axis=0).max()
    try:
        _check_zeros(residual, sigma)
    except ValueError as exc:
        return None, f"the null vector failed its check: {exc}"
    eq = Equilibrium(
        price=simplex_point(P[0]),
        chart=C[0].copy(),
        residual=float(residual[0]),
        regularity=REGULAR,
        index=1,
        multiplicity=1 if e.goods == 2 else None,
    )
    return EquilibriumReport((eq,), SolverStats(0, 0, 0, 0, 0, 0, 0), ContinuumReport(False, None, 0), CLOSED_FORM), None


def _solve(base: TangentField, terms: list, grid: tuple | None = None) -> list:
    """The report of ``base`` plus each chart-map term (``None``: no term),
    or the exception that its solve raised.

    The base is evaluated once on the scan grid (``grid``, from
    ``_base_grid``, is that evaluation when the caller has made it), which
    raises when it fails, as every field would.  The fields are solved in
    chunks of ``MAX_STARTS // scan points`` fields.  A chunk is scanned in
    one pass (``_scan_stage``), for ``sigma`` and the starts (``_starts``),
    and one Newton phase runs over the stacked starts of all its fields,
    reading the chunk's map (``_stacked_map``) on the field of each start.
    Above one chart dimension, where the scan grid is coarser than the
    ``CONTINUUM_SCAN_POINTS`` points of a two-good one, the deflation phase
    appends its rows (``_deflate``) on every field whose continuum detector
    did not fire.  One report step reads the rows of both (``_reports``):
    one cover, and one probe call for the zeros of every field.  One rule
    holds for failure: a chunk of several fields whose scan, Newton phases
    or report step raise is solved again one field at a time, and a chunk
    of one field records the exception.
    """
    grid = _base_grid(base) if grid is None else grid
    scan_grid = grid[0]
    chunk = max(1, MAX_STARTS // len(scan_grid))
    outcomes = []
    for first in range(0, len(terms), chunk):
        group = terms[first : first + chunk]
        try:
            evaluate = _stacked_map(base, group)
            sigmas, W, hit, clusters, reports = _scan_stage(evaluate, grid, len(group))

            def phase(X, labels, factor=None, **caps):
                def newton_map(C, rows):
                    W, Z = evaluate(C, labels[rows])
                    return (W if factor is None else W * factor(C, labels[rows])[:, None]), Z

                return _newton_multistart(newton_map, X, NEWTON_TOL * sigmas[labels], labels, **caps)

            def residuals(X, fields):
                return _norms(evaluate(X, fields)[1])

            starts, labels = _starts(W, hit, clusters)
            searched = np.array([base.dim > 1 and not r.fired for r in reports])
            newton = _deflate(phase, residuals, NEWTON_TOL * sigmas, phase(starts, labels), labels, searched)
            outcomes += _reports(evaluate, *newton, sigmas, reports)
        except Exception as exc:  # noqa: BLE001 - each field then records its own error
            outcomes += [exc] if len(group) == 1 else [_solve(base, [t], grid)[0] for t in group]
    return outcomes


def _deflate(phase, residuals, tol: np.ndarray, newton, labels, searched) -> tuple:
    """The Newton phase ``newton`` over rows of the fields ``labels``, with
    the rows of up to ``DEFLATION_ROUNDS`` deflation rounds appended, the
    field of every row, and which rows are the rounds'.

    A round is one more ``phase``.  It starts at ``r + s u``
    (``_deflation_starts``) around each zero ``r`` of a ``searched`` field
    (one row per ``_cover`` claim) that the round before found, the first
    round around the zeros of ``newton``, and its Newton map is the field's
    times ``prod_i (1/|c - r_i|^2 + DEFLATION_SHIFT)`` over the zeros
    ``r_i`` of the field found so far (``_deflation``; Brown & Gearhart
    1971, Farrell, Birkisson & Funke 2015).  Near each ``r_i`` that map
    grows like ``1/|c - r_i|``, so Newton leaves it for a zero not yet
    found, or fails; convergence is still judged on the field, ``|z| <=
    tol`` (one bound per field).  Beyond about ``1/sqrt(DEFLATION_SHIFT)``
    of the known zeros the factor is nearly flat, so a step there that
    lowers the deflated residual lowers ``|z|`` too, and a row with no zero
    ahead stalls there instead of running on to its cap.  A deflation row
    takes at most ``DEFLATION_MAX_ITER`` iterations of at most
    ``DEFLATION_MAX_HALVINGS`` halvings.  The factor does not repel Newton
    from a zero of multiplicity above two, and around such a zero every
    point within ``DEGENERATE_BAND`` of it may meet the tolerance: a
    converged row within that band of the nearest zero of its field that is
    one flat zero with it (``_one_flat_zero``, the rule of the flat-zero
    join, from one call of ``residuals(X, fields)``, the field's ``|z|``)
    has come back to that zero, so it counts as stalled.  The rounds stop
    after the first that finds no new zero, a claim whose rows are all of
    that round.
    """
    caps = {"max_iter": DEFLATION_MAX_ITER, "max_halvings": DEFLATION_MAX_HALVINGS}
    deflated = np.zeros(len(labels), dtype=bool)
    C, zres, converged = newton[:3]
    new = np.flatnonzero(converged & searched[labels])
    new = zeros = new[_cover(C, zres, labels, new) == new]
    for _ in range(DEFLATION_ROUNDS):
        X, of = _deflation_starts(C[new], labels[new])
        if not len(X):
            break
        more = phase(X, of, _deflation(C[zeros], labels[zeros]), **caps)
        got = np.flatnonzero(more[2])
        if got.size:
            K = _apart(C[zeros], labels[zeros])
            near = zeros[np.square(_apart(more[0][got], of[got])[:, None, :] - K).sum(axis=2).argmin(axis=1)]
            close = _norms(more[0][got] - C[near]) <= DEGENERATE_BAND
            got, near = got[close], near[close]
        if got.size:
            fields = of[got]
            back = got[_one_flat_zero(lambda M: residuals(M, fields), more[0][got], C[near], tol[fields])]
            more[2][back], more[3][back] = False, True
        first = len(labels)
        newton = tuple(map(np.concatenate, zip(newton, more)))
        labels, deflated = np.concatenate([labels, of]), np.append(deflated, np.ones(len(of), dtype=bool))
        C, zres, converged = newton[:3]
        conv = np.flatnonzero(converged & searched[labels])
        owner = _cover(C, zres, labels, conv)
        zeros = conv[owner == conv]
        new = zeros[(zeros >= first) & ~np.isin(zeros, owner[conv < first])]
    return newton, labels, deflated


def _deflation_starts(R: np.ndarray, of: np.ndarray) -> tuple:
    """The starts ``r + s u`` around each zero ``r`` of ``R``, of the field
    ``of`` (non-decreasing), for each step ``s`` of ``DEFLATION_STEPS`` and
    each direction ``u`` of ``+-e_k`` and, above one chart dimension,
    ``+-(1, ..., 1)/sqrt(d)``, that lie in the chart region, and the field
    of each."""
    d = R.shape[1]
    U = np.vstack([np.eye(d), -np.eye(d)] + ([np.full((2, d), d**-0.5) * [[1.0], [-1.0]]] if d > 1 else []))
    offsets = (np.asarray(DEFLATION_STEPS)[:, None, None] * U).reshape(-1, d)
    X = (R[:, None, :] + offsets).reshape(-1, d)
    of = np.repeat(of, len(offsets))
    inside = _interior(X)
    return X[inside], of[inside]


def _deflation(R: np.ndarray, of: np.ndarray):
    """``factor(C, fields)``: ``prod_i (1/|c - r_i|^2 + DEFLATION_SHIFT)``
    at each row ``c`` of ``C`` over the zeros ``r_i`` of ``R`` whose field
    ``of`` is that row's ``fields`` entry.  Each row multiplies its field's
    zeros in one order, padded with factors of exactly 1, so a row gets the
    same bits in any batch."""
    order = np.argsort(of, kind="stable")
    R, of = R[order], of[order]
    rank = np.arange(len(of)) - np.searchsorted(of, of)
    P = np.full((of[-1] + 1, rank.max() + 1, R.shape[1]), np.nan)
    P[of, rank] = R

    def factor(C, fields):
        T = 1.0 / np.square(C[:, None, :] - P[fields]).sum(axis=2) + DEFLATION_SHIFT
        T[np.isnan(T)] = 1.0
        f = T[:, 0]
        for k in range(1, T.shape[1]):
            f = f * T[:, k]
        return f

    return factor


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


def _reports(evaluate, newton: tuple, labels: np.ndarray, deflated: np.ndarray, sigmas, continua: list) -> list:
    """The report on each field of a chunk (scales ``sigmas``, continuum
    reports ``continua``) from the rows of its Newton phases (``newton``;
    ``labels``, the field of each; ``deflated``, which rows are those of the
    deflation phase), reading the fields only through the
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
    counts = [np.bincount(labels, a, F) for a in (converged, stalled, exhausted, iterations, deflated)]

    def report(t):
        zeros = slice(bounds[t], bounds[t + 1])
        equilibria, joined = [], []
        if zeros.stop > zeros.start:
            r, reg, ind, mult = residual[zeros], regular[zeros], index[zeros], multiplicity[zeros]
            _check_zeros(r, sigmas[t])
            Z = C[kept[zeros]]

            def residuals(X):
                return _norms(evaluate(X, np.full(len(X), t))[1])

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
        n_converged, stalled_t, exhausted_t, iterations_t, deflated_t = (int(c[t]) for c in counts)
        stats = SolverStats(
            starts=int(starts[t]),
            converged=n_converged,
            stalled=stalled_t,
            exhausted=exhausted_t,
            newton_iterations=iterations_t,
            dedup_merges=n_converged - len(joined),
            deflated=deflated_t,
        )
        return EquilibriumReport(tuple(equilibria), stats, continua[t])

    return [report(t) for t in range(F)]
