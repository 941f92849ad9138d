"""Finite-data revealed-preference checks.

Given observations ``(p^k, x^k)`` of prices and chosen bundles, bundle
``x^i`` is weakly revealed preferred to ``x^j`` when ``p^i . x^j <= p^i . x^i``
(``x^j`` was affordable when ``x^i`` was chosen).  The Strong Axiom of
Revealed Preference requires this relation to be acyclic over distinct
bundles; utility-maximising behaviour implies it, so a violating cycle is a
certificate that no single consumer generated the data.  Observations whose
bundles agree within ``DISTINCT_TOL`` form one group; the cycle is searched
over groups, and each step ``a -> b`` of a reported cycle names the
lowest-indexed observation of group ``a`` whose price reveals a bundle of
group ``b``, so every edge of the witness can be checked on the raw data.

Both tolerances are free of units.  A tie counts as affordable within
``TIE_TOL`` of the observation's own spending, ``p^i . x^j <= (1 + TIE_TOL)
p^i . x^i``, and bundles are compared in units of each good's largest
observed amount.  Rescaling all bundles, the prices of one observation, or
the unit of one good (``x_j * s`` with ``p_j / s``) changes neither the
verdict nor the cycle.

For ``T`` observations the check costs one ``T x T`` product ``P X^T`` and a
few dense passes over the ``T x T`` relation: a ball count groups the
bundles, an OR-reduction by group gives the group relation (the relation
itself when no bundle repeats), and a mutual pair, if any, is the cycle.
Otherwise the nodes without an incoming edge are peeled level by level; an
empty remainder proves the relation acyclic, and the strong-component
search and the BFS for the shortest cycle run on the remainder only.

Positive rescalings of an individual excess-demand field preserve the
properties a consumer's excess demand must have; ``scaled_field_audit``
verifies the checkable ones (Walras' law, the endowment lower bound, strict
positivity of the scaling) on price samples, within ``WALRAS_TOL`` of the
scaled wealth ``scale(p) * p . omega`` at each sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .consumers import Consumer, demand_rows
from .geometry import PricePoint, _greedy_cover

TIE_TOL = 1e-10
DISTINCT_TOL = 1e-10
WALRAS_TOL = 1e-9


@dataclass(frozen=True)
class ObservationDataset:
    """Paired price and bundle observations, stored as ``(T, l)`` arrays."""

    prices: np.ndarray
    bundles: np.ndarray

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.prices, dtype=float))
        X = np.atleast_2d(np.asarray(self.bundles, dtype=float))
        if P.shape != X.shape or P.shape[0] < 1:
            raise ValueError("prices and bundles must be equal-shape (T, l) arrays")
        if not (np.all(np.isfinite(P)) and np.all(np.isfinite(X))):
            raise ValueError("observed prices and bundles must be finite")
        if np.any(P <= 0.0):
            raise ValueError("observed prices must be strictly positive")
        if np.any(X < 0.0):
            raise ValueError("observed bundles must be non-negative")
        P = P.copy()
        X = X.copy()
        P.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "prices", P)
        object.__setattr__(self, "bundles", X)

    @property
    def size(self) -> int:
        return self.prices.shape[0]

    @property
    def goods(self) -> int:
        return self.prices.shape[1]


@dataclass(frozen=True)
class SarpResult:
    passed: bool
    cycle: tuple | None = None   # observation indices i1 -> i2 -> ... -> i1

    def __bool__(self) -> bool:
        return self.passed


def preference_matrix(d: ObservationDataset):
    """Weak revealed preference between distinct-bundle groups.

    Returns ``(adj, groups, weak)``: a boolean adjacency matrix over bundle
    groups (same-bundle pairs excluded), the group index of each
    observation, and the ``(T, T)`` observation relation ``weak[i, j]``
    (``x^i`` weakly revealed preferred to ``x^j``).  Groups are numbered in
    the order of their lowest-indexed observation.
    """
    P, X = d.prices, d.bundles
    spend_own = np.einsum("ij,ij->i", P, X)
    spend_cross = P @ X.T                   # [i, j] = p^i . x^j
    weak = spend_cross <= (1.0 + TIE_TOL) * spend_own[:, None]
    top = X.max(axis=0)
    unit = X / np.where(top > 0.0, top, 1.0)
    owner = _greedy_cover(unit, np.arange(d.size), DISTINCT_TOL, p=np.inf)
    reps, groups = np.unique(owner, return_inverse=True)
    if reps.size == d.size:
        adj = weak.copy()
    else:
        # OR over the rows, then the columns, of each group's block.
        order = np.argsort(groups, kind="stable")
        first = np.searchsorted(groups[order], np.arange(reps.size))
        rows = np.logical_or.reduceat(weak[order], first, axis=0)
        adj = np.logical_or.reduceat(rows[:, order], first, axis=1)
    np.fill_diagonal(adj, False)
    return adj, groups, weak


def _find_cycle(adj: np.ndarray) -> list[int] | None:
    """A directed cycle in the adjacency matrix (empty diagonal), or None.

    Returns the node sequence without the closing node: the first mutually
    preferring pair if there is one, else a shortest cycle through the
    lowest node of a strong component with two or more nodes.
    """
    mutual = adj & adj.T
    paired = mutual.any(axis=1)
    if paired.any():
        # ``mutual`` is symmetric, so the first row with an entry holds the
        # first pair of its upper triangle.
        i = int(np.argmax(paired))
        return [i, int(np.argmax(mutual[i]))]
    # Peel the nodes with no incoming edge, level by level: they lie on no
    # cycle, and no remaining node reaches them.
    indegree = adj.sum(axis=0, dtype=np.int32)
    sources = np.flatnonzero(indegree == 0)
    while sources.size:
        indegree[sources] = -1
        indegree -= adj[sources].sum(axis=0, dtype=np.int32)
        sources = np.flatnonzero(indegree == 0)
    rest = np.flatnonzero(indegree > 0)
    if rest.size == 0:
        return None
    sub = adj[np.ix_(rest, rest)]
    graph = csr_matrix(sub)
    _, labels = connected_components(graph, directed=True, connection="strong")
    cyclic = np.flatnonzero(np.bincount(labels)[labels] >= 2)
    start = int(cyclic[0])
    order, pred = breadth_first_order(graph, start, return_predecessors=True)
    cycle = [int(order[sub[order, start]][0])]
    while cycle[-1] != start:
        cycle.append(int(pred[cycle[-1]]))
    return rest[cycle[::-1]].tolist()


def sarp_check(d: ObservationDataset) -> SarpResult:
    """Check the Strong Axiom of Revealed Preference on a dataset.

    Passes when the weak revealed-preference digraph over distinct bundles is
    acyclic; otherwise returns one witnessing cycle of observation indices.
    For each step ``a -> b`` of the cycle over bundle groups, the witness
    names the lowest-indexed observation of group ``a`` whose price reveals
    a bundle of group ``b``, so ``p^i . x^j <= p^i . x^i`` holds (within the
    tie and bundle tolerances) for every consecutive pair ``i, j``.
    Permuting the observations never changes the verdict.
    """
    if d.size == 1:
        return SarpResult(True)
    adj, groups, weak = preference_matrix(d)
    cycle = _find_cycle(adj)
    if cycle is None:
        return SarpResult(True)
    witness = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows = np.flatnonzero(groups == a)
        carries = weak[np.ix_(rows, groups == b)].any(axis=1)
        witness.append(int(rows[carries][0]))
    return SarpResult(False, tuple(witness))


@dataclass(frozen=True)
class AuditReport:
    samples: int
    max_walras_violation: float
    lower_bound_violations: int
    nonpositive_scale_samples: tuple
    passed: bool


def scaled_field_audit(c: Consumer, prices: list[PricePoint]) -> AuditReport:
    """Audit a positively scaled excess demand on price samples.

    Checks, at every sample: the scaling is finite and strictly positive
    (samples where it is not are flagged and skipped), the scaled field
    satisfies Walras' law, and each component respects the lower bound
    ``scale(p) * (-omega_i)`` that any excess demand of a consumer endowed
    with ``omega`` obeys.  Both hold within ``WALRAS_TOL`` (1e-9) times the
    scaled wealth ``scale(p) * p . omega`` of the sample, so the verdict does
    not depend on the units of the endowment.  ``max_walras_violation`` is
    the largest ``|p . z|`` itself.
    """
    if not prices:
        raise ValueError("at least one sample price is required")
    P = np.vstack([p.simplex_coords() for p in prices])
    scale = np.asarray(c.scale(P / P.sum(axis=1, keepdims=True)), dtype=float)
    good = (scale > 0.0) & (scale < np.inf)
    flagged = tuple(int(i) for i in np.flatnonzero(~good))

    max_walras = 0.0
    walras_held = True
    bound_violations = 0
    if good.any():
        Z = scale[good, None] * (demand_rows(c, P[good]) - c.endowment)
        walras = np.abs(np.einsum("ij,ij->i", P[good], Z))
        max_walras = float(walras.max())
        slack = WALRAS_TOL * scale[good] * (P[good] @ c.endowment)
        walras_held = bool(np.all(walras <= slack))
        lower = -scale[good, None] * c.endowment
        bound_violations = int(np.any(Z < lower - slack[:, None], axis=1).sum())

    passed = not flagged and walras_held and bound_violations == 0
    return AuditReport(
        samples=len(prices),
        max_walras_violation=max_walras,
        lower_bound_violations=bound_violations,
        nonpositive_scale_samples=flagged,
        passed=passed,
    )
