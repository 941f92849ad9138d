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

Positive rescalings of an individual excess-demand field preserve the
properties a consumer's excess demand must have; ``scaled_field_audit``
verifies the checkable ones (Walras' law, the endowment lower bound, strict
positivity of the scaling) on price samples.
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
    weak = spend_cross <= spend_own[:, None] + TIE_TOL
    owner = _greedy_cover(X, np.arange(d.size), DISTINCT_TOL, p=np.inf)
    reps, groups = np.unique(owner, return_inverse=True)
    i, j = np.nonzero(weak & (groups[:, None] != groups[None, :]))
    adj = np.zeros((reps.size, reps.size), dtype=bool)
    adj[groups[i], groups[j]] = True
    return adj, groups, weak


def _find_cycle(adj: np.ndarray) -> list[int] | None:
    """A directed cycle in the adjacency matrix, or None.

    Returns the node sequence without the closing node: the first mutually
    preferring pair if there is one, else a shortest cycle through the
    lowest node of a strong component with two or more nodes.
    """
    mutual = np.argwhere(np.triu(adj & adj.T))
    if len(mutual):
        return [int(v) for v in mutual[0]]
    graph = csr_matrix(adj)
    _, labels = connected_components(graph, directed=True, connection="strong")
    cyclic = np.flatnonzero(np.bincount(labels)[labels] >= 2)
    if cyclic.size == 0:
        return None
    start = int(cyclic[0])
    order, pred = breadth_first_order(graph, start, return_predecessors=True)
    cycle = [int(order[adj[order, start]][0])]
    while cycle[-1] != start:
        cycle.append(int(pred[cycle[-1]]))
    return cycle[::-1]


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


def sample_demand(c: Consumer, prices: list[PricePoint]) -> ObservationDataset:
    """Observe the consumer's demanded bundle at each price."""
    if not prices:
        raise ValueError("at least one price is required")
    P = np.vstack([p.coords for p in prices])
    return ObservationDataset(P, demand_rows(c, P))


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
    satisfies Walras' law within ``WALRAS_TOL`` (1e-9), and each component
    respects the lower bound ``scale(p) * (-omega_i)`` that any excess demand
    of a consumer endowed with ``omega`` obeys.
    """
    if not prices:
        raise ValueError("at least one sample price is required")
    P = np.vstack([p.simplex_coords() for p in prices])
    scale = np.asarray(c.scale(P / P.sum(axis=1, keepdims=True)), dtype=float)
    good = (scale > 0.0) & (scale < np.inf)
    flagged = tuple(int(i) for i in np.flatnonzero(~good))

    max_walras = 0.0
    bound_violations = 0
    if good.any():
        Z = scale[good, None] * (demand_rows(c, P[good]) - c.endowment)
        walras = np.abs(np.einsum("ij,ij->i", P[good], Z))
        max_walras = float(walras.max())
        lower = -scale[good, None] * c.endowment
        bound_violations = int(np.any(Z < lower - 1e-9, axis=1).sum())

    passed = not flagged and max_walras <= WALRAS_TOL and bound_violations == 0
    return AuditReport(
        samples=len(prices),
        max_walras_violation=max_walras,
        lower_bound_violations=bound_violations,
        nonpositive_scale_samples=flagged,
        passed=passed,
    )
