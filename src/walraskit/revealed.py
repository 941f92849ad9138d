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

For ``T`` observations the check costs ``O(T^2)`` time and ``O(T^2)``
bytes, and makes no ``T x T`` float array.  The relation is built
transposed, ``rev[j, i] = (p^i . x^j <= bound_i)``: the product ``X P^T``
is formed ``ROW_BLOCK`` rows at a time into one reused buffer, and each
block is compared with the whole vector of spending bounds while it is
still in cache, giving the boolean relation, one byte per pair; the
relations are returned as transposed views.  A sweep along the first
bundle coordinate groups the bundles, and an OR-reduction by group gives
the group relation (a copy of the relation when no bundle repeats).  In
whichever orientation is stored by rows, the nodes without an incoming
edge are then peeled level by level, counting in-degrees in ``uint8``; an
empty remainder proves the relation acyclic.  Otherwise a mutual pair, if
any, is the cycle: the upper triangle is tested in ``TILE x TILE`` tiles
against the transpose of their mirror tiles, stopping at the first band of
rows that holds one.  Failing that, boolean BFS on the dense remainder
finds the lowest node on a cycle, splitting off the nodes that lie on none,
and a shortest cycle through it, in the order of scipy's
``breadth_first_order``; no sparse matrix is built and scipy is not loaded.

Positive rescalings of an individual excess-demand field preserve the
properties a consumer's excess demand must have; ``scaled_field_audit``
verifies the checkable ones (Walras' law, the endowment lower bound, strict
positivity of the scaling) on price samples, within ``WALRAS_TOL`` of the
scaled wealth ``scale(p) * p . omega`` at each sample.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .consumers import Consumer, demand_rows
from .geometry import PricePoint, _greedy_cover

TIE_TOL = 1e-10
DISTINCT_TOL = 1e-10
WALRAS_TOL = 1e-9
ROW_BLOCK = 64      # rows of X P^T formed and compared at a time
TILE = 256          # side of the square tiles of the mutual-pair test
COUNT_CHUNK = 255   # rows summed in uint8 at a time: no in-degree count wraps


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
    the order of their lowest-indexed observation.  Both matrices are
    stored by columns, as transposes of the relations that were built.
    """
    P, X = d.prices, d.bundles
    bound = (1.0 + TIE_TOL) * np.einsum("ij,ij->i", P, X)
    PT = np.ascontiguousarray(P.T)
    # rev[j, i] = weak[i, j]: a block of rows is compared with the whole
    # bound vector, which broadcasts along its rows.
    rev = np.empty((d.size, d.size), dtype=bool)
    buf = np.empty((min(ROW_BLOCK, d.size), d.size))
    for s in range(0, d.size, ROW_BLOCK):
        rows = slice(s, min(s + ROW_BLOCK, d.size))
        spend = np.matmul(X[rows], PT, out=buf[: rows.stop - s])   # [j, i] = p^i . x^j
        np.less_equal(spend, bound, out=rev[rows])
    top = X.max(axis=0)
    unit = X / np.where(top > 0.0, top, 1.0)
    owner = _greedy_cover(unit, np.arange(d.size), DISTINCT_TOL, p=np.inf)
    reps, groups = np.unique(owner, return_inverse=True)
    if reps.size == d.size:
        adj = rev.copy().T
    else:
        # OR over the rows, then the columns, of each group's block.
        order = np.argsort(groups, kind="stable")
        first = np.searchsorted(groups[order], np.arange(reps.size))
        rows = np.logical_or.reduceat(rev[order], first, axis=0)
        adj = np.logical_or.reduceat(rows[:, order], first, axis=1).T
    np.fill_diagonal(adj, False)
    return adj, groups, rev.T


def _first_mutual_pair(adj: np.ndarray) -> list[int] | None:
    """The first pair ``i < j`` with ``adj[i, j] and adj[j, i]``, in
    row-major order, or None.

    A pair is found at the row of its lower node, in a ``TILE x TILE`` tile
    on or right of the diagonal tested against the transpose of its mirror
    tile.  The tiles are taken one band of rows at a time, so the search
    stops at the first band that holds a pair.
    """
    n = adj.shape[0]
    for s in range(0, n, TILE):
        paired = np.zeros(min(TILE, n - s), dtype=bool)
        for t in range(s, n, TILE):
            paired |= (adj[s : s + TILE, t : t + TILE] & adj[t : t + TILE, s : s + TILE].T).any(axis=1)
        if paired.any():
            i = s + int(np.argmax(paired))
            return [i, int(np.argmax(adj[i] & adj[:, i]))]
    return None


def _unpeeled(adj: np.ndarray) -> np.ndarray:
    """The nodes that remain after the nodes with no incoming edge are
    peeled, level by level: the peeled nodes lie on no cycle, and no
    remaining node reaches them.  In-degrees are counted in ``uint8`` over
    at most ``COUNT_CHUNK`` rows at a time, so no count wraps."""
    n = adj.shape[0]
    ones = adj.view(np.uint8)
    indegree = np.zeros(n, dtype=np.int32)
    for s in range(0, n, COUNT_CHUNK):
        indegree += np.add.reduce(ones[s : s + COUNT_CHUNK], axis=0, dtype=np.uint8)
    sources = np.flatnonzero(indegree == 0)
    while sources.size:
        indegree[sources] = -1
        for s in range(0, sources.size, COUNT_CHUNK):
            indegree -= np.add.reduce(ones[sources[s : s + COUNT_CHUNK]], axis=0, dtype=np.uint8)
        sources = np.flatnonzero(indegree == 0)
    return np.flatnonzero(indegree > 0)


def _find_cycle(adj: np.ndarray) -> list[int] | None:
    """A directed cycle in the adjacency matrix (empty diagonal), or None.

    Returns the node sequence without the closing node: the first mutually
    preferring pair if there is one, else a shortest cycle through the
    lowest node of a strong component with two or more nodes.  Both nodes
    of a mutual pair, and every node on a cycle, survive peeling, so an
    empty remainder proves the relation acyclic.
    """
    # Peeling the reversed graph, the nodes with no outgoing edge, also
    # keeps every cycle node, and a mutual pair is one in either direction:
    # both passes read whichever orientation is stored by rows.
    rows = adj if adj.flags.c_contiguous else adj.T
    rest = _unpeeled(rows)
    if rest.size == 0:
        return None
    pair = _first_mutual_pair(rows)
    if pair is not None:
        return pair
    # The lowest node on a cycle.  The remainder is split into parts, each a
    # union of strong components, and the parts are taken lowest node first:
    # that node either has a cycle back to it, or it lies on none and splits
    # its part into the nodes it reaches, the nodes that reach it, and the rest.
    # A part's BFS finds the cycle that the whole graph's would: no node
    # outside the strong component of its start discovers a node inside it.
    sub = adj[rest][:, rest]
    parts = [(0, np.arange(rest.size), sub)]
    while True:
        _, part, local = heapq.heappop(parts)
        cycle, ahead = _bfs(local, 0)
        if cycle is not None:
            return rest[part[cycle]].tolist()
        behind = _bfs(np.ascontiguousarray(local.T), 0)[1]
        for nodes in (ahead & ~behind, behind & ~ahead, ~(ahead | behind)):
            _push_part(parts, sub, part[nodes])


def _push_part(parts: list, adj: np.ndarray, part: np.ndarray) -> None:
    """Push the nodes ``part`` (a union of strong components, ascending) on
    the heap ``parts`` as ``(lowest node, nodes, their adjacency)``, after
    peeling those without an incoming edge from the part: they lie on no
    cycle."""
    local = adj[part][:, part]
    keep = _unpeeled(local)
    if keep.size:
        heapq.heappush(parts, (int(part[keep[0]]), part[keep], local[keep][:, keep]))


def _bfs(adj: np.ndarray, start: int) -> tuple:
    """A shortest cycle through ``start``, from it, and the mask of the
    nodes seen; the cycle is None when ``start`` lies on no cycle, and the
    mask then holds every node that ``start`` reaches, itself included.

    A boolean BFS, one level at a time, in the order of scipy's
    ``breadth_first_order``: a level's nodes are ordered by the position of
    the node that first reaches each, then by index.  The cycle closes at
    the first node in that order with an edge back to ``start``, and runs
    back to it along the BFS tree.
    """
    into = adj[:, start]
    pred = np.full(adj.shape[0], -1)
    unseen = np.ones(adj.shape[0], dtype=bool)
    unseen[start] = False
    frontier = np.array([start])
    while frontier.size:
        back = into[frontier]
        if back.any():
            cycle = [int(frontier[np.argmax(back)])]
            while cycle[-1] != start:
                cycle.append(int(pred[cycle[-1]]))
            return cycle[::-1], ~unseen
        reach = adj[frontier] & unseen
        if frontier.size == 1:  # one discoverer: the level is in index order
            new, first = np.flatnonzero(reach[0]), 0
        else:
            new = np.flatnonzero(reach.any(axis=0))
            first = np.argmax(reach[:, new], axis=0)
            order = np.lexsort((new, first))
            new, first = new[order], first[order]
        pred[new] = frontier[first]
        unseen[new] = False
        frontier = new
    return None, ~unseen


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
