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
bytes, and makes no ``T x T`` float array.  A sweep along the first
bundle coordinate groups the bundles, and the observations are taken in
group order.  The relation is built transposed, ``rev[j, i] = (p^i . x^j
<= bound_i)``, as products ``X P^T`` formed into one reused float buffer
and compared with the spending bounds while they are still in cache, one
byte per pair; each product is formed once, ``T^2`` in all.  The first
``TILE`` groups are built in bands of ``ROW_BLOCK``: band ``[s, e)``
forms its row strip ``rev[s:e, s:]``, then its column strip ``rev[e:,
s:e]``, and then holds every pair whose lower node lies in it, so the
check stops at the first band that holds a mutual pair, with that band's
lowest paired node and the node's lowest partner as the cycle.  The
groups past the bands are built as one block.  When some bundle repeats,
each part is OR-reduced by group into the group relation; otherwise the
relation is the group relation.  On a completed relation the diagonal is
cleared in place and the nodes without an incoming edge are peeled level
by level, counting in-degrees in ``uint8``; an empty remainder proves the
relation acyclic.  Otherwise a mutual pair, if any, is the cycle (bands
of ``TILE`` rows, each tested against its column strip), and failing
that, boolean BFS on the dense remainder finds the lowest node on a
cycle, splitting off the nodes that lie on none, and a shortest cycle
through it, in the order of scipy's ``breadth_first_order``; no sparse
matrix is built and scipy is not loaded.  ``preference_matrix`` builds
the relation the same way, to its end.

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
ROW_BLOCK = 64      # groups per band of the relation as it is built
TILE = 256          # groups built in bands, and rows per band of a whole relation's pair test
COUNT_CHUNK = 255   # rows summed in uint8 at a time: no in-degree count wraps
_ABOVE = ~np.tri(max(ROW_BLOCK, TILE), dtype=bool)   # [k, c]: c > k


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


class _StripRelation:
    """The revealed-preference relation of a dataset, built in row-and-column
    strips of ``ROW_BLOCK`` bundle groups over the first ``TILE``, then in
    one block.

    Observations are taken in group order: ``order`` is the stable argsort
    of ``groups``, and group ``a`` holds positions ``first[a]:first[a + 1]``.
    ``weak[v, u]`` says that the observation at position ``u`` weakly reveals
    the bundle at position ``v`` (``p^u . x^v <= bound_u``), and ``adj[b, a]``
    ORs the block of groups ``b`` and ``a``; ``adj`` is ``weak`` itself when
    no bundle repeats.  Both are stored by rows, transposed.
    """

    def __init__(self, d: ObservationDataset):
        P, X = d.prices, d.bundles
        top = X.max(axis=0)
        unit = X / np.where(top > 0.0, top, 1.0)
        owner = _greedy_cover(unit, np.arange(d.size), DISTINCT_TOL, p=np.inf)
        reps, self.groups = np.unique(owner, return_inverse=True)
        self.order = np.argsort(self.groups, kind="stable")
        self.first = np.searchsorted(self.groups[self.order], np.arange(reps.size + 1))
        P, self.X = P[self.order], X[self.order]
        self.PT = np.ascontiguousarray(P.T)
        self.bound = (1.0 + TIE_TOL) * np.einsum("ij,ij->i", P, self.X)
        self.weak = np.empty((d.size, d.size), dtype=bool)
        self.repeats = reps.size < d.size
        self.adj = np.empty((reps.size, reps.size), dtype=bool) if self.repeats else self.weak
        self.buf = np.empty(min(ROW_BLOCK, d.size) * d.size)

    def bands(self):
        """Build the relation, yielding each band ``(s, e)`` of ``ROW_BLOCK``
        groups among the first ``TILE`` once its row strip ``adj[s:e, s:]``
        and its column strip ``adj[e:, s:e]`` are built, so that the pairs
        whose lower node lies in the band can be tested; the groups past
        them are then built as one block."""
        G = self.adj.shape[0]
        stop = min(TILE, G)
        for s in range(0, stop, ROW_BLOCK):
            e = min(s + ROW_BLOCK, stop)
            self._build(slice(s, e), slice(s, G))
            self._build(slice(e, G), slice(s, e))
            yield s, e
        self._build(slice(stop, G), slice(stop, G))

    def _build(self, rows: slice, cols: slice) -> None:
        """``adj[rows, cols]`` for slices of groups: ``weak`` over their
        observations, OR-reduced by group only when some bundle repeats."""
        if rows.start == rows.stop:
            return
        first = self.first
        obs = [slice(first[g.start], first[g.stop]) for g in (rows, cols)]
        self._compare(*obs)
        if self.repeats:
            block = np.logical_or.reduceat(self.weak[tuple(obs)], first[rows] - obs[0].start, axis=0)
            self.adj[rows, cols] = np.logical_or.reduceat(block, first[cols] - obs[1].start, axis=1)

    def _compare(self, rows: slice, cols: slice) -> None:
        """``weak[rows, cols]``: the product ``X P^T`` is formed into the
        float buffer a chunk of rows at a time, and compared with the
        spending bounds while it is still in cache."""
        width = cols.stop - cols.start
        step = self.buf.size // width
        for r in range(rows.start, rows.stop, step):
            chunk = slice(r, min(r + step, rows.stop))
            out = self.buf[: (chunk.stop - r) * width].reshape(-1, width)
            spend = np.matmul(self.X[chunk], self.PT[:, cols], out=out)   # [v, u] = p^u . x^v
            np.less_equal(spend, self.bound[cols], out=self.weak[chunk, cols])

    def witness(self, cycle: list[int]) -> tuple:
        """The observations of a cycle of groups: for each step ``a -> b``,
        the lowest-indexed observation of group ``a`` whose price reveals a
        bundle of group ``b``."""
        first = self.first
        steps = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            carries = self.weak[first[b] : first[b + 1], first[a] : first[a + 1]].any(axis=0)
            steps.append(int(self.order[first[a] + np.argmax(carries)]))
        return tuple(steps)


def preference_matrix(d: ObservationDataset):
    """Weak revealed preference between distinct-bundle groups.

    Returns ``(adj, groups, weak)``: a boolean adjacency matrix over bundle
    groups (same-bundle pairs excluded), the group index of each
    observation, and the ``(T, T)`` observation relation ``weak[i, j]``
    (``x^i`` weakly revealed preferred to ``x^j``).  Groups are numbered in
    the order of their lowest-indexed observation.  The relation is built
    as ``sarp_check`` builds it, in row-and-column strips of ``ROW_BLOCK``
    groups over the first ``TILE`` and then one block, here always to its
    end; both matrices are stored by columns, as transposes of the
    relations that were built.
    """
    rel = _StripRelation(d)
    for _ in rel.bands():
        pass
    if rel.repeats:
        back = np.argsort(rel.order)
        adj, weak = rel.adj, rel.weak[np.ix_(back, back)]
    else:
        adj, weak = rel.weak.copy(), rel.weak
    np.fill_diagonal(adj, False)
    return adj.T, rel.groups, weak.T


def _band_pair(rel: np.ndarray, s: int, e: int) -> list[int] | None:
    """The first pair ``a < b`` with ``rel[a, b] and rel[b, a]`` and ``a``
    in ``[s, e)``, in row-major order, or None.  Reads only the row strip
    ``rel[s:e, s:]`` and the column strip ``rel[s:, s:e]``."""
    mutual = rel[s:e, s:] & rel[s:, s:e].T
    mutual[:, : e - s] &= _ABOVE[: e - s, : e - s]
    paired = mutual.any(axis=1)
    if not paired.any():
        return None
    k = int(np.argmax(paired))
    return [s + k, s + int(np.argmax(mutual[k]))]


def _first_mutual_pair(adj: np.ndarray) -> list[int] | None:
    """The first pair ``i < j`` with ``adj[i, j] and adj[j, i]``, in
    row-major order, or None: the bands of ``TILE`` rows are tested in
    turn, so the search stops at the first band that holds a pair."""
    n = adj.shape[0]
    for s in range(0, n, TILE):
        pair = _band_pair(adj, s, min(s + TILE, n))
        if pair is not None:
            return pair
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

    The first ``TILE`` groups are built in bands of ``ROW_BLOCK``, each
    band's row strip then its column strip, and the pairs whose lower node
    lies in a band are tested as soon as it is built: the check returns at
    the first band that holds a mutual pair, with the first such pair in
    row-major order.  Otherwise the relation is completed, peeled and
    searched (``_find_cycle``, whose pair test goes over the first bands
    again).
    """
    rel = _StripRelation(d)
    for s, e in rel.bands():
        pair = _band_pair(rel.adj, s, e)
        if pair is not None:
            return SarpResult(False, rel.witness(pair))
    np.fill_diagonal(rel.adj, False)
    cycle = _find_cycle(rel.adj.T)
    return SarpResult(True) if cycle is None else SarpResult(False, rel.witness(cycle))


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
