"""Shared fixtures-in-spirit: random generators and independent oracles.

Everything here is deliberately written from first principles (loops and
textbook formulas) so the test suite checks the package against code that
does not share its implementation.
"""

from itertools import combinations, permutations

import numpy as np

import walraskit as wk


def random_economy(rng, goods, n_consumers, positive_endowments=True):
    consumers = []
    for _ in range(n_consumers):
        alpha = rng.dirichlet(np.full(goods, 5.0))
        low = 0.25 if positive_endowments else 0.0
        omega = rng.uniform(low, 2.0, size=goods)
        if not positive_endowments:
            omega[rng.integers(goods)] = 0.0
            if not np.any(omega > 0):
                omega[0] = 1.0
        consumers.append(wk.Consumer(alpha, omega))
    return wk.Economy(tuple(consumers))


def constant_scale_economy(rng, goods, n_consumers, concentration=5.0):
    """Cobb-Douglas consumers with Dirichlet shares and random constant scales."""
    return wk.Economy(
        tuple(
            wk.Consumer(
                rng.dirichlet(np.full(goods, concentration)),
                rng.uniform(0.25, 2.0, size=goods),
                wk.ConstantScale(float(rng.uniform(0.5, 2.0))),
            )
            for _ in range(n_consumers)
        )
    )


def multi_equilibrium_economy(goods, seed):
    """Two Cobb-Douglas consumers with three known equilibria.

    The shares are Dirichlet(3) draws and the endowments U(0.25, 2) draws,
    shares first.  With constant scales ``(t, 1)`` the unique equilibrium
    is ``gamma(t)`` (``scale_path_prices``); consumer 1 gets the quadratic
    ``PolynomialScale`` in ``c_1`` through ``(gamma(t)_1, t)`` for t = 0.5, 1
    and 2, so those three ``gamma(t)`` are equilibria
    (``scale_path_equilibria`` finds every one).
    """
    rng = np.random.default_rng(seed)
    alphas = [rng.dirichlet(np.full(goods, 3.0)) for _ in range(2)]
    endowments = [rng.uniform(0.25, 2.0, size=goods) for _ in range(2)]
    t = np.array([0.5, 1.0, 2.0])
    # gamma(t) as the null vector of an SVD, the construction that drew these
    # economies: the scale's coefficients keep their bits.
    M = [np.outer(a, w) - np.diag(w) for a, w in zip(alphas, endowments)]
    v = np.linalg.svd(t[:, None, None] * M[0] + M[1])[2][:, -1]
    x = v[:, 0] / v.sum(axis=1)
    coeffs = np.linalg.solve(np.vander(x, 3, increasing=True), t)
    unit = (0,) * (goods - 2)
    scale = wk.PolynomialScale(tuple((float(a), (j, *unit)) for j, a in enumerate(coeffs)))
    return wk.Economy(
        (wk.Consumer(alphas[0], endowments[0], scale), wk.Consumer(alphas[1], endowments[1]))
    )


# The seeds of each l of the arena, the economies of that family at l = 3
# and 4 with seeds 0-71 and at l = 5 and 6 with seeds 0-11.
ARENA = {3: range(72), 4: range(72), 5: range(12), 6: range(12)}
# The arena economies whose consumer-0 scale is negative somewhere on the
# open simplex, so that a solve refuses them.  Kept in the arena, not
# redrawn, so that arena counts stay comparable.
ARENA_REFUSED = {3: (34, 40, 54, 55, 65), 4: (42, 52, 57, 58, 64, 66, 71), 5: (10,), 6: (1, 5, 6)}


def arena_economies():
    """``(goods, seed, economy)`` of every arena economy that a solve
    accepts, ``ARENA`` less ``ARENA_REFUSED``, in the order of ``ARENA``."""
    for goods, seeds in ARENA.items():
        for seed in seeds:
            if seed not in ARENA_REFUSED[goods]:
                yield goods, seed, multi_equilibrium_economy(goods, seed)


def scale_path_prices(alphas, endowments, t):
    """``gamma(t)``: the equilibrium price rows of two Cobb-Douglas consumers
    with constant scales ``t`` and 1, one row per ``t``.  Coordinate j of
    ``p * z(p)`` is ``(M(t) p)_j``, ``M(t) = t M_0 + M_1``, whose columns sum
    to zero, so its first ``l - 1`` rows have its null space: ``gamma(t)``
    solves the bordered system ``[M(t)[:-1]; 1^T] p = e_l``, one batched
    solve for every ``t``."""
    M = [np.outer(a, w) - np.diag(w) for a, w in zip(alphas, endowments)]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    B = t[:, None, None] * M[0][:-1] + M[1][:-1]
    B = np.concatenate([B, np.ones((len(t), 1, len(alphas[0])))], axis=1)
    e = np.broadcast_to(np.eye(len(alphas[0]))[-1][:, None], B.shape[:-1] + (1,))
    return np.linalg.solve(B, e)[..., 0]


def scale_path_equilibria(economy):
    """Every equilibrium of a two-consumer Cobb-Douglas economy whose second
    consumer has the unit scale, from the roots of a scalar function.

    With consumer 1's scale ``r``, ``p`` is an equilibrium iff ``p =
    gamma(t)`` with ``r(gamma(t)) = t``; the roots of that scalar function
    are bracketed on 40,001 log-spaced ``t`` in [1e-3, 1e3] and refined by
    bisecting every bracket at once until its midpoint is one of its ends.
    Returns the price rows in ascending ``t``.
    """
    first, second = economy.consumers
    assert second.scale == wk.ConstantScale(1.0)
    args = ([c.alpha for c in economy.consumers], [c.endowment for c in economy.consumers])

    def gap(t):
        P = scale_path_prices(*args, t)
        return first.scale(P) - t

    grid = np.logspace(-3.0, 3.0, 40_001)
    g = gap(grid)
    brackets = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    lo, hi, sign_lo = grid[brackets], grid[brackets + 1], np.sign(g[brackets])
    mid = 0.5 * (lo + hi)
    while np.any((mid != lo) & (mid != hi)):
        right = np.sign(gap(mid)) == sign_lo
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        mid = 0.5 * (lo + hi)
    return scale_path_prices(*args, mid)


# The two ways a test hands an economy to ``find_equilibria``: as itself,
# which the closed form answers when its scales are constant, and as its
# field, which the grid answers.
SOLVE_INPUTS = {"economy": lambda e: e, "field": wk.economy_field}


def random_interior_prices(rng, n, goods, concentration=1.0):
    return rng.dirichlet(np.full(goods, concentration), size=n)


def observed_demand(consumer, prices):
    """Dataset of a constant-scale consumer's demand ``alpha_i (p . omega) / p_i``
    at each price point."""
    P = np.vstack([p.coords for p in prices])
    return wk.ObservationDataset(P, consumer.alpha * (P @ consumer.endowment)[:, None] / P)


def edgeworth_symmetric():
    return wk.Economy(
        (wk.Consumer([0.5, 0.5], [1.0, 0.0]), wk.Consumer([0.5, 0.5], [0.0, 1.0]))
    )


def edgeworth_asymmetric():
    return wk.Economy(
        (wk.Consumer([0.25, 0.75], [1.0, 0.0]), wk.Consumer([0.5, 0.5], [0.0, 1.0]))
    )


def cubic_field():
    """Chart map -(c - 0.3)(c - 0.5)(c - 0.7): zeros 0.3, 0.5, 0.7 with
    slopes -0.08, +0.04, -0.08."""
    return wk.chart_field(lambda C: -(C - 0.3) * (C - 0.5) * (C - 0.7), goods=2)


# --- independent oracles ------------------------------------------------------


def oracle_basis_vectors(alpha, levels, p):
    """Canonical excess demands straight from the closed formula, by loops."""
    goods = len(alpha)
    Z = np.zeros((goods, goods))
    for i in range(goods):
        for j in range(goods):
            if j == i:
                Z[j, i] = -(1.0 - alpha[i]) * levels[i]
            else:
                Z[j, i] = alpha[j] * (p[i] / p[j]) * levels[i]
    return Z


def oracle_positive_kernel(alpha, levels, p):
    """Closed-form positive dependency, derived from sum_i k_i z_i = 0:
    writing s_i = k_i p_i w_i, coordinate j of the sum is
    alpha_j/p_j * sum(s) - s_j/p_j, so s is proportional to alpha."""
    kappa = np.asarray(alpha) / (np.asarray(p) * np.asarray(levels))
    return kappa / kappa.min()


def scan_zeros_1d(field, n_points=100_001, margin=1e-4, refine=True):
    """Sign-change scan of a two-good field's chart map, bisection-refined."""
    xs = np.linspace(margin, 1.0 - margin, n_points)
    g = field.chart_values(xs[:, None])[:, 0]
    zeros = list(xs[g == 0.0])
    idx = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    lo, hi = xs[idx].copy(), xs[idx + 1].copy()
    glo = g[idx].copy()
    if refine and idx.size:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = field.chart_values(mid[:, None])[:, 0]
            left = np.sign(gm) == np.sign(glo)
            lo = np.where(left, mid, lo)
            glo = np.where(left, gm, glo)
            hi = np.where(left, hi, mid)
        zeros.extend(0.5 * (lo + hi))
    elif idx.size:
        zeros.extend(0.5 * (lo + hi))
    return np.sort(np.asarray(zeros))


def nullspace_price(economy):
    """Exact equilibrium of a constant-scale Cobb-Douglas economy.

    Coordinate j of ``p * z(p)`` is ``(M p)_j`` with
    ``M = sum_c s_c alpha_c omega_c^T - diag(sum_c s_c omega_c)``, so the
    equilibrium spans the null space of ``M``.
    """
    M = np.zeros((economy.goods, economy.goods))
    for c in economy.consumers:
        M += c.scale.value * (np.outer(c.alpha, c.endowment) - np.diag(c.endowment))
    v = np.linalg.svd(M)[2][-1]
    return v / v.sum()


def brute_force_sarp(prices, bundles, tie_tol=1e-10, distinct_tol=1e-10):
    """Exhaustive cycle enumeration over distinct-bundle groups (n <= 8).

    A tie is affordable within ``tie_tol`` of the own spending, and bundles
    are compared in units of each good's largest observed amount."""
    P = np.asarray(prices, dtype=float)
    X = np.asarray(bundles, dtype=float)
    T = P.shape[0]
    unit = [X[:, g].max() or 1.0 for g in range(X.shape[1])]
    group_of = [-1] * T
    reps = []
    for i in range(T):
        for g, r in enumerate(reps):
            if np.max(np.abs(X[i] - X[r]) / unit) <= distinct_tol:
                group_of[i] = g
                break
        else:
            group_of[i] = len(reps)
            reps.append(i)
    n = len(reps)
    edge = np.zeros((n, n), dtype=bool)
    for i in range(T):
        for j in range(T):
            if group_of[i] != group_of[j] and P[i] @ X[j] <= (1 + tie_tol) * (P[i] @ X[i]):
                edge[group_of[i], group_of[j]] = True
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                cyc = (first,) + perm
                if all(edge[cyc[k], cyc[(k + 1) % size]] for k in range(size)):
                    return False
    return True


def walras_residuals(economy, P):
    """|p . z(p)| per price row, computed against the package's field values."""
    from walraskit.consumers import aed_rows

    Z = aed_rows(economy, P)
    return np.abs(np.einsum("ij,ij->i", P, Z))
