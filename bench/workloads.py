"""Seeded inputs, CLI invocations and independent correctness oracles.

Each workload turns ``(seed, size)`` into a pool of inputs, writes them as
the files a user would hand to ``walraskit``, and checks every invocation's
output files against an oracle that shares no code with the package.  The
structure of the pool (goods, consumer counts, which economies are
rescaled, which datasets pass) is fixed by the entry's position, so every
seed exercises the same mix; the seed draws only the numbers.  That keeps
the cost of a run steady from seed to seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# libyaml's parser when available: the realize check reloads a 201-node file per op.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Outcome:
    """Result of checking one invocation."""

    attempted: int
    failed: int = 0
    known_defect: int = 0   # failures of the documented rescaled-endowment defect
    notes: list = field(default_factory=list)


def entry_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def write_economy(path: Path, alphas, endowments) -> None:
    data = {
        "goods": int(len(alphas[0])),
        "consumers": [
            {
                "alpha": [float(a) for a in alpha],
                "endowment": [float(w) for w in omega],
                "scale": {"type": "constant", "value": 1.0},
            }
            for alpha, omega in zip(alphas, endowments)
        ],
    }
    path.write_text(yaml.safe_dump(data, sort_keys=False, default_flow_style=None))


def random_consumers(rng, goods: int, n: int):
    alphas = rng.dirichlet(np.full(goods, 5.0), size=n)
    endowments = rng.uniform(0.25, 2.0, size=(n, goods))
    return alphas, endowments


def demand_rows(alpha, omega, P) -> np.ndarray:
    """Cobb-Douglas demand ``alpha (p . omega) / p``, one row per price row."""
    return alpha * (P @ omega)[:, None] / P


def cobb_douglas_aed(alphas, endowments, P) -> np.ndarray:
    """Aggregate excess demand rows ``sum_c alpha_c (p . w_c) / p - w_c``."""
    P = np.atleast_2d(P)
    total = np.zeros_like(P)
    for alpha, omega in zip(alphas, endowments):
        total += demand_rows(alpha, omega, P) - omega
    return total


def nullspace_equilibrium(alphas, endowments) -> np.ndarray:
    """Exact equilibrium price of a constant-scale Cobb-Douglas economy.

    Multiplying coordinate j of the excess demand by ``p_j`` gives ``M p``
    with ``M = sum_c alpha_c omega_c^T - diag(sum_c omega_c)``, so the
    equilibria are ``null(M)`` intersected with the open simplex.  Raises
    when that set is not a single point.
    """
    alphas = np.asarray(alphas, dtype=float)
    endowments = np.asarray(endowments, dtype=float)
    M = alphas.T @ endowments - np.diag(endowments.sum(axis=0))
    _, s, vt = np.linalg.svd(M)
    if s.size > 1 and s[-2] <= 1e-10 * s[0]:
        raise ValueError("null(M) is not one-dimensional: the equilibrium set is not a point")
    p = vt[-1] / vt[-1].sum()
    if np.any(p <= 0.0):
        raise ValueError("null(M) does not meet the open simplex")
    return p


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_lines(out: Path) -> list[str]:
    return (out / "report.txt").read_text().splitlines()


# --- solve ---------------------------------------------------------------------

# Three economies in five have l = 4, so the median and the tail op are both
# long l = 4 solves; short ops drift most with the load on a shared machine.
# Entry 0, the set-up's warm-up op, is a cheap l = 3 solve.
SOLVE_GOODS = (3, 4, 4, 2, 4)
PRICE_TOL = 1e-7


class Solve:
    """``walraskit solve`` on random constant-scale Cobb-Douglas economies.

    Entry i has ``SOLVE_GOODS[i % 5]`` goods and ``2 + (i + i // 5) % 5``
    consumers; every fourth entry has all endowments multiplied by ``10^k``
    with k drawn from [-8, 8], which keeps the known tolerance defect of the
    solver (absolute tolerances) visible in the failure count.
    """

    name = "solve"
    trace_ops = 5
    op_s = 0.65  # normalised seconds per op and check; sets the ops per run

    def __init__(self, seed: int, smoke: bool):
        self.goods = (3, 2) if smoke else SOLVE_GOODS
        self.pool_size = 4 if smoke else 40
        self.entries = []
        for i in range(self.pool_size):
            rng = entry_rng(seed, i)
            goods = self.goods[i % len(self.goods)]
            n = 2 + (i + i // 5) % 5
            alphas, endowments = random_consumers(rng, goods, n)
            k = int(rng.integers(-8, 9)) if i % 4 == 3 else None
            if k is not None:
                endowments = endowments * 10.0**k
            self.entries.append((alphas, endowments, k))

    def write(self, work: Path) -> list[list[str]]:
        argvs = []
        for i, (alphas, endowments, _) in enumerate(self.entries):
            path = work / f"economy{i}.yaml"
            write_economy(path, alphas, endowments)
            argvs.append(["solve", "--input", str(path), "--out", str(work / f"out{i}")])
        return argvs

    def check(self, i: int, rc, out: Path) -> Outcome:
        alphas, endowments, k = self.entries[i]
        problems = self._problems(rc, out, alphas, endowments)
        if not problems:
            return Outcome(1)
        known = k is not None
        return Outcome(1, 1, int(known), [f"solve entry {i} (k={k}): {problems}"])

    @staticmethod
    def _problems(rc, out, alphas, endowments) -> str:
        if rc != 0:
            return f"exit {rc}"
        expected = nullspace_equilibrium(alphas, endowments)
        rows = read_csv(out / "equilibria.csv")
        lines = report_lines(out)
        if "finite equilibrium set: yes" not in lines:
            return "equilibrium set not reported finite"
        if "index sum: +1" not in lines:
            return "index sum is not +1"
        if len(rows) != 1:
            return f"{len(rows)} equilibria, expected 1"
        row = rows[0]
        if row["regularity"] != "regular" or row["index"] != "1":
            return f"zero is {row['regularity']} with index {row['index']}"
        price = np.array([float(row[f"p{j + 1}"]) for j in range(len(expected))])
        err = float(np.abs(price - expected).max())
        if err > PRICE_TOL:
            return f"price off the null-space oracle by {err:.3e}"
        return ""


# --- experiment ------------------------------------------------------------------

BASES = ("fourier:5", "poly:3")
EPSILONS = ("1e-4", "1e-3", "1e-2")


class Experiment:
    """``walraskit experiment`` on the saved continuum economy (0.4, 0.6).

    Entry i uses basis ``BASES[i % 2]`` and epsilon ``EPSILONS[(i // 2) % 3]``
    with a base seed drawn from the workload seed.  The pool is shorter than
    a run, so identical invocations repeat and their ``experiment.csv``
    must be byte-identical.
    """

    name = "experiment"
    trace_ops = 6
    op_s = 0.5  # normalised seconds per op and check; sets the ops per run

    def __init__(self, seed: int, smoke: bool):
        self.trials = 1 if smoke else 4
        self.pool_size = 2 if smoke else 12
        self.grid = "21" if smoke else "201"
        self.seeds = [int(entry_rng(seed, i).integers(1, 2**31 - 1)) for i in range(self.pool_size)]
        self.first_bytes: dict[int, bytes] = {}

    def write(self, work: Path) -> list[list[str]]:
        from walraskit import cli

        base = work / "continuum"
        rc = cli.main(["realize", "--continuum", "0.4", "0.6", "--grid", self.grid, "--out", str(base)])
        if rc != 0:
            raise RuntimeError(f"could not save the continuum economy (exit {rc})")
        economy = base / "realized_economy.yaml"
        return [
            [
                "experiment", "--input", str(economy), "--out", str(work / f"out{i}"),
                "--epsilon", EPSILONS[(i // 2) % 3], "--basis", BASES[i % 2],
                "--trials", str(self.trials), "--seed", str(s),
            ]
            for i, s in enumerate(self.seeds)
        ]

    def check(self, i: int, rc, out: Path) -> Outcome:
        if rc != 0:
            return Outcome(self.trials, self.trials, notes=[f"experiment entry {i}: exit {rc}"])
        raw = (out / "experiment.csv").read_bytes()
        if self.first_bytes.setdefault(i, raw) != raw:
            return Outcome(self.trials, self.trials, notes=[f"experiment entry {i}: experiment.csv changed on repeat"])
        if "unperturbed base: continuum detector fired" not in report_lines(out):
            return Outcome(self.trials, self.trials, notes=[f"experiment entry {i}: base continuum not detected"])
        rows = read_csv(out / "experiment.csv")
        bad = [
            r["trial"] for r in rows
            if int(r["n_equilibria"]) < 1 or r["all_regular"] != "true" or r["index_sum"] != "1"
        ]
        failed = len(bad) + max(0, self.trials - len(rows))
        notes = [f"experiment entry {i}: failed trials {bad}"] if failed else []
        return Outcome(self.trials, failed, notes=notes)


# --- realize ---------------------------------------------------------------------

AED_TOL = 1e-7


class Realize:
    """``walraskit realize --grid 201`` on random economies, 3 in 4 with l = 3.

    The oracle reloads ``realized_economy.yaml`` with plain YAML and
    evaluates the canonical consumers' aggregate excess demand at the grid
    nodes stored in it, where the sampled scales equal their node values,
    then compares it with the source economy's excess demand there.
    """

    name = "realize"
    trace_ops = 4
    op_s = 0.16  # normalised seconds per op and check; sets the ops per run

    def __init__(self, seed: int, smoke: bool):
        self.grid = 21 if smoke else 201
        self.pool_size = 4 if smoke else 16
        self.entries = []
        for i in range(self.pool_size):
            rng = entry_rng(seed, i)
            goods = 2 if i % 4 == 1 else 3
            alphas, endowments = random_consumers(rng, goods, 2 + i % 3)
            self.entries.append((alphas, endowments, int(rng.integers(1, 2**31 - 1))))

    def write(self, work: Path) -> list[list[str]]:
        argvs = []
        for i, (alphas, endowments, cli_seed) in enumerate(self.entries):
            path = work / f"economy{i}.yaml"
            write_economy(path, alphas, endowments)
            argvs.append([
                "realize", "--input", str(path), "--out", str(work / f"out{i}"),
                "--grid", str(self.grid), "--seed", str(cli_seed),
            ])
        return argvs

    def check(self, i: int, rc, out: Path) -> Outcome:
        if rc != 0:
            return Outcome(1, 1, notes=[f"realize entry {i}: exit {rc}"])
        alphas, endowments, _ = self.entries[i]
        data = yaml.load((out / "realized_economy.yaml").read_text(), Loader=YAML_LOADER)
        consumers = data["consumers"]
        C = np.asarray(consumers[0]["scale"]["grid"], dtype=float)
        if C.shape[0] != self.grid:
            return Outcome(1, 1, notes=[f"realize entry {i}: {C.shape[0]} grid nodes"])
        P = np.hstack([C, 1.0 - C.sum(axis=1, keepdims=True)])
        realized = np.zeros_like(P)
        for c in consumers:
            s = c["scale"]
            alpha = np.asarray(c["alpha"], dtype=float)
            omega = np.asarray(c["endowment"], dtype=float)
            if s["type"] != "kernel_sampled" or not np.array_equal(np.asarray(s["grid"], dtype=float), C):
                return Outcome(1, 1, notes=[f"realize entry {i}: unexpected scale"])
            scale = np.asarray(s["values"], dtype=float) * s["share"] / (P[:, s["good"]] * s["level"])
            realized += scale[:, None] * (demand_rows(alpha, omega, P) - omega)
        target = cobb_douglas_aed(alphas, endowments, P)
        err = np.abs(realized - target).max(axis=1) / np.maximum(1.0, np.abs(target).max(axis=1))
        if err.max() > AED_TOL:
            return Outcome(1, 1, notes=[f"realize entry {i}: AED mismatch {err.max():.3e}"])
        return Outcome(1)


# --- sarp ----------------------------------------------------------------------------

EDGE_TOL = 1e-9
DISTINCT_TOL = 1e-10


def warp_pair(P, X):
    """A pair ``(i, j)`` of distinct bundles, each revealed preferred to the other."""
    own = np.einsum("ij,ij->i", P, X)
    weak = P @ X.T <= own[:, None]
    i, j = np.nonzero(np.triu(weak & weak.T, 1))
    i, j = i[:1000], j[:1000]
    distinct = np.flatnonzero(np.abs(X[i] - X[j]).max(axis=1) > DISTINCT_TOL)
    return (int(i[distinct[0]]), int(j[distinct[0]])) if distinct.size else None


class Sarp:
    """``walraskit sarp`` on T = 2000 datasets with three goods.

    Even entries sample one Cobb-Douglas consumer (SARP holds: the DFS
    visits every node); odd entries interleave two consumers, redrawn until
    the data carries a two-cycle certificate (SARP fails early).
    """

    name = "sarp"
    trace_ops = 2
    op_s = 1.25  # normalised seconds per op and check; sets the ops per run

    def __init__(self, seed: int, smoke: bool):
        self.T = 200 if smoke else 2000
        self.pool_size = 2 if smoke else 16
        self.entries = []
        for i in range(self.pool_size):
            rng = entry_rng(seed, i)
            P = rng.dirichlet(np.ones(3), size=self.T)
            passes = i % 2 == 0
            while True:
                (a1, a2), (w1, w2) = random_consumers(rng, 3, 2)
                X = demand_rows(a1, w1, P)
                if passes:
                    break
                X[1::2] = demand_rows(a2, w2, P[1::2])
                # Redraw the consumers until the data carries a certificate.
                if warp_pair(P, X) is not None:
                    break
            self.entries.append((P, X, passes))

    def write(self, work: Path) -> list[list[str]]:
        argvs = []
        for i, (P, X, _) in enumerate(self.entries):
            path = work / f"dataset{i}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["p1", "p2", "p3", "x1", "x2", "x3"])
                writer.writerows([repr(float(v)) for v in row] for row in np.hstack([P, X]))
            argvs.append(["sarp", "--input", str(path), "--out", str(work / f"out{i}")])
        return argvs

    def check(self, i: int, rc, out: Path) -> Outcome:
        if rc != 0:
            return Outcome(1, 1, notes=[f"sarp entry {i}: exit {rc}"])
        P, X, passes = self.entries[i]
        verdict = report_lines(out)[-1]
        if passes:
            ok = verdict == "SARP: pass"
        else:
            prefix = "SARP: violation: cycle ("
            ok = verdict.startswith(prefix) and verdict.endswith(")") and self._valid_cycle(
                P, X, [int(v) - 1 for v in verdict[len(prefix):-1].split(",")]
            )
        return Outcome(1) if ok else Outcome(1, 1, notes=[f"sarp entry {i}: wrong verdict {verdict!r}"])

    @staticmethod
    def _valid_cycle(P, X, cycle) -> bool:
        if len(cycle) < 2 or min(cycle) < 0 or max(cycle) >= len(P):
            return False
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if P[a] @ X[b] > P[a] @ X[a] + EDGE_TOL:
                return False
        for k, a in enumerate(cycle):
            for b in cycle[k + 1:]:
                if np.abs(X[a] - X[b]).max() <= DISTINCT_TOL:
                    return False
        return True


WORKLOADS = {w.name: w for w in (Experiment, Solve, Realize, Sarp)}
