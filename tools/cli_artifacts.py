"""Write the artifacts of every ``walraskit`` command on the benchmark inputs.

    python tools/cli_artifacts.py --seed 301 --out DIR

Writes under ``DIR`` the input files of the four benchmark workloads
(``bench/workloads.py`` at full size, seeded by ``--seed``) and the output
directory of every invocation in their pools, plus ``perturb`` (bases
``tilt``, ``poly:3`` and ``fourier:5``), ``decompose`` and ``audit`` on the
first six ``solve`` economies, and ``solve`` on copies of ``solve`` economy 0
and of the saved continuum economy with every endowment multiplied by 1e-8
and by 1e8 (under ``rescaled/``), whose answers must not depend on the
factor.  Under ``solve/extra/`` it runs ``solve`` on two economies with
three known equilibria (``tests/support.multi_equilibrium_economy``, l = 3
seed 0 and l = 4 seed 1) and on a five- and a six-good constant-scale
economy.  Under ``solve/arena/`` it runs
``solve`` on every arena economy that a solve accepts
(``tests/support.arena_economies``: the economies of that family at l = 3
and 4 with seeds 0-71 and at l = 5 and 6 with seeds 0-11, less the refused
ones), so that a change to the zeros the solver finds on them reads as a
changed answer.  Under
``experiment/extra/`` it runs ``experiment`` with four trials on the
three-good economy of ``solve/extra/`` (bases ``poly:3`` and ``fourier:5``), whose stacked trials are deflated
together, and with four ``poly:3`` trials on the four-good economy
of seed 42 of the same family, whose trials all fail (a scale is not
positive at a price the solve evaluates), so that a failing chunk of
trials is solved again one trial at a time.  Under ``audit/`` it runs
``audit`` on economies whose scales vary, so that the audit itself runs:
the two with three known equilibria (polynomial scales), the saved
continuum economy (1-d ``kernel_sampled`` scales) and the first realised
three-good economy of the ``realize`` pool (n-d ``kernel_sampled``
scales, some samples outside their node hull);
the ``solve`` economies have constant scales, whose audit checks
nothing.  Under ``sarp/extra/`` it runs ``sarp`` on datasets that the
benchmark pool never yields: a three-cycle without a two-cycle behind two
observations that only reveal it, ``sarp`` dataset 1 with every third
bundle repeated from the row before, copies of dataset 1 with every
bundle multiplied by 1e-11 and by 1e8, whose verdict and cycle must not
depend on the factor, dataset 1 with the observations that lie in no
mutually preferring pair moved ahead of the rest, so that its first
mutual pair's lower observation lies past row ``ROW_BLOCK``, out of the
first band in which ``sarp`` builds the relation, and that dataset with
its rows before that observation copied, whole, from its first
``ROW_BLOCK - 1`` rows in turn, so that its first mutual pair is of
bundle groups ``ROW_BLOCK - 1`` and one past the band edge.
``commands.txt`` lists every invocation with its exit status and error
output.  The commands run with ``DIR`` as
the working directory and get relative paths, so no output names ``DIR``.

Run it in two checkouts and compare the two directories: the runs are
deterministic, so any difference is a change of behaviour.

    python tools/cli_artifacts.py --compare OLD NEW

prints the number of files that differ, naming each, and the largest
change of a price, of the ``log10`` of a residual and of each count of the
``solver:`` line (starts, deflated, converged, stalled, exhausted, Newton
iterations, dedup merges; a line without the deflated count, as written
before it existed, has 0) in the ``solve`` and ``perturb`` outputs, and of
a ``max |p.z|`` of an ``audit`` report, then, apart, every residual that
goes from or to exactly 0, which has no ``log10``: a residual is compared
by its ratio, so that a rescaled economy's, whose scale may be 1e8, does
not set the number.  Then the Newton iterations of every ``solve`` and
``perturb`` report summed on each side, ``old → new``, so that the effect
of a change to Newton's iteration reads in one line, and how many of those
reports each side has per ``method:`` (``closed form: 0 → N``; a report
without the line, as written before it existed, counts as ``grid``).  The
``solve/`` and ``solve/extra/constant-l5``/``-l6`` economies and the
``rescaled/`` copies of ``solve`` economy 0 have constant scales, so the
closed form answers them; the arena (l = 3-6), the other economies of
``solve/extra/``, the continuum economy and its copies, and every
``perturb`` keep the grid.  A changed ``method:`` line alone is no
changed output.  It exits 1 when an
output changed beyond those numbers: a file added or removed, an
``equilibria.csv`` or ``solve``/``perturb`` report with another
equilibrium count, regularity, index, multiplicity, index sum, index
check or finite flag, an ``audit`` report with another verdict or
violation count, or any change to an ``experiment.csv``, ``witness.csv``,
``realized_economy.yaml``, ``experiment`` report or ``sarp`` report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Leave no bytecode caches in the checkout (bench/ among them).
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from walraskit import (  # noqa: E402
    Consumer,
    Economy,
    ObservationDataset,
    cli,
    load_dataset,
    load_economy,
    save_dataset,
    save_economy,
)
from walraskit.revealed import ROW_BLOCK, preference_matrix  # noqa: E402
from support import arena_economies, constant_scale_economy, multi_equilibrium_economy  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ECONOMIES = 6
BASES = ("tilt", "poly:3", "fourier:5")
RESCALED = {
    "economy0": Path("solve", "economy0.yaml"),
    "continuum": Path("experiment", "continuum", "realized_economy.yaml"),
}
FACTORS = ("1e-8", "1e8")
# (goods, seed) of the economies with three known equilibria, and the goods
# of the constant-scale economies, solved under solve/extra/.
MULTI = ((3, 0), (4, 1))
# (goods, seed) of an economy of the same family whose polynomial scale is
# not positive at some price that a solve evaluates beyond the scan grid:
# every trial of its experiment records that error.  Its own solve exits 1,
# so it is not solved.
FAILING = (4, 42)
MANY_GOODS = (5, 6)
# The economies with scales that vary, audited under audit/.
AUDITED = {
    **{f"multi-l{g}-seed{k}": Path("solve", "extra", f"multi-l{g}-seed{k}.yaml") for g, k in MULTI},
    "continuum": RESCALED["continuum"],
    "realized-out0": Path("realize", "out0", "realized_economy.yaml"),
}
# Three unit bundles revealed in a cycle with no mutual pair, after two
# observations that reveal them and that no other observation reveals.
THREE_CYCLE = (
    [[1.0, 0.9, 2.0], [2.0, 1.0, 0.9], [0.9, 2.0, 1.0], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [3.0, 3.0, 3.0], [2.0, 2.0, 2.0]],
)
SARP_FACTORS = ("1e-11", "1e8")


def invocations(seed: int) -> list[list[str]]:
    """Write every workload's inputs under the working directory and return
    the argument lists to run."""
    argvs = []
    for name, workload in WORKLOADS.items():
        work = Path(name)
        work.mkdir()
        argvs += workload(seed, smoke=False).write(work)
    for i in range(ECONOMIES):
        economy = ["--input", str(Path("solve", f"economy{i}.yaml"))]
        out = Path("extra", f"economy{i}")
        for basis in BASES:
            name = "perturb-" + basis.replace(":", "")
            argvs.append(
                ["perturb", *economy, "--out", str(out / name), "--epsilon", "1e-3", "--basis", basis]
            )
        argvs.append(["decompose", *economy, "--out", str(out / "decompose")])
        argvs.append(["audit", *economy, "--out", str(out / "audit")])
    Path("rescaled").mkdir()
    for name, source in RESCALED.items():
        economy = load_economy(source)
        for factor in FACTORS:
            path = Path("rescaled", f"{name}-x{factor}.yaml")
            consumers = (Consumer(c.alpha, c.endowment * float(factor), c.scale) for c in economy.consumers)
            save_economy(path, Economy(tuple(consumers)))
            argvs.append(["solve", "--input", str(path), "--out", str(path.with_suffix(""))])
    extra = Path("solve", "extra")
    extra.mkdir()
    economies = {f"multi-l{g}-seed{k}": multi_equilibrium_economy(g, k) for g, k in MULTI}
    for goods in MANY_GOODS:
        rng = np.random.default_rng([seed, goods])
        economies[f"constant-l{goods}"] = constant_scale_economy(rng, goods, 3)
    for name, economy in economies.items():
        save_economy(extra / f"{name}.yaml", economy)
        argvs.append(["solve", "--input", str(extra / f"{name}.yaml"), "--out", str(extra / name)])
    arena = Path("solve", "arena")
    arena.mkdir()
    for goods, k, economy in arena_economies():
        path = arena / f"multi-l{goods}-seed{k}.yaml"
        save_economy(path, economy)
        argvs.append(["solve", "--input", str(path), "--out", str(path.with_suffix(""))])
    experiments = Path("experiment", "extra")
    experiments.mkdir()
    goods, k = FAILING
    save_economy(experiments / f"multi-l{goods}-seed{k}.yaml", multi_equilibrium_economy(goods, k))
    for economy, basis in [(extra / "multi-l3-seed0.yaml", b) for b in BASES[1:]] + [
        (experiments / f"multi-l{goods}-seed{k}.yaml", "poly:3")
    ]:
        out = experiments / f"{economy.stem}-{basis.replace(':', '')}"
        argvs.append(
            ["experiment", "--input", str(economy), "--out", str(out),
             "--epsilon", "1e-3", "--basis", basis, "--trials", "4"]
        )
    extra = Path("sarp", "extra")
    extra.mkdir()
    base = load_dataset(Path("sarp", "dataset1.csv"))
    repeated = base.bundles.copy()
    repeated[1::3] = repeated[:-1:3]
    adj, groups, _ = preference_matrix(base)
    paired = (adj & adj.T).any(axis=1)[groups]
    order = np.argsort(paired, kind="stable")
    # Rows copied whole, which adds no edge between bundle groups.
    copies = np.arange(base.size)
    copies[: np.count_nonzero(~paired)] %= ROW_BLOCK - 1
    datasets = {
        "three-cycle": ObservationDataset(*THREE_CYCLE),
        "repeated": ObservationDataset(base.prices, repeated),
        **{f"dataset1-x{f}": ObservationDataset(base.prices, base.bundles * float(f)) for f in SARP_FACTORS},
        "dataset1-unpaired-first": ObservationDataset(base.prices[order], base.bundles[order]),
        "band-edge-repeated": ObservationDataset(base.prices[order[copies]], base.bundles[order[copies]]),
    }
    for name, dataset in datasets.items():
        save_dataset(extra / f"{name}.csv", dataset)
        argvs.append(["sarp", "--input", str(extra / f"{name}.csv"), "--out", str(extra / name)])
    for name, path in AUDITED.items():
        argvs.append(["audit", "--input", str(path), "--out", str(Path("audit", name))])
    return argvs


# Outputs that may not change at all, with every ``sarp`` output.
EXACT_NAMES = ("experiment.csv", "witness.csv", "realized_economy.yaml")
PRICE_LINE = re.compile(r"^(  p = \()([^)]*)(\)  residual = )(\S+)")
SOLVER_COUNTS = {
    "starts": "start count",
    "converged": "converged count",
    "stalled": "stalled count",
    "exhausted": "exhausted count",
    "Newton iterations": "Newton-iteration total",
    "dedup merges": "dedup-merge count",
}
COUNT = re.compile(r"\b(\d+) (" + "|".join(SOLVER_COUNTS) + r")\b")
DEFLATED = re.compile(r" \((\d+) deflated\)")
# The method a ``method:`` line names, before any reason it gives.
METHOD = re.compile(r"^method: ([^(]*?)(?: \(.*)?$")
WALRAS = re.compile(r"(max \|p\.z\| = )([^,]+)")


def _solve_numbers(path: Path, text: str):
    """The text of a ``solve`` or ``perturb`` output with its prices,
    residuals and solver counts replaced by ``*`` and its ``method:`` line
    left out, and those numbers by kind: ``(text, {"price": [...],
    "residual": [...], count label: [...]})``."""
    numbers = {"price": [], "residual": [], "deflated count": [], **{label: [] for label in SOLVER_COUNTS.values()}}
    prices, residuals = numbers["price"], numbers["residual"]
    lines = text.splitlines()
    if path.name == "equilibria.csv":
        width = sum(1 for name in lines[0].split(",") if re.fullmatch(r"p\d+", name))
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            prices += map(float, cells[:width])
            residuals.append(float(cells[width]))
            lines[i] = ",".join(["*"] * (width + 1) + cells[width + 1 :])
    else:
        for i, line in enumerate(lines):
            if m := PRICE_LINE.match(line):
                prices += map(float, m[2].split(", "))
                residuals.append(float(m[4]))
                lines[i] = PRICE_LINE.sub(r"\1*\3*", line)
            elif line.startswith("solver:"):
                m = DEFLATED.search(line)
                numbers["deflated count"].append(int(m[1]) if m else 0)
                line = DEFLATED.sub("", line)
                for m in COUNT.finditer(line):
                    numbers[SOLVER_COUNTS[m[2]]].append(int(m[1]))
                lines[i] = COUNT.sub(r"* \2", line)
    return "\n".join(line for line in lines if not METHOD.match(line)), numbers


def _method(text: str) -> str:
    """The method a ``solve`` or ``perturb`` report names; ``grid`` when it
    has no ``method:`` line."""
    m = next(filter(None, map(METHOD.match, text.splitlines())), None)
    return m[1] if m else "grid"


def _report_command(rel: Path, text: str) -> str | None:
    """The command that wrote a ``report.txt``: the word its first line starts with."""
    return text.split(":", 1)[0] if rel.name == "report.txt" else None


def _audit_numbers(text: str):
    """An ``audit`` report with its ``max |p.z|`` values replaced by ``*``,
    and those values."""
    return WALRAS.sub(r"\1*", text), [float(m[2]) for m in WALRAS.finditer(text)]


def _is_solve_output(rel: Path) -> bool:
    return rel.name in ("equilibria.csv", "report.txt") and (
        rel.parts[0] in ("solve", "rescaled") or rel.parts[-2].startswith("perturb-")
    )


def compare(old: Path, new: Path) -> int:
    """Print how the artifacts under ``new`` differ from those under ``old``;
    0 when no output changed beyond the numbers that may change, else 1."""
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    differ, changed = [], []
    keys = ("price", "log10 residual", "deflated count", *SOLVER_COUNTS.values(), "audit max |p.z|")
    largest = {key: (0, None) for key in keys}
    zeros = []
    iterations = [0, 0]
    methods = {}
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if rel.name == "report.txt" and _is_solve_output(rel):
            for side, path in enumerate((a, b)):
                if path.is_file():
                    text = path.read_text()
                    iterations[side] += sum(_solve_numbers(rel, text)[1]["Newton-iteration total"])
                    methods.setdefault(_method(text), [0, 0])[side] += 1
        if not (a.is_file() and b.is_file()):
            differ.append(rel)
            changed.append(f"{rel}: only in {old if a.is_file() else new}")
            continue
        ta, tb = a.read_text(), b.read_text()
        if ta == tb:
            continue
        differ.append(rel)
        command = _report_command(rel, ta)
        if rel.parts[0] == "sarp" or rel.name in EXACT_NAMES or command == "experiment":
            changed.append(f"{rel}: changed")
            continue
        if _is_solve_output(rel):
            (sa, na), (sb, nb) = _solve_numbers(rel, ta), _solve_numbers(rel, tb)
            if sa != sb or any(len(na[key]) != len(nb[key]) for key in na):
                changed.append(f"{rel}: changed beyond prices, residuals and solver counts")
                continue
        elif command == "audit":
            (sa, va), (sb, vb) = _audit_numbers(ta), _audit_numbers(tb)
            if sa != sb:
                changed.append(f"{rel}: changed beyond max |p.z|")
                continue
            na, nb = {"audit max |p.z|": va}, {"audit max |p.z|": vb}
        else:
            continue
        for key in na:
            pairs = list(zip(na[key], nb[key]))
            if key == "residual":
                zeros += [f"{rel}: {u:g} → {v:g}" for u, v in pairs if u != v and 0.0 in (u, v)]
                pairs = [(math.log10(u), math.log10(v)) for u, v in pairs if u > 0.0 and v > 0.0]
                key = "log10 residual"
            change = max((abs(u - v) for u, v in pairs), default=0)
            if change > largest[key][0]:
                largest[key] = (change, rel)
    print(f"files: {len(files)}, differing: {len(differ)}")
    for rel in differ:
        print(f"  {rel}")
    for key, (value, rel) in largest.items():
        print(f"largest {key} change: {value:g}" + (f" ({rel})" if rel else ""))
    print(f"residuals from or to 0: {len(zeros)}")
    for line in zeros:
        print(f"  {line}")
    print("Newton iterations of solve and perturb reports: {} → {}".format(*iterations))
    counts = ", ".join(f"{name}: {a} → {b}" for name, (a, b) in sorted(methods.items()))
    print(f"solve and perturb reports by method: {counts}")
    for line in changed:
        print(f"CHANGED {line}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two artifact directories instead of writing one")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, help="new or empty directory")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seed is None or args.out is None:
        parser.error("--seed and --out are required unless --compare is given")
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        print(f"{args.out} is not empty", file=sys.stderr)
        return 2
    os.chdir(args.out)
    lines = []
    for argv_ in invocations(args.seed):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv_)
        lines.append(f"{rc} {' '.join(argv_)}")
        lines += [f"  {line}" for line in err.getvalue().splitlines()]
    Path("commands.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
