"""Time two ``walraskit`` trees against each other in one process.

    python tools/ab.py --base HEAD~ --pool solve --seed 7 --rounds 5
    python tools/ab.py --aa --pool arena --seed 7 --rounds 5

Loads the package of each tree under its own name (the package uses only
relative imports, so two copies live side by side): ``--base REF``, the
``src/`` of commit ``REF`` of this repository exported with ``git
archive``, and ``--change PATH``, the tree at ``PATH`` (default: this
working tree).  ``--aa`` loads the ``--change`` tree twice instead, so the
output is the harness's own resolution: the spread of a ratio whose true
value is 1.

The inputs are written once, in a temporary directory, from the pools of
``bench/workloads.py`` at full size (``--pool`` ``solve``, ``experiment``,
``realize`` or ``sarp``, seeded by ``--seed``), or for ``--pool arena``
``solve`` on every arena economy that a solve accepts
(``tests/support.arena_economies``: l = 3 and 4 with seeds 0-71 and l = 5
and 6 with seeds 0-11, less the refused ones), which time the grid solver
at l = 3-6.  Every round runs every op of the pool on both trees in turn,
three times each, the tree that goes first alternating from op to op and
from round to round; an op's time on a tree is the best of its three.  An op that does not exit 0
stops the run.

After the timed rounds, one more pass, untimed, runs every op once on
each tree with that tree's own ``TangentField.chart_values`` wrapped, and
counts its field calls and rows per op, and its Newton iterations, which
the ``solver:`` lines of the op's ``report.txt`` give (0 for an op
without one): work that does not depend on the machine.

Prints each tree's median milliseconds per op, the median of the per-op
ratios change / base with their interquartile range and a bootstrap 95%
interval of that median, and in how many rounds the change took less time
over the whole pool, then each tree's median and mean field calls, rows
and Newton iterations per op, then all of it as one JSON object on the
last line.  The interval resamples the ops with replacement, each with
its ratios of every round, ``BOOTSTRAP`` times, seeded by ``--seed``, and
takes the 2.5th and 97.5th percentiles of the resamples' medians; under
``--aa`` it is the harness's resolution.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import groupby, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ("solve", "experiment", "realize", "sarp", "arena")
BEST_OF = 3
BOOTSTRAP = 2000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NEWTON = re.compile(r"\b(\d+) Newton iterations\b")
# The work counted per op, by the name of its entry in the output.
WORK = {"calls": "field_calls", "rows": "field_rows", "iterations": "newton_iterations"}


def export(ref: str, dest: Path) -> Path:
    """The ``src`` directory of commit ``ref`` of this repository, written
    under ``dest`` by ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def load(src: Path, name: str):
    """The ``cli`` module of the package ``walraskit`` under ``src``,
    imported as the package ``name``; an earlier load under that name is
    dropped first, so no module of it is mixed in."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = src / "walraskit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def pool(name: str, seed: int, work: Path, smoke: bool = False) -> list[list[str]]:
    """Write the inputs of pool ``name`` under ``work`` and return its
    argument lists; ``smoke`` takes the workloads' smoke sizes and the
    first two arena economies of l = 3 and of l = 4."""
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")) if p not in sys.path]
    if name != "arena":
        from workloads import WORKLOADS

        return WORKLOADS[name](seed, smoke).write(work)
    from support import arena_economies
    from walraskit import save_economy

    argvs = []
    for goods, group in groupby(arena_economies(), key=lambda arena: arena[0]):
        for _, k, economy in islice(group, 2 if goods <= 4 else 0) if smoke else group:
            path = work / f"multi-l{goods}-seed{k}.yaml"
            save_economy(path, economy)
            argvs.append(["solve", "--input", str(path), "--out", str(path.with_suffix(""))])
    return argvs


def _time(cli, argv: list[str]) -> float:
    """Wall seconds of one ``cli.main(argv)``, its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}: {sink.getvalue().strip()}")
    return t1 - t0


def measure(clis: tuple, argvs: list[list[str]], rounds: int) -> list[list[tuple]]:
    """Per round, per op, the best of ``BEST_OF`` times of the op on each of
    the two ``clis``, which take turns, the first alternating from op to op
    and from round to round."""
    for cli in clis:
        _time(cli, argvs[0])  # lazy imports and caches, untimed
    times = []
    for r in range(rounds):
        row = []
        for i, argv in enumerate(argvs):
            # By op and by round, so an op alternates even in a pool of even size.
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            best = [float("inf")] * 2
            for _ in range(BEST_OF):
                for side in order:
                    best[side] = min(best[side], _time(clis[side], argv))
            row.append(tuple(best))
        times.append(row)
    return times


def count(cli, argvs: list[list[str]]) -> dict:
    """The calls and rows of ``TangentField.chart_values`` of the tree of
    ``cli`` and the Newton iterations of its ``solver:`` lines, a list of
    each with one entry per op, from one untimed run of every op; the method
    is wrapped on that tree's class for the pass, then restored."""
    field = sys.modules[cli.__name__.rpartition(".")[0] + ".fields"].TangentField
    original = field.chart_values
    seen = []

    def counted(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        seen.append(len(out))
        return out

    field.chart_values = counted
    work = {kind: [] for kind in WORK}
    try:
        for argv in argvs:
            seen.clear()
            _time(cli, argv)
            work["calls"].append(len(seen))
            work["rows"].append(sum(seen))
            report = Path(argv[argv.index("--out") + 1], "report.txt").read_text()
            work["iterations"].append(sum(int(m[1]) for m in NEWTON.finditer(report)))
    finally:
        field.chart_values = original
    return work


def interval(times: list[list[tuple]], seed: int, resamples: int = BOOTSTRAP) -> list:
    """The bootstrap 95% interval of the median per-op ratio change / base:
    the 2.5th and 97.5th percentiles of the medians of ``resamples``
    resamples of the ops, with replacement, each op with its ratios of
    every round; seeded by ``seed``."""
    by_op = [[b / a for a, b in op] for op in zip(*times)]
    rng = random.Random(seed)
    medians = sorted(
        statistics.median([r for op in rng.choices(by_op, k=len(by_op)) for r in op]) for _ in range(resamples)
    )
    return [medians[round(0.025 * (resamples - 1))], medians[round(0.975 * (resamples - 1))]]


def summary(times: list[list[tuple]], counts: tuple, seed: int = 0) -> dict:
    """Each tree's median ms per op, the median and quartiles of the per-op
    ratios change / base and the bootstrap 95% interval of that median
    (``interval``, seeded by ``seed``), the rounds in which the change's
    pool took less time, and each tree's median and mean field calls, rows
    and Newton iterations per op from its ``counts``."""
    ops = [t for row in times for t in row]
    ratios = [b / a for a, b in ops]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    work = {
        f"{name}_per_op": {
            side: {"median": statistics.median(tree[kind]), "mean": statistics.mean(tree[kind])}
            for side, tree in zip(("base", "change"), counts)
        }
        for kind, name in WORK.items()
    }
    return {
        "ops": len(times[0]),
        "rounds": len(times),
        "base_ms_per_op": 1e3 * statistics.median(a for a, _ in ops),
        "change_ms_per_op": 1e3 * statistics.median(b for _, b in ops),
        "ratio_median": statistics.median(ratios),
        "ratio_iqr": [q1, q3],
        "ratio_ci95": interval(times, seed),
        "change_wins": sum(sum(b for _, b in row) < sum(a for a, _ in row) for row in times),
        **work,
    }


def run(base: Path, change: Path, name: str, seed: int, rounds: int, smoke: bool = False) -> dict:
    """``summary`` of ``rounds`` rounds of pool ``name`` on the trees whose
    sources are ``base`` and ``change`` (``src`` directories)."""
    clis = (load(base, "walraskit_ab_base"), load(change, "walraskit_ab_change"))
    with tempfile.TemporaryDirectory() as tmp:
        argvs = pool(name, seed, Path(tmp), smoke)
        times = measure(clis, argvs, rounds)
        return summary(times, tuple(count(cli, argvs) for cli in clis), seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", metavar="REF", help="commit of this repository to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, metavar="PATH", help="tree to time (default: this one)")
    parser.add_argument("--pool", choices=POOLS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--aa", action="store_true", help="time the --change tree against itself")
    args = parser.parse_args(argv)
    if args.aa == (args.base is not None):
        parser.error("give exactly one of --base and --aa")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Leave no bytecode caches in either tree.
    sys.dont_write_bytecode = True
    change = args.change.resolve() / "src"
    with tempfile.TemporaryDirectory() as tmp:
        base = change if args.aa else export(args.base, Path(tmp))
        result = run(base, change, args.pool, args.seed, args.rounds)
    labels = ("change", "change") if args.aa else (args.base, str(args.change))
    result = {"pool": args.pool, "seed": args.seed, "base": labels[0], "change": labels[1], "aa": args.aa, **result}
    print(f"pool {args.pool}, seed {args.seed}: {result['ops']} ops x {result['rounds']} rounds, best of {BEST_OF}")
    print(f"base   ({labels[0]}): median {result['base_ms_per_op']:.3f} ms/op")
    print(f"change ({labels[1]}): median {result['change_ms_per_op']:.3f} ms/op")
    q1, q3 = result["ratio_iqr"]
    lo, hi = result["ratio_ci95"]
    print(
        f"ratio change/base per op: median {result['ratio_median']:.3f}, interquartile {q1:.3f}-{q3:.3f}, "
        f"bootstrap 95% interval {lo:.3f}-{hi:.3f}"
    )
    print(f"change faster in {result['change_wins']} of {result['rounds']} rounds")
    for name in WORK.values():
        work = result[f"{name}_per_op"]
        print(
            f"{name.replace('_', ' ')} per op: base median {work['base']['median']:g} (mean {work['base']['mean']:.2f}), "
            f"change median {work['change']['median']:g} (mean {work['change']['mean']:.2f})"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
