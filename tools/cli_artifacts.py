"""Write the artifacts of every ``walraskit`` command on the benchmark inputs.

    python tools/cli_artifacts.py --seed 301 --out DIR

Writes under ``DIR`` the input files of the four benchmark workloads
(``bench/workloads.py`` at full size, seeded by ``--seed``) and the output
directory of every invocation in their pools, plus ``perturb`` (bases
``tilt``, ``poly:3`` and ``fourier:5``), ``decompose`` and ``audit`` on the
first six ``solve`` economies.  ``commands.txt`` lists every invocation
with its exit status and error output.  The commands run with ``DIR`` as
the working directory and get relative paths, so no output names ``DIR``.

Run it in two checkouts and compare the two directories: the runs are
deterministic, so any difference is a change of behaviour.

    python tools/cli_artifacts.py --compare OLD NEW

prints the number of files that differ, naming each, and the largest
change of a price, a residual and a Newton-iteration total in the
``solve`` and ``perturb`` outputs.  It exits 1 when an output changed
beyond those numbers: a file added or removed, an ``equilibria.csv`` or
``solve``/``perturb`` report with another equilibrium count, regularity,
index, multiplicity, index sum, index check, finite flag or solver count
(Newton iterations aside), or any change to an ``experiment.csv``,
``witness.csv``, ``realized_economy.yaml`` or ``sarp`` report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Leave no bytecode caches in the checkout (bench/ among them).
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from walraskit import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ECONOMIES = 6
BASES = ("tilt", "poly:3", "fourier:5")


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
    return argvs


# Outputs that may not change at all, with every ``sarp`` output.
EXACT_NAMES = ("experiment.csv", "witness.csv", "realized_economy.yaml")
PRICE_LINE = re.compile(r"^(  p = \()([^)]*)(\)  residual = )(\S+)")
ITERATIONS = re.compile(r"\b(\d+)( Newton iterations)")


def _solve_numbers(path: Path, text: str):
    """The text of a ``solve`` or ``perturb`` output with its prices,
    residuals and Newton-iteration total replaced by ``*``, and those
    numbers: ``(text, prices, residuals, iterations)``."""
    prices, residuals, iterations = [], [], []
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
            elif m := ITERATIONS.search(line):
                iterations.append(int(m[1]))
                lines[i] = ITERATIONS.sub(r"*\2", line)
    return "\n".join(lines), prices, residuals, iterations


def _is_solve_output(rel: Path) -> bool:
    return rel.name in ("equilibria.csv", "report.txt") and (
        rel.parts[0] == "solve" or rel.parts[-2].startswith("perturb-")
    )


def compare(old: Path, new: Path) -> int:
    """Print how the artifacts under ``new`` differ from those under ``old``;
    0 when no output changed beyond the numbers that may change, else 1."""
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    differ, changed = [], []
    largest = {"price": (0.0, None), "residual": (0.0, None), "Newton-iteration total": (0, None)}
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            differ.append(rel)
            changed.append(f"{rel}: only in {old if a.is_file() else new}")
            continue
        ta, tb = a.read_text(), b.read_text()
        if ta == tb:
            continue
        differ.append(rel)
        if rel.parts[0] == "sarp" or rel.name in EXACT_NAMES:
            changed.append(f"{rel}: changed")
        elif _is_solve_output(rel):
            (sa, *na), (sb, *nb) = _solve_numbers(rel, ta), _solve_numbers(rel, tb)
            if sa != sb or any(len(x) != len(y) for x, y in zip(na, nb)):
                changed.append(f"{rel}: changed beyond prices, residuals and Newton iterations")
                continue
            for key, x, y in zip(largest, na, nb):
                change = max((abs(u - v) for u, v in zip(x, y)), default=0)
                if change > largest[key][0]:
                    largest[key] = (change, rel)
    print(f"files: {len(files)}, differing: {len(differ)}")
    for rel in differ:
        print(f"  {rel}")
    for key, (value, rel) in largest.items():
        print(f"largest {key} change: {value:g}" + (f" ({rel})" if rel else ""))
    for line in changed:
        print(f"CHANGED {line}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
