"""Write the artifacts of every ``walraskit`` command on the benchmark inputs.

    python tools/cli_artifacts.py --seed 301 --out DIR

Writes under ``DIR`` the input files of the four benchmark workloads
(``bench/workloads.py`` at full size, seeded by ``--seed``) and the output
directory of every invocation in their pools, plus ``perturb`` (bases
``tilt``, ``poly:3`` and ``fourier:5``), ``decompose`` and ``audit`` on the
first six ``solve`` economies.  ``commands.txt`` lists every invocation
with its exit status and error output.  The commands run with ``DIR`` as
the working directory and get relative paths, so no output names ``DIR``.

Run it in two checkouts and compare the two directories with ``diff -r``:
the runs are deterministic, so any difference is a change of behaviour.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="new or empty directory")
    args = parser.parse_args(argv)
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
