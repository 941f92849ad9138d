"""Command-line interface.

Subcommands: solve, decompose, realize, perturb, experiment, sarp, audit.
Each reads an input file, runs the corresponding analysis, writes its
command-specific artifacts into the output directory and returns the
lines of its human-readable report, which :func:`main` alone writes to
``report.txt``.  Runs are deterministic given the same inputs and seed
(the default seed is the documented constant 1729).

Exit status: 0 on success, 1 on input errors, 2 on an internal assertion
failure (for example a positive-spanning breakdown, which would contradict
the decomposition construction).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .consumers import aed_rows
from .decomposition import CanonicalFamily, PositiveSpanningError, _decompose_grid, _two_good_grid
from .decomposition import realize_economy
from .econfile import (
    EconomyFormatError,
    _fmt,
    load_dataset,
    load_economy,
    save_economy,
    write_equilibria_csv,
    write_experiment_csv,
    write_witness_csv,
)
from .equilibrium import continuum_detector, find_equilibria
from .fields import economy_field
from .genericity import PerturbationSpec, build_continuum_economy, genericity_experiment, perturb
from .geometry import chart_rows_embed, simplex_point
from .revealed import scaled_field_audit, sarp_check
from .scales import ConstantScale

DEFAULT_SEED = 1729


def _report_equilibria(report, lines: list[str]) -> None:
    lines.append(f"equilibria found: {len(report.equilibria)}")
    for eq in report.equilibria:
        price = ", ".join(_fmt(v) for v in eq.price.coords)
        mult = "-" if eq.multiplicity is None else str(eq.multiplicity)
        lines.append(
            f"  p = ({price})  residual = {_fmt(eq.residual)}  "
            f"{eq.regularity}  index = {eq.index:+d}  multiplicity = {mult}"
        )
    lines.append(f"index sum: {report.index_sum:+d}")
    lines.append(f"index-sum check: {report.index_check}")
    lines.append(f"finite equilibrium set: {'yes' if report.finite_flag else 'NO (continuum suspected)'}")
    if report.continuum.fired and report.continuum.interval is not None:
        lo, hi = report.continuum.interval
        if np.isscalar(lo):
            lines.append(f"continuum witness interval: [{_fmt(lo)}, {_fmt(hi)}]")
        else:
            lines.append(
                "continuum witness box: "
                f"[{', '.join(_fmt(v) for v in lo)}] .. [{', '.join(_fmt(v) for v in hi)}]"
            )
    method = report.method
    if report.declined is not None:
        method += f" (closed form declined: {report.declined})"
    lines.append(f"method: {method}")
    s = report.stats
    lines.append(
        f"solver: {s.starts} starts ({s.deflated} deflated), {s.converged} converged, {s.stalled} stalled, "
        f"{s.exhausted} exhausted, {s.newton_iterations} Newton iterations, "
        f"{s.dedup_merges} dedup merges"
    )


def _solve_field(args, out_dir: Path, field_or_economy, lines: list[str]) -> list[str]:
    """Solve ``field_or_economy``, write ``equilibria.csv`` and report below ``lines``."""
    report = find_equilibria(field_or_economy)
    write_equilibria_csv(out_dir / "equilibria.csv", report, field_or_economy.goods)
    _report_equilibria(report, lines)
    return lines


def _cmd_solve(args, out_dir: Path) -> list[str]:
    economy = load_economy(args.input)
    header = [f"solve: {args.input}", f"goods: {economy.goods}, consumers: {len(economy.consumers)}"]
    return _solve_field(args, out_dir, economy, header)


def _decomposition_grid(goods: int, n: int, seed: int) -> np.ndarray:
    """``(n, goods)`` simplex rows: evenly spaced for two goods, else Dirichlet draws."""
    if n < 1:
        raise ValueError(f"--grid must be at least 1, not {n}")
    if goods == 2:
        return _two_good_grid(n)
    return np.random.default_rng(seed).dirichlet(np.ones(goods), size=n)


def _decomposition_input(args) -> tuple:
    """The ``--input`` economy, its symmetric canonical family and the
    decomposition grid of ``--grid`` points, read in that order."""
    economy = load_economy(args.input)
    family = CanonicalFamily.symmetric(economy.goods)
    return economy, family, _decomposition_grid(economy.goods, args.grid, args.seed)


def _cmd_decompose(args, out_dir: Path) -> list[str]:
    economy, family, grid = _decomposition_input(args)
    Q, mu, residual = _decompose_grid(family, grid, functools.partial(aed_rows, economy))
    write_witness_csv(out_dir / "witness.csv", Q / Q.sum(axis=1, keepdims=True), mu, residual)
    return [
        f"decompose: {args.input}",
        f"grid points: {len(grid)}",
        f"max reconstruction residual: {_fmt(residual.max())}",
        f"smallest coefficient: {_fmt(mu.min())}",
    ]


def _cmd_realize(args, out_dir: Path) -> list[str]:
    lines = []
    if args.continuum is not None:
        a, b = args.continuum
        economy = build_continuum_economy((a, b), grid=args.grid)
        lines.append(f"realize: continuum field on [{_fmt(a)}, {_fmt(b)}]")
    else:
        base, family, grid = _decomposition_input(args)
        target_field = economy_field(base)
        grid_chart = grid[:, :-1]
        # The target at the grid rows, evaluated once: realised, then compared.
        values = target_field.full_values(grid_chart)[1]
        economy = realize_economy(family, target_field, grid, values=values)
        target = values[:, :-1]
        # The realised economy at its grid nodes, where each scale is its
        # node value times the kernel weight: no interpolation.
        P = chart_rows_embed(grid_chart)
        nodes = P / P.sum(axis=1, keepdims=True)
        S = np.column_stack([c.scale.at_nodes(nodes) for c in economy.consumers])
        mismatch = np.abs(aed_rows(economy, P, S)[:, :-1] - target).max()
        lines.append(f"realize: aggregate excess demand of {args.input}")
        lines.append(f"max grid-point mismatch: {_fmt(float(mismatch))}")
        lines.append(
            "relative to the largest |target chart value|: "
            f"{_fmt(float(mismatch / np.abs(target).max()))}"
        )
    save_economy(out_dir / "realized_economy.yaml", economy)
    lines.insert(1, f"grid points: {args.grid}")
    lines.append("wrote realized_economy.yaml")
    return lines


_BASES = {"tilt": "linear_tilt", "poly": "polynomial", "fourier": "random_fourier"}
_BASIS_FLAG = re.compile(r"(tilt)|(poly|fourier)(?::([0-9]+))?")


def _perturbation_spec(args) -> PerturbationSpec:
    match = _BASIS_FLAG.fullmatch(args.basis)
    if match is None or match[3] is not None and int(match[3]) < 1:
        raise ValueError(
            f"--basis {args.basis!r}: expected tilt, poly:DEG or fourier:TERMS "
            "with a positive integer DEG or TERMS"
        )
    kind = match[1] or match[2]
    counts = {} if match[3] is None else {"degree" if kind == "poly" else "terms": int(match[3])}
    return PerturbationSpec(epsilon=args.epsilon, basis=_BASES[kind], seed=args.seed, **counts)


def _cmd_perturb(args, out_dir: Path) -> list[str]:
    economy = load_economy(args.input)
    spec = _perturbation_spec(args)
    header = [f"perturb: {args.input}", f"basis: {spec.basis}, epsilon: {_fmt(spec.epsilon)}, seed: {spec.seed}"]
    return _solve_field(args, out_dir, perturb(economy, spec), header)


def _cmd_experiment(args, out_dir: Path) -> list[str]:
    economy = load_economy(args.input)
    spec = _perturbation_spec(args)
    result = genericity_experiment(economy, spec, args.trials)
    write_experiment_csv(out_dir / "experiment.csv", result)
    errors = [r for r in result.records if r.error is not None]
    lines = [
        f"experiment: {args.input}",
        f"trials: {result.trials}, basis: {spec.basis}, "
        f"epsilon: {_fmt(spec.epsilon)}, base seed: {spec.seed}",
        f"finite_count: {result.finite_count}",
        f"all_regular_count: {result.all_regular_count}",
        f"failed trials: {len(errors)}",
    ]
    # None when the base's scan raised: the detector raises the same error.
    baseline = result.base_continuum or continuum_detector(economy)
    lines.append(
        "unperturbed base: " + ("continuum detector fired" if baseline.fired else "finite")
    )
    return lines


def _cmd_sarp(args, out_dir: Path) -> list[str]:
    dataset = load_dataset(args.input)
    result = sarp_check(dataset)
    if result.passed:
        verdict = "SARP: pass"
    else:
        cycle = ", ".join(str(i + 1) for i in result.cycle)
        verdict = f"SARP: violation: cycle ({cycle})"
    print(verdict)
    return [f"sarp: {args.input}", f"observations: {dataset.size}", verdict]


def _cmd_audit(args, out_dir: Path) -> list[str]:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, not {args.samples}")
    economy = load_economy(args.input)
    rng = np.random.default_rng(args.seed)
    prices = [simplex_point(s) for s in rng.dirichlet(np.ones(economy.goods), size=args.samples)]
    lines = [f"audit: {args.input}", f"samples per consumer: {args.samples}"]
    passed = []
    for k, consumer in enumerate(economy.consumers):
        if isinstance(consumer.scale, ConstantScale):
            lines.append(f"consumer {k}: constant scale, skipped")
            continue
        report = scaled_field_audit(consumer, prices)
        passed.append(report.passed)
        lines.append(
            f"consumer {k}: scale={consumer.scale.kind} "
            f"max |p.z| = {_fmt(report.max_walras_violation)}, "
            f"lower-bound violations = {report.lower_bound_violations}, "
            f"nonpositive-scale samples = {list(report.nonpositive_scale_samples)}, "
            f"{'PASS' if report.passed else 'FAIL'}"
        )
    if not passed:
        verdict = "NOTHING AUDITED (every consumer has a constant scale)"
    else:
        verdict = "PASS" if all(passed) else "FAIL"
    lines.append(f"audit result: {verdict}")
    return lines


_COMMANDS = {
    "solve": _cmd_solve,
    "decompose": _cmd_decompose,
    "realize": _cmd_realize,
    "perturb": _cmd_perturb,
    "experiment": _cmd_experiment,
    "sarp": _cmd_sarp,
    "audit": _cmd_audit,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps nothing from one call to the next.
    parser = argparse.ArgumentParser(
        prog="walraskit",
        description="Analyse excess-demand fields of pure-exchange economies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags, input_required=True):
        p.add_argument("--input", required=input_required, help="input file path")
        p.add_argument("--out", required=True, help="output directory")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if "grid" in flags:
            p.add_argument("--grid", type=int, help="number of grid points")
        if "perturbation" in flags:
            p.add_argument("--epsilon", type=float, required=True)
            p.add_argument("--basis", default="fourier:5", help="tilt | poly:DEG | fourier:TERMS")

    p = sub.add_parser("solve", help="locate and classify all equilibria")
    common(p)

    p = sub.add_parser("decompose", help="decompose the economy's excess demand over the canonical family")
    common(p, "seed", "grid")
    p.set_defaults(grid=101)

    p = sub.add_parser("realize", help="realise a field as a canonical-consumer economy")
    common(p, "seed", "grid", input_required=False)
    p.set_defaults(grid=201)
    p.add_argument(
        "--continuum",
        nargs=2,
        type=float,
        metavar=("A", "B"),
        help="realise the built-in continuum field on [A, B] instead of an input economy",
    )

    p = sub.add_parser("perturb", help="perturb the excess demand and re-solve")
    common(p, "seed", "perturbation")

    p = sub.add_parser("experiment", help="seeded perturbation experiment")
    common(p, "seed", "perturbation")
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("sarp", help="check a dataset for revealed-preference cycles")
    common(p)

    p = sub.add_parser("audit", help="audit scaled consumers on sampled prices")
    common(p, "seed")
    p.add_argument("--samples", type=int, default=64)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "realize" and args.input is None and args.continuum is None:
        print("realize: provide --input or --continuum", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, not {args.seed}")
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = _COMMANDS[args.command](args, out_dir)
        (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    except (EconomyFormatError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except PositiveSpanningError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
