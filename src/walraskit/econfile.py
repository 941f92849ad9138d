"""Reading and writing economies, datasets, and result tables.

Economy files are YAML with top-level ``goods`` and ``consumers``; each
consumer lists ``alpha``, ``endowment``, and a ``scale`` expression from the
closed vocabulary in :mod:`walraskit.scales`:

    goods: 2
    consumers:
    - alpha: [0.5, 0.5]
      endowment: [1.0, 0.0]
      scale: {type: constant, value: 1.0}

Floats are emitted with Python repr (shortest exact form) in YAML and with
17 significant digits in CSV tables, so written files re-parse to equivalent
objects and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import operator
from pathlib import Path

import numpy as np
import yaml

from .consumers import Consumer, Economy
from .decomposition import DecompositionWitness
from .equilibrium import EquilibriumReport
from .genericity import GenericityResult
from .revealed import ObservationDataset
from .scales import scale_from_dict

FLOAT_FMT = "%.17g"

# The libyaml parser and emitter when PyYAML was built with them; the
# pure-Python classes read and write the same text, only slower.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class EconomyFormatError(ValueError):
    """An economy file failed to parse; the message names the offending field."""


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def economy_to_dict(e: Economy) -> dict:
    return {
        "goods": e.goods,
        "consumers": [
            {
                "alpha": [float(a) for a in c.alpha],
                "endowment": [float(w) for w in c.endowment],
                "scale": c.scale.to_dict(),
            }
            for c in e.consumers
        ],
    }


def economy_from_dict(data: dict) -> Economy:
    if not isinstance(data, dict):
        raise EconomyFormatError("economy file must contain a mapping at top level")
    try:
        goods = operator.index(data["goods"])
    except (KeyError, TypeError) as exc:
        raise EconomyFormatError("top-level field 'goods' must be an integer") from exc
    raw_consumers = data.get("consumers")
    if not isinstance(raw_consumers, list) or not raw_consumers:
        raise EconomyFormatError("'consumers' must be a non-empty list")
    consumers = []
    for k, entry in enumerate(raw_consumers):
        try:
            alpha = [float(x) for x in entry["alpha"]]
            endowment = [float(x) for x in entry["endowment"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise EconomyFormatError(
                f"consumer {k}: 'alpha' and 'endowment' must be numeric lists"
            ) from exc
        scale_data = entry.get("scale", {"type": "constant", "value": 1.0})
        try:
            scale = scale_from_dict(scale_data)
        except (KeyError, TypeError, ValueError) as exc:
            raise EconomyFormatError(f"consumer {k}: invalid scale: {exc}") from exc
        if len(alpha) != goods or len(endowment) != goods:
            raise EconomyFormatError(
                f"consumer {k}: alpha/endowment length must equal goods={goods}"
            )
        try:
            consumers.append(Consumer(alpha, endowment, scale=scale))
        except ValueError as exc:
            raise EconomyFormatError(f"consumer {k}: {exc}") from exc
    return Economy(tuple(consumers))


def save_economy(path, e: Economy) -> None:
    text = yaml.dump(
        economy_to_dict(e), Dumper=YAML_DUMPER, sort_keys=False, default_flow_style=None
    )
    Path(path).write_text(text)


def load_economy(path) -> Economy:
    path = Path(path)
    try:
        data = yaml.load(path.read_text(), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise EconomyFormatError(f"{path}: not valid YAML: {exc}") from exc
    return economy_from_dict(data)


# --- datasets ----------------------------------------------------------------


def save_dataset(path, d: ObservationDataset) -> None:
    goods = d.goods
    header = [f"p{i + 1}" for i in range(goods)] + [f"x{i + 1}" for i in range(goods)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p_row, x_row in zip(d.prices, d.bundles):
            writer.writerow([_fmt(v) for v in (*p_row, *x_row)])


def load_dataset(path) -> ObservationDataset:
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise EconomyFormatError(f"{path}: empty dataset file")
    header = rows[0]
    if len(header) % 2 != 0 or not header[0].startswith("p"):
        raise EconomyFormatError(f"{path}: expected header p1..pl,x1..xl")
    goods = len(header) // 2
    body = [row for row in rows[1:] if row]
    try:
        if any(len(row) != 2 * goods for row in body):
            raise ValueError("field count")
        values = np.fromiter(map(float, itertools.chain.from_iterable(body)), dtype=float)
    except ValueError:
        _raise_first_bad_line(path, rows, goods)
    if not body:
        raise EconomyFormatError(f"{path}: dataset has a header but no rows")
    values = values.reshape(len(body), 2 * goods)
    return ObservationDataset(values[:, :goods], values[:, goods:])


def _raise_first_bad_line(path, rows: list, goods: int) -> None:
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2 * goods:
            raise EconomyFormatError(f"{path}:{lineno}: expected {2 * goods} fields")
        try:
            [float(v) for v in row]
        except ValueError as exc:
            raise EconomyFormatError(f"{path}:{lineno}: non-numeric field") from exc


# --- result tables ------------------------------------------------------------


def write_equilibria_csv(path, report: EquilibriumReport, goods: int) -> None:
    header = [f"p{i + 1}" for i in range(goods)]
    header += ["residual", "regularity", "index", "multiplicity"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for eq in report.equilibria:
            mult = "" if eq.multiplicity is None else str(eq.multiplicity)
            row = [_fmt(v) for v in eq.price.coords]
            row += [_fmt(eq.residual), eq.regularity, str(eq.index), mult]
            writer.writerow(row)


def write_witness_csv(path, witnesses: list[DecompositionWitness]) -> None:
    if not witnesses:
        raise ValueError("no decomposition witnesses to write")
    goods = witnesses[0].mu.size
    header = [f"p{i + 1}" for i in range(goods)]
    header += [f"mu{i + 1}" for i in range(goods)]
    header += ["residual"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for w in witnesses:
            row = [_fmt(v) for v in w.price.simplex_coords()]
            row += [_fmt(v) for v in w.mu]
            row += [_fmt(w.residual)]
            writer.writerow(row)


def write_experiment_csv(path, result: GenericityResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial", "seed", "epsilon", "n_equilibria", "all_regular", "index_sum"]
            + ["finite", "error", "index_check"]
        )
        for r in result.records:
            writer.writerow(
                [
                    str(r.trial),
                    str(r.seed),
                    _fmt(r.epsilon),
                    str(r.n_equilibria),
                    "true" if r.all_regular else "false",
                    str(r.index_sum),
                    "true" if r.finite else "false",
                    r.error or "",
                    r.index_check,
                ]
            )
