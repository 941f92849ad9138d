"""Reading and writing economies, datasets, and result tables.

Economy files are YAML with top-level ``goods`` and ``consumers``; each
consumer lists ``alpha``, ``endowment``, and a ``scale`` expression from the
closed vocabulary in :mod:`walraskit.scales`:

    goods: 2
    consumers:
    - alpha: [0.5, 0.5]
      endowment: [1.0, 0.0]
      scale: {type: constant, value: 1.0}

Economy files are written by a small direct emitter that gives exactly the
text of PyYAML's ``safe_dump(data, sort_keys=False, default_flow_style=None)``:
block collections, except that a list or mapping of scalars is written in
flow style and wrapped past column 80.  They are read with libyaml's parser
when PyYAML has it.  Floats are emitted with Python repr (shortest exact
form) in YAML and with 17 significant digits in CSV tables, so written files
re-parse to equivalent objects and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import operator
import re
from numbers import Integral
from pathlib import Path

import numpy as np
import yaml

from .consumers import Consumer, Economy
from .decomposition import DecompositionWitness
from .equilibrium import EquilibriumReport
from .genericity import GenericityResult
from .revealed import ObservationDataset
from .scales import (
    BumpScale,
    KernelSampledScale,
    PolynomialScale,
    SampledScale,
    scale_from_dict,
)

FLOAT_FMT = "%.17g"

# The libyaml parser when PyYAML was built with it; the pure-Python class
# reads the same text, only slower.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
            _check_scale_fits(scale, goods)
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


def _check_scale_fits(scale, goods: int) -> None:
    """``ValueError`` unless ``scale`` reads a chart of ``goods - 1``
    dimensions and, for ``kernel_sampled``, names one of the goods.  A
    polynomial term may list fewer powers than there are chart dimensions:
    the missing ones are 0."""
    dim = goods - 1
    if isinstance(scale, PolynomialScale) and any(len(p) > dim for _, p in scale.terms):
        raise ValueError(
            f"a polynomial term lists more powers than the chart has dimensions ({dim})"
        )
    if isinstance(scale, BumpScale) and len(scale.center) != dim:
        raise ValueError(f"bump center must have one coordinate per chart dimension ({dim})")
    if isinstance(scale, (SampledScale, KernelSampledScale)) and scale.grid.shape[1] != dim:
        raise ValueError(
            f"{scale.kind} grid rows must have one coordinate per chart dimension ({dim})"
        )
    if isinstance(scale, KernelSampledScale):
        good = scale.good
        if isinstance(good, bool) or not isinstance(good, Integral) or not 0 <= good < goods:
            raise ValueError(
                f"kernel_sampled good must be an integer from 0 to {dim}, not {good!r}"
            )


# --- YAML emitter -------------------------------------------------------------
#
# Writes what PyYAML's safe dumper writes with ``sort_keys=False`` and
# ``default_flow_style=None`` for the plain data of :func:`economy_to_dict`:
# a tree (no list or mapping appears twice, which PyYAML would write as an
# alias) of mappings with string keys, lists, and float, int and word scalars.

YAML_WIDTH = 80
_PLAIN_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Words that a YAML reader would not take back as strings when unquoted.
_RESOLVED_WORDS = {"yes", "no", "true", "false", "on", "off", "null"}
_FLOAT_WORDS = {"inf": ".inf", "-inf": "-.inf", "nan": ".nan"}


def _yaml_float(text: str) -> str:
    """PyYAML's spelling of the float whose ``repr`` is ``text``."""
    if text in _FLOAT_WORDS:
        return _FLOAT_WORDS[text]
    if "e" in text and "." not in text:  # 1e+16 is not a YAML float; 1.0e+16 is
        return text.replace("e", ".0e", 1)
    return text


def _word_text(x: str) -> str:
    if _PLAIN_WORD.fullmatch(x) and x.lower() not in _RESOLVED_WORDS:
        return x
    raise TypeError(f"cannot write {x!r} as a plain YAML scalar")


# By exact type, as PyYAML's safe representer picks: a numpy float is refused.
_SCALAR_TEXT = {
    float: lambda x: _yaml_float(float.__repr__(x)),
    int: int.__repr__,
    str: _word_text,
}


def _scalar_texts(values) -> list[str] | None:
    """The texts of plain scalars, or None when a value is a list or mapping."""
    types = set(map(type, values))
    if types == {float}:  # grid rows and sampled values: repr, then fix the rare cases
        texts = list(map(float.__repr__, values))
        joined = "".join(texts)
        return list(map(_yaml_float, texts)) if "e" in joined or "n" in joined else texts
    if types & {list, dict}:
        return None
    bad = types - _SCALAR_TEXT.keys()
    if bad:
        raise TypeError(f"cannot write a {bad.pop().__name__} as a plain YAML scalar")
    return [_SCALAR_TEXT[type(v)](v) for v in values]


class _Emitter:
    """Block layout with indent 2; sequences under a mapping key are not
    indented and a mapping that is a sequence item starts on the dash's line.
    Lists and mappings of scalars are written in flow style."""

    def __init__(self):
        self.parts = []
        self.column = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.column += len(text)

    def newline(self, indent: int) -> None:
        self.parts.append("\n" + " " * indent)
        self.column = indent

    def mapping(self, data: dict, indent: int, inline: bool) -> None:
        for k, key in enumerate(data):
            if k or not inline:
                self.newline(indent)
            self.write(_word_text(key) + ":")
            self.value(data[key], indent, in_mapping=True)

    def sequence(self, data: list, indent: int, inline: bool) -> None:
        for k, value in enumerate(data):
            if k or not inline:
                self.newline(indent)
            self.write("-")
            self.value(value, indent, in_mapping=False)

    def value(self, x, indent: int, in_mapping: bool) -> None:
        """``x`` after the ``:`` or ``-`` of a block collection at ``indent``."""
        if isinstance(x, list):
            texts = _scalar_texts(x)
            if texts is not None:
                return self.flow(texts, "[", "]", indent + 2)
            block = self.sequence
        elif isinstance(x, dict):
            texts = _scalar_texts(x.values())
            if texts is not None:
                items = [f"{_word_text(k)}: {t}" for k, t in zip(x, texts)]
                return self.flow(items, "{", "}", indent + 2)
            block = self.mapping
        else:
            return self.write(" " + _scalar_texts([x])[0])
        if in_mapping:
            block(x, indent + 2 if block == self.mapping else indent, inline=False)
        else:
            self.write(" ")
            block(x, indent + 2, inline=True)

    def flow(self, items: list[str], start: str, end: str, indent: int) -> None:
        # Like libyaml and PyYAML, break before an item, after its comma, once
        # the column is past the width; every such check is at least two
        # columns before the end of the collection.
        text = " " + start + ", ".join(items) + end
        if self.column + len(text) - 2 <= YAML_WIDTH:
            return self.write(text)
        parts = self.parts
        parts.append(" " + start)
        column = self.column + 2
        for k, item in enumerate(items):
            if k:
                parts.append(",")
                column += 1
            if column > YAML_WIDTH:
                parts.append("\n" + " " * indent)
                column = indent
            elif k:
                item = " " + item
            parts.append(item)
            column += len(item)
        parts.append(end)
        self.column = column + 1


def _economy_yaml(data: dict) -> str:
    """The YAML text of an economy dict, as :func:`save_economy` writes it."""
    emitter = _Emitter()
    emitter.mapping(data, 0, inline=True)
    emitter.parts.append("\n")
    return "".join(emitter.parts)


def save_economy(path, e: Economy) -> None:
    Path(path).write_text(_economy_yaml(economy_to_dict(e)))


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
