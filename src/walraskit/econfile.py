"""Reading and writing economies, datasets, and result tables.

Economy files are YAML with top-level ``goods`` and ``consumers``; each
consumer lists ``alpha``, ``endowment``, and a ``scale`` expression from the
closed vocabulary in :mod:`walraskit.scales`:

    goods: 2
    consumers:
    - alpha: [0.5, 0.5]
      endowment: [1.0, 0.0]
      scale: {type: constant, value: 1.0}

A scale is its kind's dataclass fields under ``type``: every field is
required and other keys are ignored.  Whether the scale fits the goods is
checked by :class:`~walraskit.consumers.Consumer`, as for an economy built
in code; this module adds the consumer's position to the message.

Economy files are written by a small direct emitter that gives exactly the
text of PyYAML's ``safe_dump(data, sort_keys=False, default_flow_style=None)``:
block collections, except that a list or mapping of scalars is written in
flow style and wrapped past column 80.  A sampled grid is written in one
pass, and a grid shared by several scales is formatted once per file.  A
file in that layout is read by a direct reader that returns what PyYAML's
safe loader returns for it; any other file is read with ``yaml.load``, with
libyaml's parser when PyYAML has it, and only such a file imports PyYAML.
Floats are emitted with Python repr (shortest exact form) in YAML and with
17 significant digits in CSV tables, so written files re-parse to equivalent
objects and repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
from array import array
from pathlib import Path

import numpy as np

from .consumers import Consumer, Economy
from .equilibrium import EquilibriumReport
from .genericity import GenericityResult
from .revealed import ObservationDataset
from .scales import _number, scale_from_dict

FLOAT_FMT = "%.17g"


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
            alpha = [_number(x, "alpha") for x in entry["alpha"]]
            endowment = [_number(x, "endowment") for x in entry["endowment"]]
        except (KeyError, TypeError) as exc:
            raise EconomyFormatError(
                f"consumer {k}: 'alpha' and 'endowment' must be numeric lists"
            ) from exc
        except ValueError as exc:
            raise EconomyFormatError(f"consumer {k}: {exc}") from exc
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


def _yaml_floats(text: str) -> str:
    """PyYAML's spellings of ``text``, the reprs of floats joined by ``", "``:
    only a text with an ``e`` or an ``n`` can hold one to patch."""
    if "e" in text or "n" in text:
        return ", ".join(map(_yaml_float, text.split(", ")))
    return text


# By exact type, as PyYAML's safe representer picks: a numpy float is refused.
_SCALAR_TEXT = {
    float: lambda x: _yaml_float(float.__repr__(x)),
    int: int.__repr__,
    str: _word_text,
}


def _scalar_texts(values) -> list[str] | None:
    """The texts of plain scalars, or None when a value is a list or mapping."""
    types = set(map(type, values))
    if types == {float}:  # sampled values: one repr of the list, then fix the rare cases
        return _yaml_floats(repr(list(values))[1:-1]).split(", ")
    if types & {list, dict}:
        return None
    bad = types - _SCALAR_TEXT.keys()
    if bad:
        raise TypeError(f"cannot write a {bad.pop().__name__} as a plain YAML scalar")
    return [_SCALAR_TEXT[type(v)](v) for v in values]


def _flow_text(items: list[str], start: str, end: str, column: int, indent: int) -> str:
    """A flow collection of ``items`` written from ``column``, its leading
    space included, with continuation lines at ``indent``."""
    # Like libyaml and PyYAML, break before an item, after its comma, once
    # the column is past the width; every such check is at least two
    # columns before the end of the collection.
    text = " " + start + ", ".join(items) + end
    if column + len(text) - 2 <= YAML_WIDTH:
        return text
    parts = [" " + start]
    column += 2
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
    return "".join(parts)


class _Emitter:
    """Block layout with indent 2; sequences under a mapping key are not
    indented and a mapping that is a sequence item starts on the dash's line.
    Lists and mappings of scalars are written in flow style.

    A block sequence of lists of floats (a sampled grid) is written in one
    pass, and its text is kept for the rest of the file under the grid's
    float64 bits, row lengths and indent: the scales of a realised economy
    share one grid, which is formatted once.  The bits tell ``-0.0`` from
    ``0.0``, which ``==`` does not."""

    def __init__(self):
        self.parts = []
        self.column = 0
        self.grids = {}

    def write(self, text: str) -> None:
        self.parts.append(text)
        line = text.rfind("\n")
        self.column = self.column + len(text) if line < 0 else len(text) - line - 1

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

    def float_rows(self, rows: list, indent: int) -> str | None:
        """The text of ``rows`` as a block sequence at ``indent``, from its
        first ``- `` on, or None when a row is not a list of floats."""
        if set(map(type, rows)) != {list}:
            return None
        flat = list(itertools.chain.from_iterable(rows))
        if set(map(type, flat)) != {float}:
            return None
        key = (array("d", flat).tobytes(), tuple(map(len, rows)), indent)
        text = self.grids.get(key)
        if text is None:
            # Each row's items from one repr of the grid; only a row longer
            # than _flow_text's one-line test allows goes through its wrap.
            width = YAML_WIDTH - indent - 2
            texts = [
                "[" + row + "]"
                if len(row) <= width
                else _flow_text(row.split(", "), "[", "]", indent + 1, indent + 2)[1:]
                for row in map(_yaml_floats, repr(rows)[2:-2].split("], ["))
            ]
            text = self.grids[key] = ("\n" + " " * indent + "- ").join(texts)
        return text

    def value(self, x, indent: int, in_mapping: bool) -> None:
        """``x`` after the ``:`` or ``-`` of a block collection at ``indent``."""
        if isinstance(x, list):
            texts = _scalar_texts(x)
            if texts is not None:
                return self.flow(texts, "[", "]", indent + 2)
            rows = self.float_rows(x, indent if in_mapping else indent + 2)
            if rows is not None:
                return self.write(("\n" + " " * indent if in_mapping else " ") + "- " + rows)
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
        self.write(_flow_text(items, start, end, self.column, indent))


def _economy_yaml(data: dict) -> str:
    """The YAML text of an economy dict, as :func:`save_economy` writes it."""
    emitter = _Emitter()
    emitter.mapping(data, 0, inline=True)
    emitter.parts.append("\n")
    return "".join(emitter.parts)


def save_economy(path, e: Economy) -> None:
    Path(path).write_text(_economy_yaml(economy_to_dict(e)))


# --- YAML reader --------------------------------------------------------------
#
# Reads the layout _Emitter writes and returns what a YAML 1.1 safe loader
# returns for it.  A line or token outside that layout (another indent, a
# comment, quotes, tags, anchors, a key without a value, a spelling that
# YAML 1.1 and Python read differently, such as 1e5, 010 or 1_000) raises
# ValueError, and load_economy hands the whole text to yaml.load.

_FLOAT_TEXT = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"
_FLOAT = re.compile(_FLOAT_TEXT)
_FLOAT_FLOW = re.compile(rf"\[{_FLOAT_TEXT}(?:, {_FLOAT_TEXT})*\]")
# A run of one-line float rows, "- [x, y]", at one indent.
_ROW_TEXT = rf"- \[{_FLOAT_TEXT}(?:, {_FLOAT_TEXT})*\]\n"
_ROW_RUN = re.compile(rf"^( *){_ROW_TEXT}(?:\1{_ROW_TEXT})*", re.MULTILINE)
_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")
# SafeConstructor's values, bit for bit: its NaN is inf - inf, not float("nan").
_FLOAT_WORD_VALUES = {
    ".inf": math.inf,
    "-.inf": -math.inf,
    ".nan": math.inf - math.inf,
}
# Indent, one "- " per block sequence opened on the line, a key, the rest.
_LINE = re.compile(r"( *)((?:- )*)(?:([A-Za-z_][A-Za-z0-9_]*):(?:$| (?=[^ ])))?(.*)")
_BLOCK = object()  # a value that is the block collection on the next tokens


def _scalar(text: str):
    if _FLOAT.fullmatch(text):
        return float(text)
    if _INT.fullmatch(text):
        return int(text)
    if text in _FLOAT_WORD_VALUES:
        return _FLOAT_WORD_VALUES[text]
    return _word(text)


def _word(text: str) -> str:
    if _PLAIN_WORD.fullmatch(text) and text.lower() not in _RESOLVED_WORDS:
        return text
    raise ValueError(f"{text!r} is not a scalar the economy emitter writes")


def _flow(text: str):
    """The list or mapping of scalars of a one-line flow collection."""
    if _FLOAT_FLOW.fullmatch(text):
        return list(map(float, text[1:-1].split(", ")))
    inner = text[1:-1].split(", ") if len(text) > 2 else []
    if text[0] + text[-1] == "[]":
        return [_scalar(item) for item in inner]
    if text[0] + text[-1] != "{}":
        raise ValueError("unclosed flow collection")
    out = {}
    for item in inner:
        key, _, value = item.partition(": ")
        out[_word(key)] = _scalar(value)
    return out


def _row_runs(text: str) -> dict:
    """``{line: (indent, rows)}`` for each run of one-line float rows in
    ``text`` (``_ROW_RUN``), keyed by the index of its first line: every run
    checked by one regex and read by one ``float`` map."""
    runs, line, pos = {}, 0, 0
    for match in _ROW_RUN.finditer(text):
        line += text.count("\n", pos, match.start())
        pos = match.start()
        indent = match[1]
        # The text inside the brackets of each row.
        items = match[0][len(indent) + 3 : -2].split(f"]\n{indent}- [")
        if "," in match[0]:
            values = iter(map(float, ", ".join(items).split(", ")))
            rows = [list(itertools.islice(values, item.count(",") + 1)) for item in items]
        else:
            rows = [[v] for v in map(float, items)]
        runs[line] = (len(indent), rows)
    return runs


def _tokens(text: str) -> list:
    """The block entries of ``text``: ``(indent, key, value)``, ``key`` None
    for a sequence item, ``value`` ``_BLOCK`` when the entries that follow
    hold it.  Wrapped flow lines are joined to their first line; a run of
    one-line float rows is read at once (``_row_runs``)."""
    lines = text.split("\n")
    if lines.pop() != "":
        raise ValueError("the text does not end with a line break")
    runs = _row_runs(text)
    tokens = []
    k = 0
    while k < len(lines):
        if k in runs:
            column, rows = runs[k]
            tokens += [(column, None, row) for row in rows]
            k += len(rows)
            continue
        indent, dashes, key, rest = _LINE.fullmatch(lines[k]).groups()
        k += 1
        column = len(indent)
        for _ in range(len(dashes) // 2 - (key is None)):
            tokens.append((column, None, _BLOCK))
            column += 2
        if key is None and not (dashes and rest):
            raise ValueError(f"line {k} is not a key or a sequence item")
        if rest[:1] in ("[", "{"):
            # Continuation lines sit two columns right of the key or dash.
            wrap = " " * (column + 2)
            while rest[-1] == "," and k < len(lines) and lines[k].startswith(wrap):
                rest += " " + lines[k][len(wrap) :]
                k += 1
            value = _flow(rest)
        else:
            value = _scalar(rest) if rest else _BLOCK
        tokens.append((column, key if key is None else _word(key), value))
    return tokens


def _block(tokens: list, pos: int, indent: int) -> tuple:
    """The block collection whose first entry is ``tokens[pos]``, at
    ``indent``, and the position after it."""
    if pos == len(tokens) or tokens[pos][0] != indent:
        raise ValueError(f"no block entry at indent {indent}")
    is_sequence = tokens[pos][1] is None
    out = [] if is_sequence else {}
    while pos < len(tokens) and tokens[pos][0] == indent:
        _, key, value = tokens[pos]
        if (key is None) != is_sequence:
            break
        pos += 1
        if value is _BLOCK:
            # A sequence under a key is not indented; a mapping is.
            nested = is_sequence or pos < len(tokens) and tokens[pos][1] is not None
            value, pos = _block(tokens, pos, indent + 2 if nested else indent)
        if is_sequence:
            out.append(value)
        else:
            out[key] = value
    return out, pos


def _read_economy_yaml(text: str):
    """What ``yaml.load`` returns for ``text`` written in the emitter's
    layout; ``ValueError`` for any other text."""
    tokens = _tokens(text)
    data, pos = _block(tokens, 0, 0)
    if pos != len(tokens):
        raise ValueError("an entry is outside the block layout")
    return data


def load_economy(path) -> Economy:
    path = Path(path)
    text = path.read_text()
    try:
        data = _read_economy_yaml(text)
    except (ValueError, RecursionError):  # deeper nesting than _block can recurse
        import yaml  # only for text outside the emitter's layout

        try:
            # libyaml's parser when PyYAML has it: the same values, faster.
            data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise EconomyFormatError(f"{path}: not valid YAML: {exc}") from exc
    return economy_from_dict(data)


# --- datasets ----------------------------------------------------------------


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dataset_header(goods: int) -> list[str]:
    return [f"p{i + 1}" for i in range(goods)] + [f"x{i + 1}" for i in range(goods)]


def save_dataset(path, d: ObservationDataset) -> None:
    rows = ([_fmt(v) for v in (*p_row, *x_row)] for p_row, x_row in zip(d.prices, d.bundles))
    _write_csv(path, _dataset_header(d.goods), rows)


# How np.loadtxt reads a dataset's rows: comma-separated floats, each
# optionally in double quotes, with spaces around a field allowed.
_ROWS = dict(delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float)


def load_dataset(path) -> ObservationDataset:
    path = Path(path)
    # Universal newlines: "\n", "\r\n" and "\r" each end a line, as for csv.reader.
    lines = path.read_text().split("\n")
    # Blank lines are skipped, before the header too.
    first = next((k for k, line in enumerate(lines) if line), None)
    if first is None:
        raise EconomyFormatError(f"{path}: empty dataset file")
    header = [name.strip() for name in next(csv.reader([lines[first]]))]
    goods = len(header) // 2
    if header != _dataset_header(goods):
        raise EconomyFormatError(f"{path}: expected header p1..pl,x1..xl")
    lines = lines[first + 1 :]
    body = [line for line in lines if line]
    # np.loadtxt warns on an empty body.
    if not body:
        raise EconomyFormatError(f"{path}: dataset has a header but no rows")
    try:
        values = np.loadtxt(body, **_ROWS)
    except ValueError:
        values = None
    if values is None or values.shape != (len(body), 2 * goods):
        _raise_first_bad_line(path, lines, first + 2, goods)
    return ObservationDataset(values[:, :goods], values[:, goods:])


def _raise_first_bad_line(path, lines: list, start: int, goods: int) -> None:
    """Name the first of ``lines``, numbered from ``start``, that is not a row.

    Each line is read alone as ``load_dataset`` reads the body.  A line that
    reads alone reads the same within the body unless a quote is still open
    at its end, which would run into the next line; so such a line is refused
    too, and every body ``load_dataset`` refuses has a line named here.
    """
    for lineno, line in enumerate(lines, start=start):
        if not line:
            continue
        try:
            row = np.loadtxt([line], **_ROWS)
        except ValueError as exc:
            raise EconomyFormatError(f"{path}:{lineno}: non-numeric field") from exc
        if row.shape[1] != 2 * goods:
            raise EconomyFormatError(f"{path}:{lineno}: expected {2 * goods} fields")
        if line.count('"') % 2:
            raise EconomyFormatError(f"{path}:{lineno}: quoted field not closed on its line")


# --- result tables ------------------------------------------------------------


def write_equilibria_csv(path, report: EquilibriumReport, goods: int) -> None:
    header = [f"p{i + 1}" for i in range(goods)]
    header += ["residual", "regularity", "index", "multiplicity"]
    rows = (
        [_fmt(v) for v in eq.price.coords]
        + [_fmt(eq.residual), eq.regularity, str(eq.index)]
        + ["" if eq.multiplicity is None else str(eq.multiplicity)]
        for eq in report.equilibria
    )
    _write_csv(path, header, rows)


def write_witness_csv(path, prices: np.ndarray, mu: np.ndarray, residual: np.ndarray) -> None:
    goods = prices.shape[1]
    header = [f"p{i + 1}" for i in range(goods)] + [f"mu{i + 1}" for i in range(goods)] + ["residual"]
    rows = ([_fmt(v) for v in row] for row in np.column_stack([prices, mu, residual]))
    _write_csv(path, header, rows)


def write_experiment_csv(path, result: GenericityResult) -> None:
    header = ["trial", "seed", "epsilon", "n_equilibria", "all_regular", "index_sum"]
    header += ["finite", "error", "index_check"]
    rows = (
        [str(r.trial), str(r.seed), _fmt(r.epsilon), str(r.n_equilibria)]
        + ["true" if r.all_regular else "false", str(r.index_sum)]
        + ["true" if r.finite else "false", r.error or "", r.index_check]
        for r in result.records
    )
    _write_csv(path, header, rows)
