"""In-memory span tracer for the walraskit benchmark.

The tracer wraps the public functions of every walraskit module, plus
``TangentField.chart_values`` and each scale's ``__call__``, from outside
the package: ``src/walraskit`` is never edited.  A function is replaced in
*every* module that holds a reference to it, because ``cli``,
``genericity`` and ``equilibrium`` bind names such as ``find_equilibria``
at import time and a wrapper on the defining module alone would be
bypassed.  ``uninstall`` restores every original, so untraced passes run
the unmodified program.

Each span stores name, start, end (``perf_counter_ns``), parent span and op
id in flat integer arrays.  Self time is a span's duration minus the
durations of its direct children; with integer nanoseconds the self times
of one op sum exactly to the duration of its root span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "geometry",
    "scales",
    "consumers",
    "fields",
    "equilibrium",
    "genericity",
    "decomposition",
    "revealed",
    "econfile",
    "cli",
)

# Functions that share one span name; every other function is "<module>.<name>".
ALIASES = {
    "econfile.load_economy": "econfile.load",
    "econfile.load_dataset": "econfile.load",
    "econfile.save_economy": "econfile.save",
    "econfile.save_dataset": "econfile.save",
    "econfile.write_equilibria_csv": "econfile.save",
    "econfile.write_witness_csv": "econfile.save",
    "econfile.write_experiment_csv": "econfile.save",
}

# Position of the row-carrying array argument, for spans that count rows.
ROW_ARG = {
    "geometry.as_price_rows": 0,
    "consumers.aed_rows": 1,
    "fields.chart_values": 1,
    "scales.call": 1,
}

# Spans that may nest inside themselves; calls and rows count the outermost.
RECURSIVE = ("fields.chart_values", "scales.call")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = -1
        self.clear()

    def clear(self) -> None:
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.rows = array("q")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        import walraskit  # noqa: F401 - loads every submodule

        modules = [m for n, m in sys.modules.items() if n == "walraskit" or n.startswith("walraskit.")]
        for layer in LAYERS:
            mod = sys.modules[f"walraskit.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapper = self._wrap(fn, name)
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        self._patch(holder, attr, wrapper)
        fields = sys.modules["walraskit.fields"]
        cls = fields.TangentField
        self._patch(cls, "chart_values", self._wrap(cls.chart_values, "fields.chart_values"))
        scales = sys.modules["walraskit.scales"]
        for obj in vars(scales).values():
            if inspect.isclass(obj) and issubclass(obj, scales.Scale) and "__call__" in vars(obj):
                self._patch(obj, "__call__", self._wrap(vars(obj)["__call__"], "scales.call"))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        row_arg = ROW_ARG.get(name)
        post = _POST.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_id.append(tracer.op)
            tracer.rows.append(-1 if row_arg is None else _rows(args[row_arg]))
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                stack.pop()
            if post is not None:
                tracer.extra[idx] = post(args, result)
            return result

        return wrapper

    # --- analysis -------------------------------------------------------------

    def pass_summary(self) -> "PassSummary":
        """Aggregate the spans recorded since the last ``clear``."""
        return PassSummary(self)

    def save(self, path) -> None:
        """Write the recorded spans as a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op_id, dtype=np.int64),
            rows=np.array(self.rows, dtype=np.int64),
        )


def _file_bytes(args, result):
    from pathlib import Path

    return Path(args[0]).stat().st_size


def _solver_stats(args, result):
    s = result.stats
    return (s.starts, s.converged, s.stalled, s.newton_iterations, len(result.equilibria))


_POST = {
    "econfile.load": _file_bytes,
    "econfile.save": _file_bytes,
    "equilibrium.find_equilibria": _solver_stats,
    "equilibrium.classify": lambda args, result: int(result[0] == "critical"),
    "revealed.preference_matrix": lambda args, result: int(result[0].sum()),
}


class PassSummary:
    """Exact counts and summed times of one set of traced ops."""

    def __init__(self, tr: Tracer):
        n = len(tr.start)
        names = tr.names
        nid, start, end, parent, op, rows = (
            np.array(col, dtype=np.int64) for col in (tr.name_id, tr.start, tr.end, tr.parent, tr.op_id, tr.rows)
        )

        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child

        roots = np.flatnonzero(~has_parent)
        per_op_self = np.zeros(n, dtype=np.int64)
        np.add.at(per_op_self, op, self_ns)
        # Self times of an op sum to its root span's duration.
        self.self_sums_match = bool(
            len(roots) == len(np.unique(op)) and np.all(per_op_self[op[roots]] == dur[roots])
        )
        self.ops = int(len(roots))

        parent_name = np.full(n, -1, dtype=np.int64)
        parent_name[has_parent] = nid[parent[has_parent]]
        outer = np.ones(n, dtype=bool)
        for rec in RECURSIVE:
            if rec in names:
                k = names.index(rec)
                outer &= ~((nid == k) & (parent_name == k))

        width = len(names)
        self.calls = dict(zip(names, np.bincount(nid[outer], minlength=width).tolist()))
        self.rows = dict(
            zip(names, np.bincount(nid[outer], weights=np.maximum(rows[outer], 0), minlength=width).astype(np.int64).tolist())
        )
        self.self_ns = dict(zip(names, np.bincount(nid, weights=self_ns, minlength=width).tolist()))
        self.incl_ns = dict(zip(names, np.bincount(nid[outer], weights=dur[outer], minlength=width).tolist()))

        # Rows of outermost chart_values spans, by the name of their nearest traced parent.
        self.chart_rows_under: dict[str, int] = {}
        cv = names.index("fields.chart_values") if "fields.chart_values" in names else -1
        sel = outer & (nid == cv)
        for pid, r in zip(parent_name[sel].tolist(), rows[sel].tolist()):
            key = names[pid] if pid >= 0 else ""
            self.chart_rows_under[key] = self.chart_rows_under.get(key, 0) + r
        # Sums for the least-squares fit of chart_values time against rows.
        x = rows[sel].astype(float)
        y = dur[sel].astype(float)
        self.fit = np.array([len(x), x.sum(), y.sum(), (x * x).sum(), (x * y).sum()])

        self.solver = np.zeros(5, dtype=np.int64)
        self.critical = 0
        self.edges = 0
        self.bytes = {"econfile.load": 0, "econfile.save": 0}
        for idx, value in tr.extra.items():
            name = names[nid[idx]]
            if name == "equilibrium.find_equilibria":
                self.solver += np.asarray(value, dtype=np.int64)
            elif name == "equilibrium.classify":
                self.critical += value
            elif name == "revealed.preference_matrix":
                self.edges += value
            elif name in self.bytes:
                self.bytes[name] += value

    def counts(self) -> dict:
        """The machine-independent part: identical on every pass over the same ops."""
        return {
            "calls": self.calls,
            "rows": self.rows,
            "chart_rows_under": self.chart_rows_under,
            "solver": self.solver.tolist(),
            "critical": self.critical,
            "edges": self.edges,
            "bytes": self.bytes,
        }


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(passes: list[PassSummary], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from traced passes over one fixed op list.

    Counts come from the first pass (every pass repeats them exactly);
    ``.self_s`` is seconds of self time per op, averaged over all passes.
    """
    first = passes[0]
    ops = sum(p.ops for p in passes)

    def total(attr, name):
        return sum(getattr(p, attr).get(name, 0) for p in passes)

    def self_s(name):
        return total("self_ns", name) / 1e9 / ops

    def calls(name):
        return int(first.calls.get(name, 0))

    def rows(name):
        return int(first.rows.get(name, 0))

    def us_per_row(name):
        return _ratio(total("incl_ns", name) / 1e3, sum(p.rows.get(name, 0) for p in passes))

    m: dict[str, tuple[float, str]] = {}
    cv = "fields.chart_values"
    n, sx, sy, sxx, sxy = sum(p.fit for p in passes)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom if n and denom > 0 else 0.0
    intercept = (sy - slope * sx) / n if n else 0.0

    starts, converged, stalled, iterations, distinct = first.solver.tolist()
    newton_rows = first.chart_rows_under.get("equilibrium.find_equilibria", 0)

    m["geometry.as_price_rows.calls"] = (calls("geometry.as_price_rows"), "count")
    m["geometry.as_price_rows.self_s"] = (self_s("geometry.as_price_rows"), "s")
    m["geometry.as_price_rows.per_chart_eval"] = (
        _ratio(calls("geometry.as_price_rows"), calls(cv)), "ratio")
    m["scales.call.calls"] = (calls("scales.call"), "count")
    m["scales.call.rows"] = (rows("scales.call"), "count")
    m["scales.call.self_s"] = (self_s("scales.call"), "s")
    m["consumers.aed_rows.calls"] = (calls("consumers.aed_rows"), "count")
    m["consumers.aed_rows.rows"] = (rows("consumers.aed_rows"), "count")
    m["consumers.aed_rows.self_s"] = (self_s("consumers.aed_rows"), "s")
    m["consumers.aed_rows.us_per_row"] = (us_per_row("consumers.aed_rows"), "us")
    m[f"{cv}.calls"] = (calls(cv), "count")
    m[f"{cv}.rows"] = (rows(cv), "count")
    m[f"{cv}.self_s"] = (self_s(cv), "s")
    m[f"{cv}.rows_per_call"] = (_ratio(rows(cv), calls(cv)), "ratio")
    m[f"{cv}.fixed_us"] = (intercept / 1e3, "us")
    m[f"{cv}.us_per_row"] = (slope / 1e3, "us")
    m["fields.chart_jacobian.calls"] = (calls("fields.chart_jacobian"), "count")
    m["fields.chart_jacobian.self_s"] = (self_s("fields.chart_jacobian"), "s")
    m["equilibrium.find_equilibria.calls"] = (calls("equilibrium.find_equilibria"), "count")
    m["equilibrium.find_equilibria.self_s"] = (self_s("equilibrium.find_equilibria"), "s")
    m["equilibrium.newton.iterations"] = (iterations, "count")
    m["equilibrium.newton.field_rows"] = (newton_rows, "count")
    m["equilibrium.newton.rows_per_iteration"] = (_ratio(newton_rows, iterations), "ratio")
    m["equilibrium.newton.converged_ratio"] = (_ratio(converged, starts), "ratio")
    m["equilibrium.newton.stalled"] = (stalled, "count")
    m["equilibrium.dedup.useful_ratio"] = (_ratio(distinct, converged), "ratio")
    m["equilibrium.classify.calls"] = (calls("equilibrium.classify"), "count")
    m["equilibrium.classify.critical"] = (first.critical, "count")
    m["equilibrium.classify.self_s"] = (self_s("equilibrium.classify"), "s")
    m["equilibrium.multiplicity_estimate.self_s"] = (self_s("equilibrium.multiplicity_estimate"), "s")
    m["equilibrium.continuum_detector.calls"] = (calls("equilibrium.continuum_detector"), "count")
    m["equilibrium.continuum_detector.rows"] = (
        first.chart_rows_under.get("equilibrium.continuum_detector", 0), "count")
    m["equilibrium.continuum_detector.self_s"] = (self_s("equilibrium.continuum_detector"), "s")
    m["genericity.perturb.calls"] = (calls("genericity.perturb"), "count")
    m["genericity.perturb.self_s"] = (self_s("genericity.perturb"), "s")
    m["genericity.genericity_experiment.self_s"] = (self_s("genericity.genericity_experiment"), "s")
    m["decomposition.decompose_at.calls"] = (calls("decomposition.decompose_at"), "count")
    m["decomposition.decompose_at.self_s"] = (self_s("decomposition.decompose_at"), "s")
    m["decomposition.positive_kernel.calls"] = (calls("decomposition.positive_kernel"), "count")
    m["decomposition.positive_kernel.self_s"] = (self_s("decomposition.positive_kernel"), "s")
    m["decomposition.realize_economy.self_s"] = (self_s("decomposition.realize_economy"), "s")
    m["revealed.preference_matrix.self_s"] = (self_s("revealed.preference_matrix"), "s")
    m["revealed.sarp_check.self_s"] = (self_s("revealed.sarp_check"), "s")
    m["revealed.edges"] = (first.edges, "count")
    for kind in ("load", "save"):
        name = f"econfile.{kind}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.bytes"] = (first.bytes[name], "bytes")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    names = set().union(*(p.self_ns for p in passes))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(self_s(k) for k in names if k.startswith(layer + ".")), "s")
    m["trace.overhead_frac"] = (_ratio(traced_s, untraced_s) - 1.0, "ratio")
    return m
