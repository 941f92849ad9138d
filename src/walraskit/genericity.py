"""Perturbation experiments: do small perturbations make equilibria finite?

The experimental arena is a two-good economy whose excess demand vanishes on
a whole chart interval ``[a, b]`` (a continuum of equilibria), built by
realising the piecewise-cubic field

    g(c) = (a - c)^3   for c < a,
           0           on [a, b],
           (b - c)^3   for c > b,

over the canonical consumer family.  The field is C^2, positive left of the
interval and negative right of it, so it points inward and every small
perturbation keeps at least one zero.

Perturbations add ``epsilon * basis(c)`` to the chart map, with the basis
drawn from a closed family (linear tilt, seeded random polynomial, seeded
random Fourier sum) and divided by the larger of its sampled sup-norm and
the sup-norm of its derivative over the chart, so that both are at most one
and one of them is one.  "Small" therefore means small together with the
first derivative on the working region, where the experiment actually
probes the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .decomposition import CanonicalFamily, _two_good_grid, realize_economy
from .equilibrium import ContinuumReport, SolverConfig, _base_grid, _index_check, _scan, _solve
from .equilibrium import find_equilibria  # noqa: F401 - in this namespace for wrappers such as bench/tracer.py
from .fields import TangentField, as_field, chart_field
from .scales import _integer, _number

BASIS_KINDS = ("linear_tilt", "polynomial", "random_fourier")


@dataclass(frozen=True)
class PerturbationSpec:
    """A seeded perturbation: ``epsilon * basis`` added to the chart map.

    ``epsilon = 0`` is allowed and produces the identical field.
    """

    epsilon: float
    basis: str = "random_fourier"
    degree: int = 3
    terms: int = 5
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails the check too.
        if not 0.0 <= _number(self.epsilon, "epsilon") < np.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")
        if _integer(self.seed, "seed") < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")
        if _integer(self.degree, "degree") < 1 or _integer(self.terms, "terms") < 1:
            raise ValueError("degree and terms must be at least 1")

    def with_seed(self, seed: int) -> "PerturbationSpec":
        return PerturbationSpec(self.epsilon, self.basis, self.degree, self.terms, seed)


@lru_cache(maxsize=8)
def _norm_probe(dim: int) -> np.ndarray:
    """The normaliser's probe: 1025 points of the chart diagonal from 0 to 1;
    read-only, since every trial shares it."""
    xs = np.linspace(0.0, 1.0, 1025)
    probe = np.column_stack([xs] * dim)
    probe.setflags(write=False)
    return probe


def _wavenumbers(terms: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, terms + 1)


@lru_cache(maxsize=8)
def _fourier_table(dim: int, terms: int) -> tuple:
    """The sine and cosine of the Fourier phases on the probe, ``(1025, dim,
    terms)``; read-only, since every trial shares them."""
    phases = _norm_probe(dim)[:, :, None] * _wavenumbers(terms)
    table = np.sin(phases), np.cos(phases)
    for a in table:
        a.setflags(write=False)
    return table


# The bases.  Each takes chart rows ``C``, ``(n, dim)``, and coefficient
# arrays whose leading axes broadcast against ``n``: one entry, shared by
# every row, one entry per row, or ``(trials, 1)``, each trial on every row
# (a chunk's scan grid), which gives ``(trials, n, dim)`` values.  Every
# value gets the same elementwise arithmetic in each layout.


def _tilt(C):
    return 0.5 - C


def _polynomial(C, coeffs):
    # ``coeffs``: ``(..., degree + 1, dim)``, one column per chart coordinate.
    return np.polynomial.polynomial.polyval(C, np.moveaxis(coeffs, -2, 0), tensor=False)


def _fourier(C, amp_sin, amp_cos):
    # ``amp_sin``, ``amp_cos``: ``(..., dim, terms)``.  The arithmetic of
    # ``(amp_sin * sin + amp_cos * cos).sum(axis=-1)`` on one table of the
    # sines and cosines of ``C``: the cosine products are added to a fresh
    # array of the sine products, so the rows of a chunk of trials make two
    # large arrays.
    phases = C[:, :, None] * _wavenumbers(amp_sin.shape[-1])
    values = amp_sin * np.sin(phases)
    values += amp_cos * np.cos(phases, out=phases)
    return values.sum(axis=-1)


def _basis(spec: PerturbationSpec, dim: int) -> tuple:
    """The basis of ``spec``, before scaling: its function, its coefficient
    arrays (a leading axis of one entry) and the sup-norm of its value and
    of its derivative on the probe (``_norm_probe``), where the sine and cosine
    of a Fourier basis are read from one table (``_fourier_table``)."""
    probe = _norm_probe(dim)
    if spec.basis == "linear_tilt":
        coefficients, value, deriv = (), _tilt(probe), -np.ones_like(probe)
    elif spec.basis == "polynomial":
        rng = np.random.default_rng(spec.seed)
        coeffs = rng.standard_normal((dim, spec.degree + 1)).T
        dcoeffs = np.polynomial.polynomial.polyder(coeffs)
        coefficients = (coeffs[None],)
        value = _polynomial(probe, *coefficients)
        deriv = np.polynomial.polynomial.polyval(probe, dcoeffs, tensor=False)
    else:
        rng = np.random.default_rng(spec.seed)
        amp_sin = rng.standard_normal((dim, spec.terms))
        amp_cos = rng.standard_normal((dim, spec.terms))
        sin, cos = _fourier_table(dim, spec.terms)
        coefficients = (amp_sin[None], amp_cos[None])
        value = (amp_sin * sin + amp_cos * cos).sum(axis=2)
        deriv = (_wavenumbers(spec.terms) * (amp_sin * cos - amp_cos * sin)).sum(axis=2)
    sup = max(float(np.abs(value).max()), float(np.abs(deriv).max()))
    return _BASES[spec.basis], coefficients, sup


_BASES = {"linear_tilt": _tilt, "polynomial": _polynomial, "random_fourier": _fourier}


@dataclass(frozen=True, eq=False)
class _Term:
    """The chart map ``eps * basis(C, *coefficients)`` of one trial.

    ``stack`` evaluates the terms of several trials of one spec, which
    share a basis, in one call: on stacked rows, each row takes its trial's
    coefficients and ``eps``, and on a grid shared by the trials (the scan
    grid), each trial's coefficients meet one table of the grid's values
    (a Fourier basis's sines and cosines).  The elementwise arithmetic is
    the same, so each row gets the bits of its own term.
    """

    basis: Callable
    eps: float
    coefficients: tuple

    def __call__(self, C):
        return self.eps * self.basis(C, *self.coefficients)

    @classmethod
    def stack(cls, terms: list):
        """One map ``f(C, fields)``: on row ``r`` of ``C``, the term
        ``fields[r]``; with ``fields`` of shape ``(k, 1)``, each of those
        ``k`` terms on every row, ``(k, len(C), dim)``."""
        eps = np.array([t.eps for t in terms])[:, None]
        coefficients = [np.concatenate(a) for a in zip(*(t.coefficients for t in terms))]
        basis = terms[0].basis

        def rows(C, fields):
            return eps[fields] * basis(C, *(a[fields] for a in coefficients))

        return rows


def _perturbation_term(spec: PerturbationSpec, dim: int):
    """The chart map ``epsilon * basis`` (a ``_Term``), or ``None`` when
    ``epsilon`` is 0."""
    if spec.epsilon == 0.0:
        return None
    basis, coefficients, sup = _basis(spec, dim)
    return _Term(basis, spec.epsilon / (sup if sup > 0.0 else 1.0), coefficients)


def perturb(field_or_economy, spec: PerturbationSpec) -> TangentField:
    """Add ``epsilon * basis`` (sup-normalised with its derivative) to the
    chart map; ``epsilon`` 0 gives the base field itself."""
    base = as_field(field_or_economy)
    term = _perturbation_term(spec, base.dim)
    if term is None:
        return base
    return TangentField(base.goods, lambda C: base.chart_values(C) + term(C))


def continuum_chart_map(a: float, b: float):
    """The piecewise-cubic chart map vanishing exactly on ``[a, b]``."""

    def g(C):
        c = C[:, 0]
        out = np.zeros_like(c)
        left = c < a
        right = c > b
        out[left] = (a - c[left]) ** 3
        out[right] = (b - c[right]) ** 3
        return out[:, None]

    return g


def build_continuum_economy(interval: tuple[float, float], grid: int = 201):
    """A two-good economy whose equilibrium set contains the chart interval.

    The piecewise-cubic field above is realised over the symmetric two-good
    canonical family on a uniform chart grid of ``grid`` points over
    ``[0.01, 0.99]``; the economy reproduces the field at the grid points
    (and exactly, between grid points, on the interior of ``[a, b]``).
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 < a < b < 1.0):
        raise ValueError("interval must satisfy 0 < a < b < 1")
    if _integer(grid, "grid") < 5:
        raise ValueError("grid needs at least 5 points")
    target = chart_field(continuum_chart_map(a, b), goods=2)
    return realize_economy(CanonicalFamily.symmetric(2), target, _two_good_grid(grid))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    epsilon: float
    n_equilibria: int
    all_regular: bool
    index_sum: int
    finite: bool
    error: str | None = None

    @property
    def index_check(self) -> str:
        return _index_check(self.finite, self.all_regular, self.index_sum)


@dataclass(frozen=True)
class GenericityResult:
    records: tuple
    # The unperturbed base's continuum scan; None when the scan raised.
    base_continuum: ContinuumReport | None = None

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def finite_count(self) -> int:
        return sum(1 for r in self.records if r.error is None and r.finite)

    @property
    def all_regular_count(self) -> int:
        return sum(
            1
            for r in self.records
            if r.error is None and r.finite and r.all_regular
        )

    @property
    def equilibrium_counts(self) -> list[int]:
        return [r.n_equilibria for r in self.records]


def genericity_experiment(
    base,
    spec: PerturbationSpec,
    trials: int,
    solver_config: SolverConfig | None = None,
) -> GenericityResult:
    """Perturb ``base`` with ``trials`` fresh seeds and tally the outcomes.

    Trial ``t`` uses seed ``spec.seed + t``.  Each trial's perturbation term
    is built once, and the trials go through the solve pipeline of
    :mod:`walraskit.equilibrium` together: one continuum scan call, one
    lattice call (none in two goods, where the lattice is the scan grid),
    one damped-Newton phase over the stacked starts of a chunk of trials
    and one report step, which deduplicates the zeros of every trial and
    classifies them in one probe call; only the flat-zero join runs per
    trial, in one call of the chunk's map with that trial's label.  The
    terms of a chunk are evaluated together (``_Term.stack``), each row
    with the bits of its own trial's term, so each trial gets the report
    :func:`find_equilibria` would give its field (:func:`perturb`'s); a
    chunk that raises is solved again one trial at a time.  The base
    is evaluated on the scan grid once, for every trial and for its own
    continuum scan (``base_continuum``, as :func:`continuum_detector` gives
    it, or ``None`` when it raises: every trial then records that error).
    Other failures are recorded per trial.  Results are deterministic.
    """
    if _integer(trials, "trials") < 1:
        raise ValueError("at least one trial is required")
    specs = [spec.with_seed(spec.seed + t) for t in range(trials)]
    field = as_field(base)
    terms = [_perturbation_term(s, field.dim) for s in specs]
    try:
        grid = _base_grid(field)
        base_continuum = _scan(field, grid)[1]
    except Exception as exc:  # noqa: BLE001 - every trial records the base's error
        outcomes, base_continuum = [exc] * trials, None
    else:
        outcomes = _solve(field, terms, solver_config or SolverConfig(), grid)
    records = []
    for t, (trial_spec, outcome) in enumerate(zip(specs, outcomes)):
        if isinstance(outcome, Exception):
            summary = dict(
                n_equilibria=0,
                all_regular=False,
                index_sum=0,
                finite=False,
                error=f"{type(outcome).__name__}: {outcome}",
            )
        else:
            summary = dict(
                n_equilibria=len(outcome.equilibria),
                all_regular=outcome.all_regular,
                index_sum=outcome.index_sum,
                finite=outcome.finite_flag,
            )
        records.append(TrialRecord(t, trial_spec.seed, spec.epsilon, **summary))
    return GenericityResult(tuple(records), base_continuum)
