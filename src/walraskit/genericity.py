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

import numpy as np

from .decomposition import CanonicalFamily, realize_economy
from .equilibrium import SolverConfig, _index_check, _solve
from .equilibrium import find_equilibria  # noqa: F401 - in this namespace for wrappers such as bench/tracer.py
from .fields import TangentField, _with_term, as_field, chart_field
from .geometry import simplex_point

BASIS_KINDS = ("linear_tilt", "polynomial", "random_fourier")
CONTINUUM_GRID_MARGIN = 0.01


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
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and non-negative")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")
        if self.degree < 1 or self.terms < 1:
            raise ValueError("degree and terms must be at least 1")

    def with_seed(self, seed: int) -> "PerturbationSpec":
        return PerturbationSpec(self.epsilon, self.basis, self.degree, self.terms, seed)


def _basis_functions(spec: PerturbationSpec, dim: int):
    """Componentwise basis value and derivative functions, before scaling."""
    if spec.basis == "linear_tilt":
        return (lambda C: 0.5 - C), (lambda C: -np.ones_like(C))
    rng = np.random.default_rng(spec.seed)
    if spec.basis == "polynomial":
        coeffs = rng.standard_normal((dim, spec.degree + 1))

        def value(C):
            out = np.zeros_like(C)
            for j in range(dim):
                out[:, j] = np.polynomial.polynomial.polyval(C[:, j], coeffs[j])
            return out

        def deriv(C):
            out = np.zeros_like(C)
            for j in range(dim):
                dc = np.polynomial.polynomial.polyder(coeffs[j])
                out[:, j] = np.polynomial.polynomial.polyval(C[:, j], dc)
            return out

        return value, deriv
    # random_fourier
    amp_sin = rng.standard_normal((dim, spec.terms))
    amp_cos = rng.standard_normal((dim, spec.terms))
    k = 2.0 * np.pi * np.arange(1, spec.terms + 1)

    def value(C):
        phases = C[:, :, None] * k  # (n, dim, terms)
        return (amp_sin * np.sin(phases) + amp_cos * np.cos(phases)).sum(axis=2)

    def deriv(C):
        phases = C[:, :, None] * k
        return (k * (amp_sin * np.cos(phases) - amp_cos * np.sin(phases))).sum(axis=2)

    return value, deriv


def _normalizer(value, deriv, dim: int) -> float:
    xs = np.linspace(0.0, 1.0, 1025)
    probe = np.column_stack([xs] * dim)
    sup = max(float(np.abs(value(probe)).max()), float(np.abs(deriv(probe)).max()))
    return sup if sup > 0.0 else 1.0


def _perturbation_term(spec: PerturbationSpec, dim: int):
    """The chart map ``epsilon * basis``, or ``None`` when ``epsilon`` is 0."""
    if spec.epsilon == 0.0:
        return None
    value, deriv = _basis_functions(spec, dim)
    eps = spec.epsilon / _normalizer(value, deriv, dim)
    return lambda C: eps * value(C)


def perturb(field_or_economy, spec: PerturbationSpec) -> TangentField:
    """Add ``epsilon * basis`` (sup-normalised with its derivative) to the chart map."""
    base = as_field(field_or_economy)
    return _with_term(base, _perturbation_term(spec, base.dim))


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
    if grid < 5:
        raise ValueError("grid needs at least 5 points")
    xs = np.linspace(CONTINUUM_GRID_MARGIN, 1.0 - CONTINUUM_GRID_MARGIN, grid)
    target = chart_field(continuum_chart_map(a, b), goods=2)
    points = [simplex_point([x, 1.0 - x]) for x in xs]
    return realize_economy(CanonicalFamily.symmetric(2), target, points)


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
    lattice call (none in two goods, where the lattice is the scan grid)
    and one damped-Newton phase over the stacked starts of a chunk of
    trials, then deduplication, classification and the flat-zero join per
    trial on its perturbed field (the field :func:`perturb` builds), so each
    trial gets the report :func:`find_equilibria` would give it.  Failures are recorded per trial
    and do not abort the batch.  Results are deterministic in the seed.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    specs = [spec.with_seed(spec.seed + t) for t in range(trials)]
    field = as_field(base)
    terms = [_perturbation_term(s, field.dim) for s in specs]
    outcomes = _solve(field, terms, solver_config or SolverConfig())
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
    return GenericityResult(tuple(records))
