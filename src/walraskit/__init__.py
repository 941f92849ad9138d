"""walraskit: excess-demand analysis for pure-exchange economies.

Prices live on the open unit simplex (equivalently the positive part of the
unit sphere); economies of Cobb-Douglas consumers induce aggregate
excess-demand fields tangent to the price sphere.  The package locates and
classifies the Walrasian equilibria of such fields, decomposes arbitrary
tangent fields into strictly positive combinations of canonical consumer
demands (and realises them as economies), runs seeded perturbation
experiments on economies with continua of equilibria, and checks sampled
demand data against the Strong Axiom of Revealed Preference.
"""

from .consumers import (
    Consumer,
    Economy,
    aed,
    demand,
)
from .decomposition import (
    CanonicalFamily,
    DecompositionWitness,
    PositiveSpanningError,
    decompose_at,
    kernel_weights,
    positive_kernel,
    realize_economy,
)
from .econfile import (
    EconomyFormatError,
    load_dataset,
    load_economy,
    save_dataset,
    save_economy,
)
from .equilibrium import (
    ContinuumReport,
    Equilibrium,
    EquilibriumReport,
    JacobianConsistencyError,
    chart_jacobian,
    classify,
    continuum_detector,
    find_equilibria,
    multiplicity_estimate,
)
from .fields import (
    TangentField,
    chart_field,
    economy_field,
)
from .genericity import (
    GenericityResult,
    PerturbationSpec,
    build_continuum_economy,
    genericity_experiment,
    perturb,
)
from .geometry import (
    ChartPoint,
    PricePoint,
    TangentVector,
    simplex_point,
    simplex_to_sphere,
    tangent_project,
)
from .revealed import (
    AuditReport,
    ObservationDataset,
    SarpResult,
    sarp_check,
    scaled_field_audit,
)
from .scales import (
    BumpScale,
    ConstantScale,
    KernelSampledScale,
    PolynomialScale,
    SampledScale,
    scale_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BumpScale",
    "CanonicalFamily",
    "ChartPoint",
    "ConstantScale",
    "Consumer",
    "ContinuumReport",
    "DecompositionWitness",
    "Economy",
    "EconomyFormatError",
    "Equilibrium",
    "EquilibriumReport",
    "GenericityResult",
    "JacobianConsistencyError",
    "KernelSampledScale",
    "ObservationDataset",
    "PerturbationSpec",
    "PolynomialScale",
    "PositiveSpanningError",
    "PricePoint",
    "SampledScale",
    "SarpResult",
    "TangentField",
    "TangentVector",
    "aed",
    "build_continuum_economy",
    "chart_field",
    "chart_jacobian",
    "classify",
    "continuum_detector",
    "decompose_at",
    "demand",
    "economy_field",
    "find_equilibria",
    "genericity_experiment",
    "kernel_weights",
    "load_dataset",
    "load_economy",
    "multiplicity_estimate",
    "perturb",
    "positive_kernel",
    "realize_economy",
    "sarp_check",
    "save_dataset",
    "save_economy",
    "scale_from_dict",
    "scaled_field_audit",
    "simplex_point",
    "simplex_to_sphere",
    "tangent_project",
]
