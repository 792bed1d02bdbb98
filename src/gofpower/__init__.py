"""Asymptotic power of the Euclidean-distance goodness-of-fit test.

Given a multinomial model p0 over m bins and a local alternative
p0 + a/sqrt(n), this package computes the limiting distribution of
n times the squared Euclidean distance between the empirical proportions
and p0, the CDF of that limit by adaptive contour-integral quadrature,
asymptotic power curves, and a Monte-Carlo cross-check at finite n.
"""

from .model import (
    AlternativeError,
    BuilderError,
    DimensionError,
    DistributionError,
    ModelError,
    Perturbation,
    PerturbationError,
    ProbabilityModel,
    TruncationError,
    alternating_perturbation,
    builtin_examples,
    load_case,
    model_from_spec,
    perturbation_from_spec,
    poisson_model,
    uniform_model,
    zero_perturbation,
)
from .spectrum import Spectrum, compute_spectrum
from .quadform import (
    CdfEvaluation,
    Method,
    NumericalFailureError,
    QuadratureConfig,
    cdf,
    cdf_many,
)
from .power import (
    CurveMeta,
    PowerCurve,
    asymptotic_power,
    power_curve,
    pvalue,
)
from .montecarlo import (
    EmpiricalPowerPoint,
    SimulationResult,
    empirical_power,
    simulate_statistics,
)

__version__ = "0.1.0"
