"""The package's public top level."""

import dataclasses
import types

import gofpower
from gofpower.quadform import DEFAULT_CONFIG, QuadratureConfig

# Every public name of ``gofpower``, submodules excluded.  A change that adds
# or removes one changes the API: it updates this set and says so.
# Three names stay defined in their modules for ``perfbench/tracing.py``,
# which wraps them there by name: ``spectrum.eigendecompose``,
# ``quadform.adaptive_integrate`` and ``quadform.cdf`` (also exported here).
PUBLIC = {
    # model
    "AlternativeError", "BuilderError", "DimensionError", "DistributionError",
    "ModelError", "Perturbation", "PerturbationError", "ProbabilityModel",
    "TruncationError", "alternating_perturbation", "builtin_examples",
    "load_case", "model_from_spec", "perturbation_from_spec", "poisson_model",
    "uniform_model", "zero_perturbation",
    # spectrum
    "Spectrum", "compute_spectrum",
    # quadform
    "CdfEvaluation", "Method", "NumericalFailureError", "QuadratureConfig",
    "cdf", "cdf_many",
    # power
    "CurveMeta", "PowerCurve", "asymptotic_power", "power_curve", "pvalue",
    # montecarlo
    "EmpiricalPowerPoint", "SimulationResult", "empirical_power",
    "simulate_statistics",
}


def test_public_names():
    names = {name for name, value in vars(gofpower).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    assert len(PUBLIC) == 34


def test_quadrature_config_holds_only_the_tolerance():
    # the route threshold is a class constant that perfbench reads from
    # DEFAULT_CONFIG; the bisection budget is a module constant
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol"]
    assert DEFAULT_CONFIG.stability_threshold == 1e8
