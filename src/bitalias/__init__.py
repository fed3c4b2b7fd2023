"""Per-position alias statistics for device response data.

Confidence intervals and exact qualification tests for the probability of a 1
at each position of a response across a device population, together with the
planning tools (device counts for width, false acceptance, and false
rejection targets), early-abort forecasts, entropy conversions, simulation,
file formats, and a command-line front end.

Every public name is loaded from its submodule on first access (PEP 562), so
the scalar statistics, the planners and the path from a measurement or counts
file to a report run without importing numpy.  ``simulate`` and ``validate``
load it, and so do the functions that build or read an array:
``MeasurementTensor`` and its one-repeat subclass ``NoiseFreeResponse``,
``count_ones``, ``bit_alias`` and ``write_measurements``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("AnalysisConfig", "AnalysisResult", "AnalysisSummary", "EarlyStopConfig",
                 "PositionReport", "analyze", "analyze_counts"),
    "confidence": ("METHODS", "AliasSweep", "DeviceSweep", "Interval", "PlanResult",
                   "ci_clopper_pearson", "ci_normal", "ci_width", "ci_width_curve",
                   "ci_wilson", "confidence_interval", "plan_devices_exact",
                   "plan_devices_normal", "worst_case_width"),
    "entropy": ("EntropySpec", "limits_from_min_entropy", "limits_from_shannon_entropy",
                "limits_from_spec", "min_entropy_from_limits", "shannon_entropy"),
    "errors": ("BitAliasError", "CapacityError", "ConvergenceError", "DomainError",
               "FormatError", "PerfectEntropyError"),
    "formats": ("load_counts", "load_measurement_counts", "load_measurements",
                "write_counts", "write_measurements"),
    "qualification": ("AcceptanceRegion", "AliasLimits", "EarlyStopAdvice", "TestVerdict",
                      "acceptance_probability", "acceptance_region", "early_stop_decision",
                      "early_stop_p_values", "p_value_lower", "p_value_upper",
                      "plan_devices_frr", "test_position"),
    "report": ("render_report",),
    "response": ("MeasurementTensor", "NoiseFreeResponse", "PositionCounts", "bit_alias",
                 "count_ones", "derive_noise_free_response"),
    "simulate": ("ALIAS_PROFILES", "PopulationSpec", "rng_stream", "simulate_population"),
    "special": ("binomial_cdf", "binomial_pmf_log", "binomial_range_mass", "binomial_sf",
                "beta_quantile", "regularized_incomplete_beta", "std_normal_cdf",
                "std_normal_quantile"),
    "validate": ("CoverageParams", "MonteCarloEstimate", "QualificationParams",
                 "monte_carlo_validate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
