"""Per-position alias statistics for device response data.

Confidence intervals and exact qualification tests for the probability of a 1
at each position of a response across a device population, together with the
planning tools (device counts for width, false acceptance, and false
rejection targets), early-abort forecasts, entropy conversions, simulation,
file formats, and a command-line front end.
"""

from .analysis import (AnalysisConfig, AnalysisResult, AnalysisSummary,
                       EarlyStopConfig, PositionReport, analyze, analyze_counts,
                       render_report)
from .confidence import (METHODS, AliasSweep, DeviceSweep, Interval, PlanResult,
                         ci_clopper_pearson, ci_normal, ci_width, ci_width_curve,
                         ci_wilson, confidence_interval, plan_devices_exact,
                         plan_devices_normal, worst_case_width)
from .entropy import (EntropySpec, limits_from_min_entropy,
                      limits_from_shannon_entropy, limits_from_spec,
                      min_entropy_from_limits, shannon_entropy)
from .errors import (BitAliasError, CapacityError, ConvergenceError, DomainError,
                     FormatError, PerfectEntropyError)
from .formats import (load_counts, load_measurement_counts, load_measurements, write_counts,
                      write_measurements)
from .qualification import (AcceptanceRegion, AliasLimits, EarlyStopAdvice,
                            TestVerdict, acceptance_probability, acceptance_region,
                            early_stop_decision, early_stop_p_values,
                            p_value_lower, p_value_upper, plan_devices_frr,
                            test_position)
from .response import (MeasurementTensor, NoiseFreeResponse, PositionCounts,
                       bit_alias, count_ones, derive_noise_free_response)
from .simulate import ALIAS_PROFILES, PopulationSpec, rng_stream, simulate_population
from .special import (binomial_cdf, binomial_pmf_log, binomial_range_mass,
                      binomial_sf, beta_quantile, regularized_incomplete_beta,
                      std_normal_cdf, std_normal_quantile)
from .validate import (CoverageParams, MonteCarloEstimate, QualificationParams,
                       monte_carlo_validate)

__version__ = "0.1.0"

__all__ = [
    "ALIAS_PROFILES", "AcceptanceRegion", "AliasLimits", "AliasSweep",
    "AnalysisConfig", "AnalysisResult", "AnalysisSummary", "BitAliasError",
    "CapacityError", "ConvergenceError", "CoverageParams", "DeviceSweep",
    "DomainError", "EarlyStopAdvice", "EarlyStopConfig", "EntropySpec",
    "FormatError", "Interval", "METHODS", "MeasurementTensor",
    "MonteCarloEstimate", "NoiseFreeResponse", "PerfectEntropyError",
    "PlanResult", "PopulationSpec", "PositionCounts", "PositionReport",
    "QualificationParams", "TestVerdict", "acceptance_probability",
    "acceptance_region", "analyze", "analyze_counts", "beta_quantile",
    "binomial_cdf", "binomial_pmf_log", "binomial_range_mass", "binomial_sf",
    "bit_alias", "ci_clopper_pearson", "ci_normal", "ci_width",
    "ci_width_curve", "ci_wilson", "confidence_interval", "count_ones",
    "derive_noise_free_response", "early_stop_decision", "early_stop_p_values",
    "limits_from_min_entropy", "limits_from_shannon_entropy", "limits_from_spec",
    "load_counts", "load_measurement_counts", "load_measurements", "min_entropy_from_limits",
    "monte_carlo_validate", "p_value_lower", "p_value_upper",
    "plan_devices_exact", "plan_devices_frr", "plan_devices_normal",
    "regularized_incomplete_beta", "render_report", "rng_stream",
    "shannon_entropy", "simulate_population",
    "std_normal_cdf", "std_normal_quantile", "test_position",
    "worst_case_width", "write_counts", "write_measurements",
]
