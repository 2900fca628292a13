"""Design and retrospective assessment of test-retest repeatability studies.

Estimate the within-subject standard deviation of a quantitative
measurement, build repeatability coefficients for single-subject change
detection, and quantify what estimating that SD (rather than knowing it)
does to the rule's operating characteristics: the distribution, bias,
confidence statements, and worst-case bounds of the effective specificity
and sensitivity, plus the minimal sample sizes that keep them controlled.
A Monte Carlo simulator cross-checks every analytic result.
"""

from .errors import (
    DataValidationError,
    DomainError,
    InfeasibleError,
    RepeatkitError,
)
from .core import (
    LongitudinalPair,
    MethodChoice,
    RepeatabilityCoefficient,
    TestRetestData,
    WsdEstimate,
    decide_change,
    design_degrees_of_freedom,
    estimate_wsd,
    repeatability_coefficient,
    symmetric_coverage_quantile,
)
from .specificity import (
    SampleSizeResult,
    effective_specificity_given_ratio,
    effective_specificity_pdf,
    expected_effective_specificity,
    sample_size_specificity,
    specificity_confidence,
    specificity_lower_bound,
    specificity_shortfall,
)
from .sensitivity import (
    EffectSize,
    SensitivityApproximation,
    effective_sensitivity_given_ratio,
    expected_effective_sensitivity,
    sample_size_sensitivity,
    sensitivity,
    sensitivity_confidence,
    sensitivity_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RepeatkitError",
    "DomainError",
    "InfeasibleError",
    "DataValidationError",
    "TestRetestData",
    "WsdEstimate",
    "RepeatabilityCoefficient",
    "LongitudinalPair",
    "estimate_wsd",
    "repeatability_coefficient",
    "decide_change",
    "design_degrees_of_freedom",
    "symmetric_coverage_quantile",
    "MethodChoice",
    "SampleSizeResult",
    "effective_specificity_given_ratio",
    "effective_specificity_pdf",
    "expected_effective_specificity",
    "specificity_shortfall",
    "specificity_confidence",
    "specificity_lower_bound",
    "sample_size_specificity",
    "EffectSize",
    "SensitivityApproximation",
    "sensitivity",
    "effective_sensitivity_given_ratio",
    "expected_effective_sensitivity",
    "sensitivity_confidence",
    "sensitivity_lower_bound",
    "sample_size_sensitivity",
]
