"""Fading-memory smoothers and differentiators.

Recursive low-pass filters obtained from discounted least-squares
polynomial regression: tunable-delay causal smoothers/differentiators,
zero-phase two-sided variants, frequency-response analysis, streaming
and image filtering runtimes, and a gradient-based dense-flow pipeline
with a moving-target disparity map.
"""

from .weights import Causality, WeightSpec, weight_moments
from .basis import BasisSet, orthonormal_basis, synthesis_weights
from .design import (
    FilterDesign,
    LdeCoefficients,
    NonCausalPair,
    SpectrumFilterBank,
    binomial_denominator,
    derive_causal_lde,
    derive_noncausal_pair,
    impulse_response_prefix,
    pole_multiplicity,
    spectrum_filter_bank,
)
from .closed_form import (
    ClosedForm,
    closed_form_coefficients,
    closed_form_for,
    optimal_q,
)
from .response import (
    ResponseTable,
    evaluate_response,
    flatness_report,
    frequency_response,
    group_delay,
    nyquist_gain,
    white_noise_gain,
    write_response_csv,
)
from .runtime import (
    Axis,
    FilterState,
    FrameFilter,
    Priming,
    filter_causal,
    filter_image_separable,
    filter_noncausal,
    filter_time_stack,
)
from .flow import (
    FlowConfig,
    FlowField,
    FlowResult,
    background_disparity,
    process_sequence,
    solve_flow,
)
from .synthetic import (
    add_gaussian_blob,
    translating_plaid,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BasisSet",
    "Causality",
    "ClosedForm",
    "FilterDesign",
    "FilterState",
    "FlowConfig",
    "FlowField",
    "FlowResult",
    "FrameFilter",
    "LdeCoefficients",
    "NonCausalPair",
    "Priming",
    "ResponseTable",
    "SpectrumFilterBank",
    "WeightSpec",
    "add_gaussian_blob",
    "background_disparity",
    "binomial_denominator",
    "closed_form_coefficients",
    "closed_form_for",
    "derive_causal_lde",
    "derive_noncausal_pair",
    "evaluate_response",
    "filter_causal",
    "filter_image_separable",
    "filter_noncausal",
    "filter_time_stack",
    "flatness_report",
    "frequency_response",
    "group_delay",
    "impulse_response_prefix",
    "nyquist_gain",
    "optimal_q",
    "orthonormal_basis",
    "pole_multiplicity",
    "process_sequence",
    "solve_flow",
    "spectrum_filter_bank",
    "synthesis_weights",
    "translating_plaid",
    "weight_moments",
    "white_noise_gain",
    "write_response_csv",
]
