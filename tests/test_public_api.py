import fadefilt

PUBLIC_NAMES = [
    "Axis", "BasisSet", "Causality", "ClosedForm", "FilterDesign", "FilterState",
    "FlowConfig", "FlowField", "FlowResult", "FrameFilter", "LdeCoefficients",
    "NonCausalPair", "Priming", "ResponseTable", "SpectrumFilterBank", "WeightSpec",
    "add_gaussian_blob", "background_disparity", "binomial_denominator",
    "closed_form_coefficients", "closed_form_for", "derive_causal_lde",
    "derive_noncausal_pair", "evaluate_response", "filter_causal", "filter_image_separable",
    "filter_noncausal", "filter_time_stack", "flatness_report", "frequency_response",
    "group_delay", "impulse_response_prefix", "nyquist_gain", "optimal_q",
    "orthonormal_basis", "pole_multiplicity", "process_sequence", "solve_flow",
    "spectrum_filter_bank", "synthesis_weights", "translating_plaid",
    "weight_moments", "white_noise_gain", "write_response_csv",
]


def test_public_names_are_pinned():
    # a change to the public API is a deliberate edit of this list
    assert sorted(fadefilt.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 44
    for name in PUBLIC_NAMES:
        assert hasattr(fadefilt, name)
