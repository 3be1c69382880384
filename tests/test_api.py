"""The package's public names, pinned so that any change to them is made on
purpose."""

import waring

PUBLIC_NAMES = [
    "CatalecticantMatrix",
    "CoprimeForm",
    "CyclotomicNumber",
    "DivisibilityError",
    "GenericRank",
    "InconsistentSystemError",
    "LinearSystem",
    "MixedDegreeError",
    "Monomial",
    "MonomialIdeal",
    "NonCoprimeError",
    "ParseError",
    "Polynomial",
    "PowerSumDecomposition",
    "UnderdeterminedSystemError",
    "annihilator_membership",
    "apply_differential",
    "asymptotic_ratio_report",
    "catalecticant",
    "catalecticant_lower_bound",
    "claim_ideals",
    "cyclotomic_embed",
    "cyclotomic_polynomial",
    "decompose_form",
    "decomposition_points",
    "euler_phi",
    "generic_rank",
    "hf_table",
    "intersect_monomial_ideals",
    "least_variable_check",
    "max_monomial_rank",
    "max_monomial_rank_3vars",
    "parse_form",
    "parse_homogeneous",
    "perp_generators",
    "quadratic_form_rank",
    "rank_coprime_sum",
    "rank_monomial",
    "render_form",
    "solve_exact",
    "solve_gammas",
    "survey_max_monomial_rank",
    "verify_claim_identity",
    "verify_decomposition",
]


def test_public_names_are_pinned():
    assert sorted(waring.__all__) == PUBLIC_NAMES
