"""Exact Waring ranks and power-sum decompositions for sums of pairwise
coprime monomials."""

from .cyclotomic import (
    CyclotomicNumber,
    DivisibilityError,
    cyclotomic_embed,
    cyclotomic_polynomial,
    euler_phi,
)
from .linalg import (
    InconsistentSystemError,
    LinearSystem,
    UnderdeterminedSystemError,
    solve_exact,
)
from .polynomials import Polynomial, apply_differential
from .forms import (
    CoprimeForm,
    MixedDegreeError,
    Monomial,
    MonomialIdeal,
    NonCoprimeError,
    ParseError,
    parse_form,
    parse_homogeneous,
    perp_generators,
    render_form,
)
from .rank import (
    GenericRank,
    asymptotic_ratio_report,
    generic_rank,
    max_monomial_rank,
    max_monomial_rank_3vars,
    quadratic_form_rank,
    rank_coprime_sum,
    rank_monomial,
    survey_max_monomial_rank,
)
from .apolarity import (
    CatalecticantMatrix,
    catalecticant,
    catalecticant_lower_bound,
    claim_ideals,
    hf_table,
    annihilator_membership,
    intersect_monomial_ideals,
    verify_claim_identity,
)
from .decompose import (
    PowerSumDecomposition,
    decompose_form,
    decomposition_points,
    least_variable_check,
    solve_gammas,
    verify_decomposition,
)

__version__ = "0.1.0"

# the classes and functions imported above; the submodules are not callable
__all__ = [name for name, value in globals().items()
           if callable(value) and not name.startswith("_")]
