"""Exact-arithmetic cooperative games on simplicial complexes."""

from .complexes import EMPTY_FACE, Face, FVector, SimplicialComplex, full_simplex, load_complex
from .exactnum import (
    LinearSolution,
    RationalMatrix,
    SolveStatus,
    format_rational,
    parse_rational,
    solve_exact,
)
from .games import (
    Game,
    carrier_game,
    load_game,
    random_dummy_game,
    random_game,
    random_monotone_game,
    scale_add,
)
from .symmetry import (
    ContainmentReport,
    Permutation,
    ShapleyClassification,
    check_pi_delta_contained,
    classify_shapley,
    moved_facet,
    permutation_preserves,
    pi_delta_generators,
    solve_p_system,
    swap_permutation,
    symm_group,
)
from .values import (
    Decomposition,
    EfficiencyCheck,
    ProbabilityTable,
    axiom_suite,
    canonical_shapley_tables,
    check_efficiency_identity,
    classical_shapley_all,
    classical_shapley_oracle,
    decompose_shapley,
    efficiency_coefficients,
    generalized_shapley,
    group_value,
    probabilistic_value,
    shapley_efficiency_closed_form,
    shapley_weights,
)

__version__ = "0.1.0"
