"""Exact span-membership decisions for vectors of linear forms and the
corresponding rank-1-idempotent-freeness decisions for matrix subspaces."""

from .exactalg import (
    MINUS_INFINITY,
    QQ,
    Field,
    Polynomial,
    PrimeField,
    RationalFunction,
    coordinate_vector,
    format_polynomial,
    monic,
    poly_gcd,
    poly_lcm,
    reduce_fraction,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    normal_form,
    radical_membership,
)
from .localmem import (
    BudgetExceededError,
    CramerWitness,
    LinearSubspace,
    LocalDecision,
    MinorFailure,
    PointFailure,
    WitnessBoundsReport,
    common_nullvector,
    fraction_span_only_example,
    has_free_rank,
    local_membership_closure,
    local_membership_points,
    local_only_example,
    pencil_coefficients,
    span_over_field,
    span_over_fractions,
    verify_witness_bounds,
)
from .matspace import (
    MatrixSubspace,
    Rank1Idempotent,
    find_rank1_idempotent,
    flat,
    is_rank1_idempotent_free,
    is_subspace_of_tracezero,
    perp,
    trace_pairing,
    unflat,
)
from .polymat import (
    PolyMatrix,
    ScalarMatrix,
    nullspace_over_field,
    rank,
    rref,
    solve_over_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
