"""flagstab: exact computational tools for flat limits, Chow weights and
staged stability of hyperplanar flags of projective subschemes."""

__version__ = "0.1.0"

from .poly import (
    GRLEX,
    DimensionError,
    HomogeneousIdeal,
    Monomial,
    OnePS,
    Polynomial,
    TermOrder,
    compare,
    initial_part,
    monomials_of_degree,
    weight_order,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    canonical_generators,
    contains_oracle,
    degree_dimension,
    eliminate,
    gb_memo,
    ideal_equal,
    normal_form,
    restrict_to_variables,
    s_polynomial,
)
from .hilbert import (
    HilbertData,
    HilbertSeries,
    InternalLimitError,
    PointConfiguration,
    PreconditionError,
    StabilityVerdict,
    chow_points_stability,
    chow_weight_join,
    chow_weight_numeric,
    chow_weight_single_space,
    hilbert_data,
    hilbert_function,
    hilbert_series,
    weighted_slice_weight,
)
from .geometry import (
    JoinCheckReport,
    Splitting,
    coordinate_section,
    flat_limit,
    flat_limit_oracle,
    is_nondegenerate,
    join_ideal,
    linear_section,
    projection_dominant,
    singular_locus_empty,
    tangent_space_dim,
    verify_limit_is_join,
)
from .parabolic import (
    BlockProfile,
    GradedOnePS,
    StageData,
    block_profile,
    configuration_unipotent_stabilizer_dim,
    stage_data,
)
from .flags import (
    AdmissibilityResult,
    FlagConfiguration,
    FlagLimitMismatch,
    FlagValidationReport,
    HyperplanarFlag,
    StabilityReport,
    StageCheck,
    check_flag_stability,
    degree_admissible,
    flag_limit,
    flag_stage_weight,
    nrgit_stage_check,
    standard_grading,
    validate_flag,
)

__all__ = [name for name in dir() if not name.startswith("_")]
