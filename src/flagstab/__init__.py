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
    initial_part,
    monomials_of_degree,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    canonical_generators,
    eliminate,
    gb_memo,
    ideal_equal,
    normal_form,
    restrict_to_variables,
)
from .hilbert import (
    HilbertData,
    HilbertSeries,
    PointConfiguration,
    PreconditionError,
    StabilityVerdict,
    chow_points_stability,
    chow_weight_numeric,
    hilbert_data,
    hilbert_function,
    hilbert_series,
)
from .geometry import (
    JoinCheckReport,
    LimitMismatch,
    Splitting,
    flat_limit,
    flat_limit_oracle,
    is_nondegenerate,
    projection_dominant,
    singular_locus_empty,
    verify_limit_is_join,
)
from .parabolic import (
    GradedOnePS,
    StageData,
    configuration_unipotent_stabilizer_dim,
    stage_data,
)
from .flags import (
    AdmissibilityResult,
    FlagConfiguration,
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
