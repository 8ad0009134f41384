"""schurlab: a numerical laboratory for idempotent Schur multipliers.

Classifies smooth product domains by boundary geometry, estimates
Schatten-p multiplier norms on discretizations, exercises directional
Hilbert transforms and their square functions, and checks the Lie-group
criteria (Cotlar identities, codimension-1 subalgebras, finite
transference) behind the corresponding Fourier idempotents.
"""

from .errors import SchurLabError
from .matcore import (
    multiplier_norm_lower_bound,
    schatten_norm,
    schur_product,
)
from .symbols import (
    SymbolSpec,
    BoundaryPoint,
    ball,
    gradient,
    halfspace,
    mixed_hessian,
    sphere_delta,
    toeplitz_ball,
    triangular,
    user_symbol,
)
from .geometry import (
    CURVATURE_FAIL,
    INCONCLUSIVE,
    NON_TRANSVERSE,
    TRIANGULAR_MODEL,
    ClassificationReport,
    boundary_project,
    classify,
    transversality_check,
    zero_curvature_check_c1,
)
from .multiplier import (
    NormGrowthRecord,
    compression_jp,
    discretize_symbol,
    norm_growth_experiment,
    pullback_symbol,
)
from .harmonic import (
    directional_hilbert,
    scaling_limit_check,
    solve_T,
    square_function_test,
)
from .groups import (
    boundary_subalgebra_verdict,
    cotlar_pointwise_check,
    fourier_multiplier_norm_finite_cyclic,
    herz_schur_matrix,
    subalgebra_check,
)

__version__ = "0.1.0"
