"""hardylab: desk-scale numerics for Hardy-space interpolation.

Kernels and their norms on the disc, the ball of C^2 and the bidisc;
Carleson-type constants and dual systems of finite point sequences;
Bernoulli-sign expectations and Khintchine ratios; the linear extension
operator with its randomized factorization; and the Bergman lift.
"""

from .errors import (
    CapacityError,
    ContractError,
    DependencyError,
    DomainError,
    HardyLabError,
    IllConditionedError,
    InvariantViolation,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedDomainError,
)
from .geometry import (
    BALL2,
    BIDISC,
    DISC,
    BoundarySamples,
    Domain,
    QuadratureRule,
    build_quadrature,
    domain,
    inner_product,
    integrate,
    lp_norm,
    sample_function,
    seq_norm,
)
from .kernels import (
    INF,
    BlaschkeFactor,
    HoloExpr,
    KernelFactor,
    NormCache,
    NormTable,
    SHConstants,
    analytic_projection_eval,
    conjugate_exponent,
    exponent_from_split,
    holder_interp_check,
    interpolation_theta,
    kernel_diag,
    kernel_eval,
    kernel_norm,
    kernel_samples,
    kernel_values,
    poisson_kernel,
    reproducing_check,
    sh_ps_scan,
    sh_q_scan,
    stein_weiss_weight_check,
)
from .sequences import (
    CarlesonReport,
    DualSystem,
    PointSequence,
    carleson_constant,
    carleson_window_constant,
    dual_bound,
    dual_system_blaschke,
    dual_system_collocation,
    dual_system_gram,
    gleason_distance,
    gleason_product_delta,
    normalized_kernel_matrix,
    weak_carleson_constant,
    weak_ratio_at,
)
from .signs import (
    EXACT_CAP,
    SignMoments,
    khintchine_ratio,
    sign_matrix_chunks,
    sign_moments,
    weak_from_carleson_check,
)
from .extension import (
    ExtensionCoeffs,
    ExtensionReport,
    SplitData,
    build_extension,
    coeff_c,
    dual_expectation_bound_infty,
    dual_expectation_bound_p_le_2,
    interior_panel,
    randomized_factorization,
    split_target,
    verify_norm_bound,
)
from .bergman import (
    BergmanSpec,
    bergman_extension,
    bergman_kernel_eval,
    bergman_norm,
    kernel_norm_link_residual,
    lift,
    restrict,
    subordination_check,
)

__version__ = "0.1.0"
