"""hardylab: desk-scale numerics for Hardy-space interpolation.

Kernels and their norms on the disc, the ball of C^2 and the bidisc;
Carleson-type constants and dual systems of finite point sequences;
Bernoulli-sign expectations and Khintchine ratios; the linear extension
operator and its norm-bound chain; and the Bergman lift.
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
    Domain,
    QuadratureRule,
    build_quadrature,
    rule_norm,
    rule_power,
    seq_norm,
)
from .kernels import (
    INF,
    NormCache,
    NormTable,
    SHConstants,
    conjugate_exponent,
    exponent_from_split,
    kernel_matrix,
    sh_ps_scan,
    sh_q_scan,
)
from .sequences import (
    CarlesonReport,
    DualSystem,
    PointSequence,
    carleson_constant,
    carleson_window_constant,
    dual_bound,
    dual_system,
    gleason_distance,
    gleason_product_delta,
    normalized_kernel_matrix,
    weak_carleson_constant,
)
from .signs import (
    EXACT_CAP,
    SignMoments,
    khintchine_ratio,
    sign_moments,
)
from .extension import (
    ChainSamples,
    ExtensionCoeffs,
    ExtensionReport,
    SplitData,
    build_extension,
    chain_samples,
    coeff_c,
    dual_expectation_bound_infty,
    split_target,
    verify_norm_bound,
)
from .bergman import (
    BergmanSpec,
    bergman_extension,
    bergman_norm,
    restrict,
)

__version__ = "0.1.0"
