"""Norms of weighted variable-exponent function spaces and the multilinear
Hausdorff averaging operators acting between them."""

from .exponents import (
    Constant,
    LogInterp,
    PiecewiseRadial,
    PowerWeight,
    ball_measure,
    combine_reciprocal,
    difference_reciprocal,
    eval_exponent,
    exponent_range,
    pullback_exponent,
    sphere_area,
)
from .luxemburg import (
    ExponentExpr,
    ExprTerm,
    PiecewisePowerFunction,
    Region,
    Segment,
    luxemburg_norm,
    modular,
    norm_of_one,
    weighted_vexp_norm,
)
from .matrices import (
    DiagonalEqualModulus,
    Dilation,
    OrthogonalTimesScalar,
    PowerMap,
    ScalarDilation,
    c_factor,
    dyadic_exponent,
    frobenius_norm,
    inverse_stats,
    rho_bound,
    theta_star,
)
from .spaces import (
    SpaceSpec,
    central_morrey_norm,
    herz_norm,
    morrey_herz_norm,
    shell_norm,
    space_norm,
)
from .hausdorff import (
    OperatorSpec,
    RadialKernel,
    apply_on_grid,
    apply_pointwise,
    from_hardy_cesaro,
    from_hardy_littlewood,
    from_multilinear_hardy_cesaro,
    operator_ratio,
)
from .bounds import (
    BoundConfig,
    BoundResult,
    SlotParams,
    evaluate_constant,
    sharpness_region_check,
    slot_region_values,
)
from .harness import (
    extremal_family,
    random_test_functions,
    sharpness_sweep,
    upper_bound_suite,
)

__version__ = "0.1.0"
