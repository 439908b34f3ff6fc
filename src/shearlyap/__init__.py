"""Rigorous Lyapunov-exponent bounds for random products of two shear matrices.

The random product applies, with a fair coin at each step, a lower shear of
strength alpha or an upper shear of strength beta.  Grouping runs into
blocks A^a B^b with geometric weights 2^-(a+b) turns invariant-cone growth
estimates into explicit upper and lower bounds for the Lyapunov exponent
and for the generalised (q-th moment) exponents, in both the positive
(alpha, beta >= 1) and opposed (alpha < -2, beta > 2) regimes.  Monte
Carlo estimators validate every bound.
"""

from .linalg import (
    BlockExponents,
    DomainError,
    NormKind,
    Regime,
    ShearOverflowError,
    ShearParams,
    k_ab,
    spectral_norm_batch,
)
from .cones import (
    Cone,
    SlopeUndefinedError,
    gamma,
    gamma_mab,
    improved_cone,
    invariant_cone,
    map_slope,
)
from .growth import (
    Side,
    cases_for,
    evaluator,
    growth_ratio,
    norms_for,
)
from .series import (
    DEFAULT_SERIES,
    NonConvergenceError,
    SeriesConfig,
    SeriesResult,
    expect_block,
    expect_block_exact_poly,
    expect_block_report,
    kappa,
    polylog_half,
    truncated_sum,
)
from .engine import (
    BoundFamily,
    BoundReport,
    Bounds,
    ExactGleBounds,
    GLECurve,
    closed_form_bounds,
    entropy_bounds,
    gle_bounds,
    gle_bounds_report,
    gle_curve,
    gle_exact_integer,
    lyapunov_bounds,
)
from .montecarlo import (
    BlockStats,
    McConfig,
    McEstimate,
    RNG_ALGORITHM,
    block_oracle,
    gle_mc,
    lyapunov_mc,
    standard_bound,
)

__version__ = "0.1.0"
