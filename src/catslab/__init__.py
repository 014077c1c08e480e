"""Catenoids in a slab: exact clipped-catenoid geometry, marginal stability,
sharp spanning thresholds, minimal annuli from Laurent Weierstrass data, and
the closed-curve curvature eigenvalue functional.

Events that matter to the paper, such as an oval functional below the
conjectured constant 1, go to the ``catslab`` logger, which has only a
NullHandler until the application configures logging."""

import logging

from .errors import ConvergenceError, DataInvalidError, ResolutionError
from .geometry import (
    CANONICAL_SLAB,
    CatenoidPiece,
    Slab,
    area_by_quadrature,
    area_in_slab,
    boundary_length,
    level_length,
    ms_indicator,
    ms_indicator_zero,
    parameterize,
    reduce_to_canonical,
    solve_lambda0,
    vertical_flux,
)
from .ovals import ClosedCurve, lowest_eigenvalue, rayleigh_quotient
from .stability import (
    ConeTangency,
    JacobiSpectrumResult,
    cat_ms,
    dilation_jacobi_field,
    lowest_jacobi_eigenvalue,
    tangent_cone_heights,
)
from .thresholds import (
    MsSolution,
    SpanningResult,
    f_omega,
    l_crit,
    ms_piece_for_lower_length,
    spanning_catenoids,
)
from .weierstrass import (
    LevelProfile,
    SampledAnnulus,
    WeierstrassData,
    area_comparison,
    catenoid_data,
    convexity_check,
    cpx_inequality_check,
    flux,
    immerse,
    level_profile,
    second_derivative_decomposition,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
