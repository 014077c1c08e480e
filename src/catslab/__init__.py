"""Catenoids in a slab: exact clipped-catenoid geometry, marginal stability,
sharp spanning thresholds, minimal annuli from Laurent Weierstrass data, and
the closed-curve curvature eigenvalue functional.

Events that matter to the paper, such as an oval functional below the
conjectured constant 1, go to the ``catslab`` logger, which has only a
NullHandler until the application configures logging.

The names below are exported lazily (PEP 562): ``import catslab`` loads no
submodule, and each name imports its module on first access, so the scalar
modules run without numpy unless an array module is used."""

import importlib
import logging

# the module that defines each exported name
_EXPORTS = {
    "errors": ("ConvergenceError", "DataInvalidError", "ResolutionError"),
    "geometry": (
        "CANONICAL_SLAB", "CatenoidPiece", "Slab", "area_by_quadrature", "area_in_slab",
        "boundary_length", "level_length", "parameterize", "reduce_to_canonical",
        "solve_lambda0", "vertical_flux",
    ),
    "ovals": ("ClosedCurve", "lowest_eigenvalue", "rayleigh_quotient"),
    "stability": (
        "ConeTangency", "JacobiSpectrumResult", "cat_ms", "dilation_jacobi_field",
        "jacobi_nu1", "lowest_jacobi_eigenvalue", "tangent_cone_heights",
    ),
    "thresholds": (
        "MsSolution", "SpanningResult", "f_omega", "l_crit", "ms_piece_for_lower_length",
        "spanning_catenoids",
    ),
    "weierstrass": (
        "LevelProfile", "SampledAnnulus", "WeierstrassData", "area_comparison",
        "catenoid_data", "convexity_check", "cpx_inequality_check", "immerse",
        "level_profile", "second_derivative_decomposition",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


logging.getLogger(__name__).addHandler(logging.NullHandler())
