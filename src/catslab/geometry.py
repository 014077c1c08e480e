"""Exact geometry of vertical catenoids clipped to a horizontal slab.

A vertical catenoid of scale ``lam`` translated by ``t`` along the axis is the
surface of revolution ``x1^2 + x2^2 = lam^2 cosh^2((x3 - t)/lam)``.  Clipping
it to the slab between two horizontal planes gives the pieces this module
measures: area, boundary length, horizontal slice lengths, vertical flux, and
the unique scale ``lambda0`` at which both area and boundary length of the
clipped family are minimized.

General slabs are reduced to the canonical slab [-1, 1] by a vertical
translation plus homothety before any closed form is applied; the reduction is
exposed (``reduce_to_canonical``) so the covariance can be tested directly.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError
from .rootfind import bracketed_root

# central-difference step of the quadrature's radial slope, times the scale
_STENCIL_STEP = 1e-5
# agreement of the n- and n/2-node area rules: above the slope's rounding
# noise, below the CLI's default area_rtol of 1e-8
_AREA_RTOL = 1e-9


# math.sinh and math.cosh, with a signed infinity where they overflow
def _sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _log_cosh(x: float) -> float:
    """log(cosh(x)) without overflow for large |x|."""
    return abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0)


@dataclass(frozen=True)
class Slab:
    """Open region between the horizontal planes x3 = h_minus and x3 = h_plus."""

    h_minus: float
    h_plus: float

    def __post_init__(self):
        if not (math.isfinite(self.h_minus) and math.isfinite(self.h_plus)):
            raise ValueError("slab heights must be finite")
        if not self.h_minus < self.h_plus:
            raise ValueError(
                f"degenerate slab: h_minus={self.h_minus} must be < h_plus={self.h_plus}"
            )
        # Python floats overflow quietly to inf
        height, twice_mid = self.h_plus - self.h_minus, self.h_plus + self.h_minus
        if not (math.isfinite(height) and math.isfinite(twice_mid)):
            raise ValueError("slab height and midpoint must be finite")
        if not 0.5 * height >= sys.float_info.min:  # the canonical reduction divides by it
            raise ValueError(
                f"slab [{self.h_minus!r}, {self.h_plus!r}]: half height {0.5 * height!r} "
                "is below the normal doubles"
            )

    @property
    def height(self) -> float:
        return self.h_plus - self.h_minus

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.h_minus + self.h_plus)

    @property
    def half_height(self) -> float:
        return 0.5 * (self.h_plus - self.h_minus)

    def contains_height(self, h: float) -> bool:
        return self.h_minus <= h <= self.h_plus


CANONICAL_SLAB = Slab(-1.0, 1.0)


@dataclass(frozen=True)
class CatenoidPiece:
    """Vertical catenoid of scale ``scale`` and vertical offset ``offset``, clipped to ``slab``."""

    scale: float
    offset: float
    slab: Slab

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")


def reduce_to_canonical(piece: CatenoidPiece) -> tuple[CatenoidPiece, float, float]:
    """Map a piece to the canonical slab [-1, 1].

    Returns ``(canonical_piece, c, m)`` where the original is recovered by the
    homothety ``x -> c*x`` followed by the vertical translation ``+ m*e3``.
    Areas scale by c^2 and lengths by c under this map.
    """
    c = piece.slab.half_height
    m = piece.slab.midpoint
    canonical = CatenoidPiece(piece.scale / c, (piece.offset - m) / c, CANONICAL_SLAB)
    return canonical, c, m


def _radius(piece: CatenoidPiece, h):
    """Radius lam*cosh((h - t)/lam) of the slice circle at height(s) ``h``."""
    import numpy as np

    return piece.scale * np.cosh((h - piece.offset) / piece.scale)


def parameterize(piece: CatenoidPiece, h, theta) -> np.ndarray:
    """Point(s) of the clipped catenoid at ambient height ``h`` and angle ``theta``.

    Returns an array with shape ``broadcast(h, theta) + (3,)``.  Heights outside
    the closed slab raise ValueError.
    """
    import numpy as np

    h = np.asarray(h, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(h < piece.slab.h_minus) or np.any(h > piece.slab.h_plus):
        raise ValueError(
            f"height out of range [{piece.slab.h_minus}, {piece.slab.h_plus}]"
        )
    r = _radius(piece, h)
    return np.stack(np.broadcast_arrays(r * np.cos(theta), r * np.sin(theta), h), axis=-1)


def area_in_slab(piece: CatenoidPiece) -> float:
    """Area of the clipped catenoid.

    On the canonical slab this is ``pi*lam^2*cosh(2t/lam)*sinh(2/lam) + 2*pi*lam``;
    general slabs go through the canonical reduction (area scales by c^2).
    Where c^2 or lam^2 alone leaves the doubles, the terms are grouped by the
    scale c*lam instead; where a factor overflows on the way, or the
    canonical offset t does, the area is taken in log form.  Where the
    canonical scale lam/c itself overflows, sinh(2c/lam) = 2c/lam to the last
    bit, and the area is taken on the slab as given:
    2*pi*lam*c*(1 + cosh(2(t - m)/lam)).  Returns inf only where the area
    itself overflows.
    """
    c, m = piece.slab.half_height, piece.slab.midpoint
    if piece.scale / c == math.inf:
        band = math.tau * piece.scale * c
        u = 2.0 * (piece.offset - m) / piece.scale
        growth = _cosh(u)
        if growth < math.inf:
            return band + band * growth
        with contextlib.suppress(OverflowError):  # cosh u overflows, perhaps not the area
            return band + math.exp(math.log(band) + _log_cosh(u))
        return math.inf
    if abs((piece.offset - m) / c) == math.inf:
        # the canonical offset t overflows, 2t/lam = 2(t - m)/scale need not:
        # it is taken from (t - m)/2, which does not overflow either
        u = 4.0 * (0.5 * piece.offset - 0.5 * m) / piece.scale
        return _area_from_logs(c, piece.scale / c, u)
    canonical, c, _ = reduce_to_canonical(piece)
    lam, t = canonical.scale, canonical.offset
    growth = _cosh(2.0 * t / lam) * _sinh(2.0 / lam)
    area = c * c * (math.pi * lam * lam * growth + math.tau * lam)
    if math.isnan(area):  # 0 * inf: c^2 or lam^2 left the doubles, c*lam did not
        scale = c * lam
        area = math.pi * scale * (scale * growth) + math.tau * scale * c
    if area == math.inf:  # perhaps a factor alone overflowed
        area = _area_from_logs(c, lam, 2.0 * t / lam)
    return area


def _area_from_logs(c: float, lam: float, u: float) -> float:
    """c^2 (pi lam^2 cosh(u) sinh(2/lam) + 2 pi lam), the area of a canonical
    piece of scale lam with u = 2t/lam, summed from the logs of its factors,
    which may be subnormal or overflow; inf where the area overflows."""
    log_c, log_lam = math.log(c), math.log(lam)
    x = 2.0 / lam  # log sinh x = log cosh x + log tanh x
    log_growth = _log_cosh(u) + _log_cosh(x) + math.log(math.tanh(x))
    with contextlib.suppress(OverflowError):
        return (math.exp(math.log(math.pi) + 2.0 * (log_c + log_lam) + log_growth)
                + math.exp(math.log(math.tau) + log_lam + 2.0 * log_c))
    return math.inf


def area_by_quadrature(piece: CatenoidPiece) -> float:
    """Area 2*pi * Int r*sqrt(1 + r'^2) dh of the surface of revolution, by
    Gauss-Legendre quadrature on the height axis; no algebra is shared with
    ``area_in_slab``.  The slope r' is a central difference of the radius at
    h +- 1e-5 scale, past the slab ends for nodes that near (so slabs thinner
    than the step keep their accuracy), and sqrt(1 + r'^2) is ``np.hypot``.

    The node count is chosen here: from 64 it doubles until the n-node and
    n/2-node rules agree to 1e-9 relatively, which is above the noise of the
    difference slope (about 4e-10 between 128, 256 and 512 nodes).
    ResolutionError, naming ``n_height``, where 512 nodes do not agree.

    Raises ConvergenceError, naming the cause in its residuals, where the
    height step rounds to zero (a slab far from the origin on the scale of
    the catenoid), a stencil radius overflows, or the area element or its
    weighted sum does.
    """
    from .spectral import refined

    def rule(n):
        area, half = _gauss_area(piece, n), _gauss_area(piece, n // 2)
        # an area that underflows to zero is compared against the smallest double
        return area, abs(area - half) / max(area, math.ulp(0.0))

    return refined(rule, 64, 512, _AREA_RTOL, "n_height")[0]


def _gauss_area(piece: CatenoidPiece, n: int) -> float:
    """``area_by_quadrature`` with the n-point Gauss-Legendre rule."""
    import numpy as np

    from .spectral import gauss_legendre

    hs, w_h = gauss_legendre(n, piece.slab.h_minus, piece.slab.h_plus)
    dh = _STENCIL_STEP * piece.scale
    heights = np.stack([hs, hs + dh, hs - dh])
    step = heights[1] - heights[2]
    if not step.all():
        raise ConvergenceError("height step of the area stencil rounds to zero",
                               {"height": float(hs[np.argmin(step)]), "step": dh})
    with np.errstate(over="ignore", invalid="ignore"):
        r, r_p, r_m = radii = _radius(piece, heights)
        slope = (r_p - r_m) / step
        area = math.tau * float((w_h * r * np.hypot(1.0, slope)).sum())
    if math.isfinite(area):
        return area
    if not np.isfinite(radii).all():
        height = float(heights[~np.isfinite(radii)][0])
        raise ConvergenceError("radius of the catenoid overflows",
                               {"scale": piece.scale, "offset": piece.offset, "height": height})
    raise ConvergenceError("area element overflows",
                           {"radius": float(r.max()), "slope": float(np.abs(slope).max())})


def boundary_length(piece: CatenoidPiece) -> float:
    """Total length of the two boundary circles on the slab planes."""
    lam, t = piece.scale, piece.offset
    upper = math.tau * lam * _cosh((piece.slab.h_plus - t) / lam)
    lower = math.tau * lam * _cosh((piece.slab.h_minus - t) / lam)
    return upper + lower


def level_length(piece: CatenoidPiece, height: float) -> float:
    """Circumference of the horizontal slice circle at ``height``."""
    if not piece.slab.contains_height(height):
        raise ValueError(
            f"height {height} outside closed slab [{piece.slab.h_minus}, {piece.slab.h_plus}]"
        )
    return math.tau * piece.scale * _cosh((height - piece.offset) / piece.scale)


def vertical_flux(scale: float) -> float:
    """Vertical flux component of the scale-``scale`` vertical catenoid (neck length)."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    return math.tau * scale


@functools.lru_cache(maxsize=None)
def solve_lambda0() -> float:
    """Unique scale in (0, 1) with 2*lam/(1 - lam^2) = sinh(2/lam).

    This is the scale minimizing both area and boundary length of clipped
    vertical catenoids over the canonical slab; equivalently tanh(1/lam) = lam.
    Safeguarded Newton on the bracket [0.3, 0.99] to residual <= 1e-13.
    """

    def f(lam: float) -> float:
        return 2.0 * lam / (1.0 - lam * lam) - math.sinh(2.0 / lam)

    def fp(lam: float) -> float:
        return 2.0 * (1.0 + lam * lam) / (1.0 - lam * lam) ** 2 + (
            2.0 / (lam * lam)
        ) * math.cosh(2.0 / lam)

    return bracketed_root(f, 0.3, 0.99, fp, residual_tol=1e-13)
