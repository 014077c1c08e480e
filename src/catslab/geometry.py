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

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .rootfind import bracketed_root
from .spectral import TWO_PI, gauss_legendre, periodic_nodes

# central-difference step of the quadrature's area element in angle and, times
# the scale, in height
_STENCIL_STEP = 1e-5
# logs of sizes the quadrature's stencil may reach: below the largest double
# by a relative 2^-10, far above the stencil's own rounding (~1e-8)
_LOG_HUGE = math.log(sys.float_info.max) - 2.0**-10


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
    return piece.scale * np.cosh((h - piece.offset) / piece.scale)


def parameterize(piece: CatenoidPiece, h, theta) -> np.ndarray:
    """Point(s) of the clipped catenoid at ambient height ``h`` and angle ``theta``.

    Returns an array with shape ``broadcast(h, theta) + (3,)``.  Heights outside
    the closed slab raise ValueError.
    """
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
    Returns inf where cosh(2t/lam)*sinh(2/lam) or the area overflows the
    doubles; where c^2 or lam^2 alone leaves them, the terms are grouped by
    the scale c*lam instead.
    """
    canonical, c, _ = reduce_to_canonical(piece)
    lam, t = canonical.scale, canonical.offset
    growth = _cosh(2.0 * t / lam) * _sinh(2.0 / lam)
    area = c * c * (math.pi * lam * lam * growth + TWO_PI * lam)
    if math.isnan(area):  # 0 * inf: c^2 or lam^2 left the doubles, c*lam did not
        scale = c * lam
        area = math.pi * scale * (scale * growth) + TWO_PI * scale * c
    return area


def _stencil_radii(piece, w_h, n_theta, h, h_p, h_m):
    """Radii at the quadrature's stencil heights and the height step, checked
    before any arithmetic on the (n_height, n_theta) planes.

    Raises ConvergenceError where the stencil cannot be taken in doubles: the
    height step rounds to zero, or cosh, the radius, a component of the area
    element or its weighted sum would overflow.  The bounds are taken in log
    form, from the columns alone: on height row i the angle tangent is at most
    r_i and the height tangent at most the radial slope s_i, up to rounding,
    so the element is at most r_i*(1 + s_i).
    """
    step = h_p - h_m
    if not step.all():
        raise ConvergenceError(
            "height step of the area stencil rounds to zero",
            {"height": float(h_p[np.argmin(step), 0]), "step": _STENCIL_STEP * piece.scale},
        )
    lam, t = piece.scale, piece.offset
    # Python floats overflow quietly to inf; the radius is at least |h - t|
    a, b = piece.slab.h_minus, piece.slab.h_plus
    if not max(abs(a - t), abs(b - t)) < math.inf:
        raise ConvergenceError("radius of the catenoid overflows", {"scale": lam, "offset": t})
    # |h - t|/lam capped at 1e3 (cosh overflows past 710), so it cannot overflow
    u = np.minimum(np.maximum(np.abs(h_p - t), np.abs(h_m - t)), 1e3 * lam) / lam
    log_cosh = float(np.logaddexp(u, -u).max()) - math.log(2.0)
    if not max(log_cosh, math.log(lam) + log_cosh) < _LOG_HUGE:
        raise ConvergenceError(
            "radius of the catenoid overflows",
            {"log_cosh": log_cosh, "log_radius": math.log(lam) + log_cosh},
        )
    r, r_p, r_m = _radius(piece, h), _radius(piece, h_p), _radius(piece, h_m)
    # r_p*cos - r_m*cos differs from (r_p - r_m)*cos by an ulp of the radius,
    # and is exactly 0 where r_p == r_m
    rise = np.abs(r_p - r_m)
    rise += (rise > 0.0) * (2.0**-52 * np.maximum(r_p, r_m))
    log_slope = np.log(rise, out=np.full_like(rise, -np.inf), where=rise > 0.0) - np.log(step)
    log_element = np.log(r) + np.logaddexp(0.0, log_slope)
    # sum_i w_i * element_i: the sum itself takes n_theta terms a row, the
    # result is 2 pi/n_theta of it (a weight may underflow to 0 on thin slabs)
    log_w = np.log(w_h, out=np.full_like(w_h, -np.inf), where=w_h > 0.0)
    log_sum = math.log(max(n_theta, TWO_PI)) + float(
        np.logaddexp.reduce((log_w[:, None] + log_element).ravel())
    )
    log_peak = max(float(log_slope.max()), float(log_element.max()), log_sum)
    if not log_peak < _LOG_HUGE:
        raise ConvergenceError(
            "area element overflows",
            {"log_element": float(log_element.max()), "log_sum": log_sum},
        )
    return r, r_p, r_m, step


def area_by_quadrature(piece: CatenoidPiece, n_height: int = 64, n_theta: int = 256) -> float:
    """Area by tensor-product quadrature of the parameterization's area element.

    Gauss-Legendre in height times trapezoid in angle (spectrally accurate for
    the periodic direction).  The area element is |f_h x f_theta| for central
    differences f_h, f_theta of the parameterization, taken on one
    (n_height, n_theta) plane per vector component: f_h = (x_h, y_h, 1) and
    f_theta = (x_theta, y_theta, 0), so the cross product is
    (-y_theta, x_theta, x_h*y_theta - y_h*x_theta).  This is the same
    geometric stencil as differencing the parameterization point by point at
    h +- 1e-5 scale (past the slab ends for nodes that near), and it shares no
    algebra with the closed form in ``area_in_slab``.

    Raises ConvergenceError, naming the cause in its residuals, where the
    stencil cannot be taken in doubles: the height step rounds to zero (a
    slab far from the origin on the scale of the catenoid), or the radius,
    the area element or its weighted sum overflows.
    """
    if n_height < 2 or n_theta < 4:
        raise ValueError("quadrature needs n_height >= 2 and n_theta >= 4")
    a, b = piece.slab.h_minus, piece.slab.h_plus
    hs, w_h = gauss_legendre(n_height, a, b)
    thetas = periodic_nodes(n_theta)

    # heights as a column and angles as a row, so each cosh is taken once per
    # height and each cos/sin once per angle
    h = hs[:, None]
    # The radius is defined at every height, so the stencil is central at
    # every node: clipped to the slab, it would difference two radii that
    # agree to a few ulps on slabs much thinner than the step.
    dh = _STENCIL_STEP * piece.scale
    h_p, h_m = h + dh, h - dh
    r, r_p, r_m, step = _stencil_radii(piece, w_h, n_theta, h, h_p, h_m)
    dth = _STENCIL_STEP
    tt = thetas[None, :]
    cos, sin = np.cos(tt), np.sin(tt)

    # each difference as written for the stacked points, not factored, so
    # every plane keeps its bits; f_h's z is step/step = 1 exactly, f_t's is 0
    tmp = np.empty((n_height, n_theta))
    x_h = np.multiply(r_p, cos)
    x_h -= np.multiply(r_m, cos, out=tmp)
    x_h /= step
    y_h = np.multiply(r_p, sin)
    y_h -= np.multiply(r_m, sin, out=tmp)
    y_h /= step
    x_t = np.multiply(r, np.cos(tt + dth))
    x_t -= np.multiply(r, np.cos(tt - dth), out=tmp)
    x_t /= 2.0 * dth
    y_t = np.multiply(r, np.sin(tt + dth))
    y_t -= np.multiply(r, np.sin(tt - dth), out=tmp)
    y_t /= 2.0 * dth
    # the cross product's z, in np.cross's operation order, into x_h
    x_h *= y_t
    x_h -= np.multiply(y_h, x_t, out=tmp)
    normal_z = x_h

    # Square under a power-of-two scale (exact in binary): on thin catenoids
    # the components reach 1e286 while the area is still a finite double.
    peak = max(y_t.max(), -y_t.min(), x_t.max(), -x_t.min(), normal_z.max(), -normal_z.min())
    _, exp = np.frexp(peak)
    # |n|^2 = ((-y_t)^2 + x_t^2) + z^2, the order of norm's reduction
    element = np.square(np.ldexp(y_t, -exp, out=y_t), out=y_t)
    element += np.square(np.ldexp(x_t, -exp, out=x_t), out=x_t)
    element += np.square(np.ldexp(normal_z, -exp, out=normal_z), out=normal_z)
    np.sqrt(element, out=element)
    np.ldexp(element, exp, out=element)
    element *= w_h[:, None]
    return float(element.sum() * (TWO_PI / n_theta))


def boundary_length(piece: CatenoidPiece) -> float:
    """Total length of the two boundary circles on the slab planes."""
    lam, t = piece.scale, piece.offset
    upper = TWO_PI * lam * _cosh((piece.slab.h_plus - t) / lam)
    lower = TWO_PI * lam * _cosh((piece.slab.h_minus - t) / lam)
    return upper + lower


def level_length(piece: CatenoidPiece, height: float) -> float:
    """Circumference of the horizontal slice circle at ``height``."""
    if not piece.slab.contains_height(height):
        raise ValueError(
            f"height {height} outside closed slab [{piece.slab.h_minus}, {piece.slab.h_plus}]"
        )
    return TWO_PI * piece.scale * _cosh((height - piece.offset) / piece.scale)


def vertical_flux(scale: float) -> float:
    """Vertical flux component of the scale-``scale`` vertical catenoid (neck length)."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive, got {scale}")
    return TWO_PI * scale


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
