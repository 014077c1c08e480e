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
from dataclasses import dataclass

import numpy as np

from .rootfind import bracketed_root
from .spectral import TWO_PI, gauss_legendre, periodic_nodes

# central-difference step of the quadrature's area element in angle and, times
# the scale, in height
_STENCIL_STEP = 1e-5


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
    r = piece.scale * np.cosh((h - piece.offset) / piece.scale)
    return np.stack(np.broadcast_arrays(r * np.cos(theta), r * np.sin(theta), h), axis=-1)


def area_in_slab(piece: CatenoidPiece) -> float:
    """Area of the clipped catenoid.

    On the canonical slab this is ``pi*lam^2*cosh(2t/lam)*sinh(2/lam) + 2*pi*lam``;
    general slabs go through the canonical reduction (area scales by c^2).
    """
    canonical, c, _ = reduce_to_canonical(piece)
    lam, t = canonical.scale, canonical.offset
    area = math.pi * lam * lam * (_cosh(2.0 * t / lam) * _sinh(2.0 / lam)) + TWO_PI * lam
    return c * c * area


def area_by_quadrature(piece: CatenoidPiece, n_height: int = 64, n_theta: int = 256) -> float:
    """Area by tensor-product quadrature of the parameterization's area element.

    Gauss-Legendre in height times trapezoid in angle (spectrally accurate for
    the periodic direction).  The area element is computed geometrically from
    central differences of ``parameterize``, so this path shares no algebra
    with the closed form in ``area_in_slab``.
    """
    if n_height < 2 or n_theta < 4:
        raise ValueError("quadrature needs n_height >= 2 and n_theta >= 4")
    a, b = piece.slab.h_minus, piece.slab.h_plus
    hs, w_h = gauss_legendre(n_height, a, b)
    thetas = periodic_nodes(n_theta)

    # heights as a column and angles as a row: parameterize broadcasts them,
    # so each cosh is taken once per height and each cos/sin once per angle
    hh, tt = hs[:, None], thetas[None, :]
    dh = _STENCIL_STEP * piece.scale
    # keep the height stencil inside the closed slab
    hh_p = np.minimum(hh + dh, b)
    hh_m = np.maximum(hh - dh, a)
    dth = _STENCIL_STEP
    f_h = (parameterize(piece, hh_p, tt) - parameterize(piece, hh_m, tt)) / (
        (hh_p - hh_m)[..., None]
    )
    f_t = (
        parameterize(piece, hh, tt + dth) - parameterize(piece, hh, tt - dth)
    ) / (2.0 * dth)
    cross = np.cross(f_h, f_t)
    # Square under a power-of-two scale (exact in binary): on thin catenoids
    # the components reach 1e286 while the area is still a finite double.
    _, exp = np.frexp(np.max(np.abs(cross)))
    element = np.ldexp(np.linalg.norm(np.ldexp(cross, -exp), axis=-1), exp)
    return float((w_h[:, None] * element).sum() * (TWO_PI / n_theta))


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
