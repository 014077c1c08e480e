"""Sharp spanning thresholds for boundary-length pairs on slab planes.

A clipped vertical catenoid (scale lam, vertical offset c) in a slab is
marginally stable exactly when its clipped interval, in unit-catenoid
coordinates, equals the cone-tangency interval [t_minus(z), t_plus(z)] of some
apex height z.  That reduces the two-unknown system to one monotone unknown:

    lam(z) = H / (t_plus(z) - t_minus(z)),      H = slab height,
    c(z)   = h_minus - lam(z) * t_minus(z),

and the lower boundary length  l(z) = 2*pi*lam(z)*cosh(t_minus(z))  decreases
strictly from +inf to 0, so inverting it is a bracketed 1-D root find.  The
upper boundary length of that piece is the threshold function F: a pair
(L_minus, L_plus) bounds a clipped vertical catenoid iff L_plus >= F(L_minus),
and the total boundary length of the symmetric (z = 0) piece is the critical
length below which no spanning pair exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .geometry import CatenoidPiece, Slab, _cosh
from .rootfind import bracketed_root
from .spectral import TWO_PI
from .stability import ConeTangency, cat_ms, tangent_cone_heights


@dataclass(frozen=True)
class MsSolution:
    """Marginally stable clipped catenoid with prescribed lower boundary length."""

    scale: float
    offset: float
    lower_length: float
    upper_length: float
    apex_height: float

    def piece(self, slab: Slab) -> CatenoidPiece:
        return CatenoidPiece(self.scale, self.offset, slab)

    def unit_piece(self) -> CatenoidPiece:
        """Unit-scale reduction (the clipped interval in catenoid coordinates)."""
        return cat_ms(self.apex_height)


def _ms_geometry(z: float, slab: Slab) -> tuple[float, float, ConeTangency]:
    ct = tangent_cone_heights(z)
    lam = slab.height / (ct.t_plus - ct.t_minus)
    c = slab.h_minus - lam * ct.t_minus
    return lam, c, ct


def _log_lower_length(z: float, slab: Slab) -> float:
    ct = tangent_cone_heights(z)
    lam = slab.height / (ct.t_plus - ct.t_minus)
    t = ct.t_minus
    # log(2*pi*lam*cosh(t)) without overflow for very negative t
    log_cosh = abs(t) + math.log1p(math.exp(-2.0 * abs(t))) - math.log(2.0)
    return math.log(TWO_PI * lam) + log_cosh


def ms_piece_for_lower_length(lower_length: float, slab: Slab) -> MsSolution:
    """The marginally stable clipped catenoid whose lower boundary circle has the
    given length (unique up to horizontal translation, which is quotiented out)."""
    if not (math.isfinite(lower_length) and lower_length > 0.0):
        raise ValueError(f"lower_length must be positive, got {lower_length}")
    target = math.log(lower_length)

    def f(z: float) -> float:
        return _log_lower_length(z, slab) - target

    z_lo, z_hi = -1.0, 1.0
    for _ in range(200):
        if f(z_lo) > 0.0:
            break
        z_lo = 2.0 * z_lo - 1.0
    for _ in range(200):
        if f(z_hi) < 0.0:
            break
        z_hi = 2.0 * z_hi + 1.0
    if not (f(z_lo) > 0.0 > f(z_hi)):
        raise ConvergenceError(
            "failed to bracket apex height",
            {"lower_length": lower_length, "z_range": (z_lo, z_hi)},
        )
    # f is strictly decreasing; bracketed_root expects it either way
    z = bracketed_root(f, z_lo, z_hi, residual_tol=1e-13)
    lam, c, ct = _ms_geometry(z, slab)
    lower = TWO_PI * lam * _cosh(ct.t_minus)
    upper = TWO_PI * lam * _cosh(ct.t_plus)
    rel = abs(lower - lower_length) / lower_length
    if rel > 1e-10:
        raise ConvergenceError(
            "marginally stable solve did not meet tolerance",
            {"relative_residual": rel, "apex_height": z},
        )
    return MsSolution(lam, c, lower_length, upper, z)


def f_omega(lower_length: float, slab: Slab) -> float:
    """Threshold upper length: minimal upper boundary length admitting a
    clipped vertical catenoid with the given lower boundary length."""
    return ms_piece_for_lower_length(lower_length, slab).upper_length


def l_crit(slab: Slab) -> float:
    """Total boundary length of the maximally symmetric marginally stable piece."""
    lam, _, ct = _ms_geometry(0.0, slab)
    return TWO_PI * lam * (_cosh(ct.t_minus) + _cosh(ct.t_plus))


@dataclass
class SpanningResult:
    """Solutions of the boundary-length system, with the tangential-case flag."""

    pieces: list[CatenoidPiece]
    parameters: list[tuple[float, float]]  # (scale, offset) per solution
    tangential: bool
    threshold_upper: float
    residuals: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pieces)


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def spanning_catenoids(
    lower_length: float,
    upper_length: float,
    slab: Slab,
    *,
    tangential_rtol: float = 1e-6,
    dedup_tol: float = 1e-7,
    scan_points: int = 4000,
) -> SpanningResult:
    """All clipped vertical catenoids whose boundary circles have the given lengths.

    Solves 2*pi*lam*cosh((h_minus - c)/lam) = L_minus together with the same
    equation at h_plus for L_plus.  The lower equation is inverted per scale
    (two sign branches for the neck position); the residual of the upper
    equation is scanned in log form over scales and every sign change is
    bisected.  Within ``tangential_rtol`` of the threshold the pair is flagged
    ambiguous and the marginally stable solution is returned.
    """
    for length in (lower_length, upper_length):
        if not (math.isfinite(length) and length > 0.0):
            raise ValueError(f"boundary lengths must be positive and finite, got {length}")
    ms = ms_piece_for_lower_length(lower_length, slab)
    threshold = ms.upper_length
    if abs(upper_length - threshold) <= tangential_rtol * threshold:
        piece = CatenoidPiece(ms.scale, ms.offset, slab)
        return SpanningResult(
            [piece], [(ms.scale, ms.offset)], True, threshold, [0.0]
        )
    if upper_length < threshold:
        return SpanningResult([], [], False, threshold)

    H = slab.height
    lam_max = lower_length / TWO_PI
    log_upper = math.log(upper_length)

    def residual_grid(lams: np.ndarray, branch: int) -> np.ndarray:
        arg = np.maximum(lower_length / (TWO_PI * lams), 1.0)
        a = branch * np.arccosh(arg)
        b = a + H / lams
        return np.log(TWO_PI * lams) + _log_cosh(b) - log_upper

    def residual_one(lam: float, branch: int) -> float:
        return float(residual_grid(np.asarray([lam]), branch)[0])

    lams = np.geomspace(lam_max * 1e-6, lam_max, scan_points)
    found: list[tuple[float, float]] = []
    for branch in (-1, 1):
        vals = residual_grid(lams, branch)
        sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        for i in sign_change:
            lam = bracketed_root(
                lambda x, br=branch: residual_one(x, br),
                float(lams[i]),
                float(lams[i + 1]),
                bisect_width=1e-14 * lam_max,
                residual_tol=1e-12,
            )
            a = branch * math.acosh(max(lower_length / (TWO_PI * lam), 1.0))
            c = slab.h_minus - lam * a
            found.append((lam, c))

    deduped: list[tuple[float, float]] = []
    for lam, c in sorted(found):
        if all(abs(lam - l2) + abs(c - c2) > dedup_tol for l2, c2 in deduped):
            deduped.append((lam, c))

    pieces, residuals = [], []
    for lam, c in deduped:
        piece = CatenoidPiece(lam, c, slab)
        r_lo = TWO_PI * lam * _cosh((slab.h_minus - c) / lam) - lower_length
        r_hi = TWO_PI * lam * _cosh((slab.h_plus - c) / lam) - upper_length
        residuals.append(max(abs(r_lo) / lower_length, abs(r_hi) / upper_length))
        pieces.append(piece)
    return SpanningResult(pieces, deduped, False, threshold, residuals)
