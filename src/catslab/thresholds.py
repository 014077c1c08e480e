"""Sharp spanning thresholds for boundary-length pairs on slab planes.

A clipped vertical catenoid (scale lam, vertical offset c) in a slab is
marginally stable exactly when its clipped interval, in unit-catenoid
coordinates, equals the cone-tangency interval [t_minus(z), t_plus(z)] of some
apex height z.  That reduces the two-unknown system to one monotone unknown:

    lam(z) = H / (t_plus(z) - t_minus(z)),      H = slab height,
    c(z)   = h_minus - lam(z) * t_minus(z),

and the lower boundary length  l(z) = 2*pi*lam(z)*cosh(t_minus(z))  decreases
strictly from +inf to 0, so inverting it is a bracketed 1-D root find (done
in t_minus, since z = t_minus - coth(t_minus) is explicit).  The upper
boundary length of that piece is the threshold function F: a pair
(L_minus, L_plus) bounds a clipped vertical catenoid iff L_plus >= F(L_minus),
and the total boundary length of the symmetric (z = 0) piece is the critical
length below which no spanning pair exists.

The pair's solutions follow from that piece too.  Fix L_minus and let t be
the unit-catenoid height of the lower circle: then lam = L_minus/(2*pi*cosh t),
c = h_minus - lam*t, and the log upper length of that catenoid is unimodal in
t, with its only minimum, log F(L_minus), at the marginally stable piece.  So a
pair has exactly 0, 1 (tangential) or 2 solutions, one on each side of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import ConvergenceError
from .geometry import CatenoidPiece, Slab, _cosh, _log_cosh
from .rootfind import bracketed_root
from .spectral import TWO_PI
from .stability import _tangency_positive, cat_ms, tangent_cone_heights


@dataclass(frozen=True)
class MsSolution:
    """Marginally stable clipped catenoid with prescribed lower boundary length."""

    scale: float
    offset: float
    lower_length: float
    upper_length: float
    apex_height: float

    def unit_piece(self) -> CatenoidPiece:
        """Unit-scale reduction (the clipped interval in catenoid coordinates)."""
        return cat_ms(self.apex_height)


def _log_length(lam: float, c: float, height: float) -> float:
    """log(2*pi*lam*cosh((height - c)/lam)), the log length of a boundary
    circle: thin catenoids have circles whose length overflows a double."""
    return math.log(TWO_PI * lam) + _log_cosh((height - c) / lam)


def ms_piece_for_lower_length(lower_length: float, slab: Slab) -> MsSolution:
    """The marginally stable clipped catenoid whose lower boundary circle has the
    given length (unique up to horizontal translation, which is quotiented out).

    Solved by safeguarded Newton in the lower tangency height t_minus, not the
    apex height: z = t_minus - coth(t_minus) is explicit, so each evaluation
    needs one tangency root t_plus, and the derivative of log l is exact:
    tanh(t_minus) - (t_plus' - 1)/(t_plus - t_minus), where t_plus' =
    (1 + csch^2 t_minus)/(1 + csch^2 t_plus) = (tanh(t_plus)/tanh(t_minus))^2.
    """
    if not (math.isfinite(lower_length) and lower_length > 0.0):
        raise ValueError(f"lower_length must be positive, got {lower_length}")

    @functools.lru_cache(maxsize=None)  # f and fprime both need it at each point
    def t_plus(t_minus: float) -> float:
        return _tangency_positive(t_minus - 1.0 / math.tanh(t_minus))

    def f(t_minus: float) -> float:
        # log(l/L), strictly decreasing on t_minus < 0: one log of a ratio near
        # 1 at the root; cosh overflows only where l exceeds every double
        lam = slab.height / (t_plus(t_minus) - t_minus)
        return math.log(TWO_PI * lam * _cosh(t_minus) / lower_length)

    def fprime(t_minus: float) -> float:
        tp = t_plus(t_minus)
        dtp = (math.tanh(tp) / math.tanh(t_minus)) ** 2
        return math.tanh(t_minus) - (dtp - 1.0) / (tp - t_minus)

    t_lo, t_hi = -2.0, -0.5
    while not f(t_lo) > 0.0 and t_lo > -1e3:  # l overflows near t_minus = -710
        t_lo *= 2.0
    while not f(t_hi) < 0.0 and t_hi < -1e-60:
        t_hi *= 0.5
    if not (f(t_lo) > 0.0 > f(t_hi)):
        raise ConvergenceError(
            "failed to bracket the lower tangency height",
            {"lower_length": lower_length, "t_minus_range": (t_lo, t_hi)},
        )
    t_minus = bracketed_root(f, t_lo, t_hi, fprime, residual_tol=1e-13)
    z = t_minus - 1.0 / math.tanh(t_minus)
    tp = t_plus(t_minus)
    lam = slab.height / (tp - t_minus)
    c = slab.h_minus - lam * t_minus
    lower = TWO_PI * lam * _cosh(t_minus)
    upper = TWO_PI * lam * _cosh(tp)
    rel = abs(lower - lower_length) / lower_length
    if rel > 1e-10:
        raise ConvergenceError(
            "marginally stable solve did not meet tolerance",
            {"relative_residual": rel, "apex_height": z},
        )
    return MsSolution(lam, c, lower_length, upper, z)


def f_omega(lower_length: float, slab: Slab) -> float:
    """Threshold upper length: minimal upper boundary length admitting a
    clipped vertical catenoid with the given lower boundary length; +inf
    where it leaves the doubles (below lower lengths of about 0.0176 on the
    slab [-1, 1])."""
    return ms_piece_for_lower_length(lower_length, slab).upper_length


def l_crit(slab: Slab) -> float:
    """Total boundary length of the maximally symmetric marginally stable
    piece; +inf where it leaves the doubles (slab heights above about 1e307)."""
    ct = tangent_cone_heights(0.0)
    lam = slab.height / (ct.t_plus - ct.t_minus)
    return TWO_PI * lam * (_cosh(ct.t_minus) + _cosh(ct.t_plus))


@dataclass
class SpanningResult:
    """Solutions of the boundary-length system, with the tangential-case flag."""

    parameters: list[tuple[float, float]]  # (scale, offset) per solution
    tangential: bool
    threshold_upper: float
    residuals: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.parameters)


def spanning_catenoids(
    lower_length: float,
    upper_length: float,
    slab: Slab,
    *,
    tangential_rtol: float = 1e-6,
) -> SpanningResult:
    """All clipped vertical catenoids whose boundary circles have the given lengths.

    Solves 2*pi*lam*cosh((h_minus - c)/lam) = L_minus together with the same
    equation at h_plus for L_plus.  Above the threshold there is one solution
    on each side of the marginally stable piece (see the module docstring):
    each is one bracketed root in the lower circle's unit height t, bracketed
    by doubling outward from the piece's t.  Within ``tangential_rtol`` of the
    threshold the pair is flagged ambiguous and the marginally stable solution
    is returned.  The count and the flag compare L_plus with log F, which
    stays finite where F overflows a double.
    """
    for length in (lower_length, upper_length):
        if not (math.isfinite(length) and length > 0.0):
            raise ValueError(f"boundary lengths must be positive and finite, got {length}")
    ms = ms_piece_for_lower_length(lower_length, slab)
    threshold = ms.upper_length
    log_lower, log_upper = math.log(lower_length), math.log(upper_length)

    def relative_residual(lam: float, c: float) -> float:
        return max(abs(math.expm1(_log_length(lam, c, slab.h_minus) - log_lower)),
                   abs(math.expm1(_log_length(lam, c, slab.h_plus) - log_upper)))

    # U/F - 1 from log F: F overflows a double below lower lengths of about
    # 0.0176, and U/F may too (capped at e^709, where only its sign is read)
    upper_rel = math.expm1(min(log_upper - _log_length(ms.scale, ms.offset, slab.h_plus), 709.0))
    if abs(upper_rel) <= tangential_rtol:
        residual = relative_residual(ms.scale, ms.offset)
        return SpanningResult([(ms.scale, ms.offset)], True, threshold, [residual])
    if upper_rel < 0.0:
        return SpanningResult([], False, threshold)

    def f(t: float) -> float:
        # log(upper length / L_plus); past overflow 1/lam is inf and so is f
        log_inv_lam = math.log(TWO_PI) + _log_cosh(t) - log_lower
        inv_lam = math.exp(log_inv_lam) if log_inv_lam < 709.0 else math.inf
        return log_lower - _log_cosh(t) + _log_cosh(t + slab.height * inv_lam) - log_upper

    t_fold = (slab.h_minus - ms.offset) / ms.scale
    # f is a difference of terms near |t| and |t| + H/lam, so its evaluation
    # noise grows with |t_fold| and with the slope 1 + H/lam at the fold
    residual_tol = max(1e-12, 1e-14 * max(1.0, abs(t_fold)) * (1.0 + slab.height / ms.scale))
    # past |t| = 709 + log L_minus, 1/lam has overflowed and f is +inf
    reach = 709.0 + max(0.0, log_lower) + abs(t_fold)
    parameters: list[tuple[float, float]] = []
    for side in (-1.0, 1.0):
        d = 1.0
        while not f(t_fold + side * d) > 0.0 and d < reach:
            d *= 2.0
        edge = t_fold + side * d
        if not f(t_fold) < 0.0 < f(edge):  # NaN, or upper within round-off of F
            raise ConvergenceError(
                "failed to bracket a spanning solution",
                {"upper_length": upper_length, "threshold_upper": threshold, "edge": edge},
            )
        t = bracketed_root(f, min(t_fold, edge), max(t_fold, edge), residual_tol=residual_tol)
        if abs(t) < 700.0:
            lam = lower_length / (TWO_PI * math.cosh(t))
        else:  # cosh(t) overflows past 710
            lam = math.exp(log_lower - math.log(TWO_PI) - _log_cosh(t))
        parameters.append((lam, slab.h_minus - lam * t))
    parameters.sort()
    residuals = [relative_residual(lam, c) for lam, c in parameters]
    return SpanningResult(parameters, False, threshold, residuals)
