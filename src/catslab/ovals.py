"""Lowest eigenvalue of -d^2/ds^2 + kappa^2 on closed curves.

For a smooth closed curve of length L with curvature kappa(s) in arclength,
the scale-invariant functional  L^2 * lambda1 / (2*pi)^2  equals 1 on every
round circle (eigenfunction f = 1) and is conjectured to be >= 1 on all smooth
closed curves; the proven constant is 1/2.  The module treats the conjectured
constant as a hypothesis under test: a functional below 1 by more than its
relative error is flagged (``OvalSpectrum.below_conjectured_constant``) and
logged as a WARNING on the ``catslab`` logger, never asserted, while the
proven half constant is a hard invariant.

``lowest_eigenvalue`` solves the weak form by Fourier-Galerkin (Hill's method)
in the curve's own sample parameter u in [0, 1), so the curve is never
resampled: on the modes e^{2 pi i j u}, |j| <= K, the problem is A c = lambda M c
with A = (2 pi)^2 diag(j) T(1/sigma) diag(j) + T(kappa^2 sigma) and
M = T(sigma), where sigma = |c'(u)| and T(w) is the Toeplitz matrix of the
Fourier coefficients of w.  lambda1 is the Rayleigh quotient of the computed
lowest eigenvector.  K doubles from 16 until lambda1 moves by less than
``rtol``; ``n_used`` reports the 2K + 1 modes of the accepted level.  Each
level must satisfy lambda1 >= min kappa^2 (as -d^2/ds^2 >= 0) and functional
>= 1/2, otherwise ResolutionError is raised.

Curvature of a space curve here is the full curvature |T'(s)|; planar curves
are the special case.  No generator for the known extremal (degenerating oval)
family is shipped; the bundled corpus is circles, ellipses, rounded polygons
and random Fourier curves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResolutionError
from .spectral import TWO_PI, cumulative_integral, fourier_derivative

_log = logging.getLogger(__name__)
# a parameterization is degenerate where its speed falls below this times the mean
_SPEED_FLOOR = 1e-8


class ClosedCurve:
    """Periodic point samples of a closed space curve, uniform in parameter.

    ``points`` has shape (N, 3) with no duplicated endpoint.  Arclength, total
    length and curvature are derived spectrally; curvature is the full
    space-curve curvature |T'(s)| (planar curves as a special case).
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (N, 3)")
        if pts.shape[0] < 32:
            raise ValueError("need at least 32 samples")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        self.points = pts
        speed = self.speed
        if not speed.mean() > 0.0 or speed.min() < _SPEED_FLOOR * speed.mean():
            raise ValueError("degenerate parameterization: speed vanishes")

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _velocity(self) -> np.ndarray:
        return fourier_derivative(self.points, period=1.0)

    @cached_property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self._velocity, axis=1)

    @cached_property
    def total_length(self) -> float:
        # trapezoid rule of a smooth periodic integrand: the plain mean
        return float(self.speed.mean())

    @cached_property
    def arclength(self) -> np.ndarray:
        """Cumulative arclength at the nodes, by spectral antidifferentiation."""
        return cumulative_integral(self.speed, period=1.0)[0].real

    @cached_property
    def curvature(self) -> np.ndarray:
        """kappa = |c' x c''| / |c'|^3 at the nodes (any parameterization)."""
        c1 = self._velocity
        c2 = fourier_derivative(self.points, 2, period=1.0)
        return np.linalg.norm(np.cross(c1, c2), axis=1) / self.speed**3

    # ---- generators -------------------------------------------------------

    @staticmethod
    def circle(radius: float = 1.0, n: int = 256) -> "ClosedCurve":
        return ClosedCurve.ellipse(radius, radius, n)

    @staticmethod
    def ellipse(a: float, b: float, n: int = 256) -> "ClosedCurve":
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"ellipse axes must be finite, got {a}, {b}")
        u = TWO_PI * np.arange(n) / n
        return ClosedCurve(np.stack([a * np.cos(u), b * np.sin(u), np.zeros(n)], axis=1))

    @staticmethod
    def rounded_polygon(sides: int, rounding: float = 0.1, n: int = 512) -> "ClosedCurve":
        """Regular polygon smoothed by a Gaussian Fourier filter; larger
        ``rounding`` gives softer corners."""
        if sides < 3:
            raise ValueError("need at least 3 sides")
        u = np.arange(n) / n
        corner = np.floor(u * sides)
        frac = u * sides - corner
        ang0 = TWO_PI * corner / sides
        ang1 = TWO_PI * (corner + 1) / sides
        raw = np.stack(
            [
                (1 - frac) * np.cos(ang0) + frac * np.cos(ang1),
                (1 - frac) * np.sin(ang0) + frac * np.sin(ang1),
                np.zeros(n),
            ],
            axis=1,
        )
        modes = np.fft.fftfreq(n, d=1.0 / n)
        window = np.exp(-0.5 * (rounding * modes) ** 2)
        spec = np.fft.fft(raw, axis=0) * window[:, None]
        return ClosedCurve(np.fft.ifft(spec, axis=0).real)

    @staticmethod
    def random_fourier(
        rng: np.random.Generator,
        n_modes: int = 5,
        amplitude: float = 0.3,
        n: int = 256,
        planar: bool = False,
    ) -> "ClosedCurve":
        """Random smooth closed curve: unit circle plus decaying Fourier modes."""
        u = TWO_PI * np.arange(n) / n
        pts = np.stack([np.cos(u), np.sin(u), np.zeros(n)], axis=1)
        dims = 2 if planar else 3
        for k in range(2, n_modes + 2):
            decay = amplitude / k**2
            for d in range(dims):
                a, b = rng.standard_normal(2) * decay
                pts[:, d] += a * np.cos(k * u) + b * np.sin(k * u)
        return ClosedCurve(pts)


def rayleigh_quotient(curve: ClosedCurve, f) -> float:
    """(Int |df/ds|^2 + kappa^2 f^2 ds) / (Int f^2 ds) for node samples ``f``."""
    f = np.asarray(f, dtype=float)
    if f.shape != (len(curve),):
        raise ValueError("f must be sampled at the curve nodes")
    speed = curve.speed
    denom = float((f**2 * speed).mean())
    if denom < 1e-30:
        raise ValueError("f is numerically zero")
    df_ds = fourier_derivative(f, period=1.0) / speed
    numer = float(((df_ds**2 + curve.curvature**2 * f**2) * speed).mean())
    return numer / denom


@dataclass
class OvalSpectrum:
    lambda1: float
    functional: float
    length: float
    n_used: int  # Fourier modes of the accepted level, 2K + 1
    rel_error: float  # max(rtol, the accepted level's relative change)

    @property
    def below_conjectured_constant(self) -> bool:
        """The functional is below 1 by more than its relative error."""
        return 1.0 - self.functional > self.rel_error


def _galerkin_level(curve: ClosedCurve, K: int):
    """Lowest eigenvalue on the 2K + 1 modes e^{2 pi i j u} in the curve's own
    parameter u: (eigensolver value, Rayleigh quotient of its eigenvector,
    fine-grid length, min kappa^2).

    The weak form Int (|f_u|^2 / sigma + kappa^2 sigma |f|^2) du against
    Int sigma |f|^2 du, sigma = |c'(u)|, gives A c = lambda M c with Toeplitz
    blocks of the Fourier coefficients of 1/sigma, kappa^2 sigma and sigma,
    taken by FFT on a power-of-two grid P >= max(8K, 2N) (no aliasing up to
    index 2K), where c' and c'' come from the N samples by zero padding.
    """
    P = 1 << (max(8 * K, 2 * len(curve)) - 1).bit_length()
    c1 = fourier_derivative(curve.points, 1, P, period=1.0)
    c2 = fourier_derivative(curve.points, 2, P, period=1.0)
    sigma = np.linalg.norm(c1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa2 = (np.linalg.norm(np.cross(c1, c2), axis=1) / sigma**3) ** 2
        weights = np.stack([1.0 / sigma, kappa2 * sigma, sigma], axis=1)
    L, kappa2_min = float(sigma.mean()), float(kappa2.min())
    if not np.all(np.isfinite(weights)):
        return math.nan, math.nan, L, kappa2_min
    from scipy.linalg import eigh, toeplitz  # about 0.3 s; loaded on the first solve

    # T[j, k] = w_{j-k}; toeplitz() fills w_{-m} = conj(w_m), true for real w
    coef = np.fft.rfft(weights, axis=0)[: 2 * K + 1] / P
    j = np.arange(-K, K + 1)
    A = TWO_PI**2 * np.outer(j, j) * toeplitz(coef[:, 0]) + toeplitz(coef[:, 1])
    M = toeplitz(coef[:, 2])
    try:
        lam, vec = eigh(A, M, subset_by_index=(0, 0))
    except np.linalg.LinAlgError:
        return math.nan, math.nan, L, kappa2_min
    # The Rayleigh quotient of the computed eigenvector is exact to second
    # order in its error and sums terms that decay with the mode amplitudes, so
    # it sits far below the eigensolver's relative round-off floor, which
    # grows with |A| / lambda1 and reaches 1e-8 on 30:1 ellipses.
    vec = vec[:, 0]
    rq = (vec.conj() @ A @ vec).real / (vec.conj() @ M @ vec).real
    return float(lam[0]), float(rq), L, kappa2_min


def lowest_eigenvalue(
    curve: ClosedCurve,
    *,
    rtol: float = 1e-8,
    max_n: int = 2048,
) -> OvalSpectrum:
    """Lowest periodic eigenvalue of -d^2/ds^2 + kappa(s)^2 and the functional
    L^2 lambda1 / (2 pi)^2.

    Fourier-Galerkin (Hill's method) in the curve's own parameter: K = 16
    modes each way at first, doubled until the eigenvalue moves by less than
    ``rtol`` relatively; raises once 2K would exceed ``max_n``.  Every level
    is checked against the invariants lambda1 >= min kappa^2 (on the
    eigensolver's own value: the Rayleigh quotient is an upper bound and
    would hide a broken solve) and functional >= 1/2, and a violation raises
    ResolutionError.
    """
    if max_n < 64:
        raise ValueError("max_n must allow two levels (K = 16 and 32)")
    K, lam_prev = 16, math.nan
    while 2 * K <= max_n:
        n_used = 2 * K + 1
        raw, lam, L, kappa2_min = _galerkin_level(curve, K)
        functional = L * L * lam / TWO_PI**2
        failure = None
        if not (math.isfinite(raw) and math.isfinite(lam)):
            failure = "eigenvalue is not finite"
        elif not (raw >= kappa2_min * (1.0 - rtol)):  # -d^2/ds^2 >= 0
            failure = "eigenvalue below min kappa^2"
        elif not (functional >= 0.5):
            failure = "functional below the proven constant 1/2"
        if failure is not None:
            raise ResolutionError(
                failure,
                {"lambda1": raw, "rayleigh_quotient": lam, "min_kappa2": kappa2_min,
                 "functional": functional, "n": n_used},
            )
        change = abs(lam - lam_prev) / lam
        if change <= rtol:
            spec = OvalSpectrum(lam, functional, L, n_used, max(rtol, change))
            if spec.below_conjectured_constant:
                _log.warning(
                    "oval functional %.15g is below the conjectured constant 1 "
                    "beyond its relative error %.3g", functional, spec.rel_error,
                )
            return spec
        K, lam_prev = 2 * K, lam
    raise ResolutionError(
        "eigenvalue did not converge across refinements",
        {"last": lam_prev, "n": n_used},
    )
