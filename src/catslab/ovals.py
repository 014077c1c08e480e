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
resampled: on the real orthonormal modes 1, sqrt(2) cos 2 pi k u and
sqrt(2) sin 2 pi k u, k = 1..K (the span of e^{2 pi i j u}, |j| <= K), the
problem is the real symmetric A c = lambda M c, with A the stiffness form of
1/sigma plus the mass form of kappa^2 sigma and M the mass form of sigma,
where sigma = |c'(u)|.  Each form is Toeplitz plus Hankel in the Fourier
coefficients of its weight, taken once per FFT grid.  lambda1 is the
Rayleigh quotient of the computed lowest eigenvector.  K doubles from 16
until lambda1 moves by less than ``rtol``; ``n_used`` reports the 2K + 1
modes of the accepted level.  Each level must satisfy lambda1 >= min kappa^2
(as -d^2/ds^2 >= 0) and functional >= 1/2, otherwise ResolutionError is
raised.  ``ClosedCurve`` keeps the exactly scaled unit-size copy c / 4^q of
its points (4^q near max |c|), and every derived quantity comes from it, so
any curve whose size is a normal double is solved as the unit-size curve is;
a failure reports the unit copy's residuals, with ``log4_scale`` = q.

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
from .spectral import TWO_PI, fourier_derivative

_log = logging.getLogger(__name__)
# a parameterization is degenerate where its speed falls below this times the mean
_SPEED_FLOOR = 1e-8


def _speed_curvature(points: np.ndarray, n: int | None = None):
    """sigma = |c'| and kappa = |c' x c''| / |c'|^3 of unit-size samples
    (any parameterization), at the samples or, with ``n``, on a uniform grid
    of n >= N points by zero padding.  kappa is inf or nan where sigma is 0."""
    c1 = fourier_derivative(points, 1, n, period=1.0)
    c2 = fourier_derivative(points, 2, n, period=1.0)
    sigma = np.linalg.norm(c1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return sigma, np.linalg.norm(np.cross(c1, c2), axis=1) / sigma**3


class ClosedCurve:
    """Periodic point samples of a closed space curve, uniform in parameter.

    ``points`` has shape (N, 3) with no duplicated endpoint, and max |c| is a
    normal double.  Speed, total length and curvature come spectrally from the
    unit-size copy c / 4^q, scaled back exactly; curvature is the full
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
        size = float(np.abs(pts).max())
        if size < np.finfo(float).tiny:  # subnormal: its FFTs lose their bits
            raise ValueError(f"curve size max |c| = {size!r} is below the normal doubles")
        self.points = pts
        self._q = math.frexp(size)[1] // 2  # the unit copy's max |c| is in [1/2, 2)
        self._unit = np.ldexp(pts, -2 * self._q)
        self._frame = _speed_curvature(self._unit)  # (sigma, kappa) at the nodes
        sigma = self._frame[0]
        if not sigma.mean() > 0.0 or sigma.min() < _SPEED_FLOOR * sigma.mean():
            raise ValueError("degenerate parameterization: speed vanishes")

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def speed(self) -> np.ndarray:
        return np.ldexp(self._frame[0], 2 * self._q)

    @cached_property
    def total_length(self) -> float:
        # trapezoid rule of a smooth periodic integrand: the plain mean
        return float(np.ldexp(self._frame[0].mean(), 2 * self._q))

    @cached_property
    def curvature(self) -> np.ndarray:
        return np.ldexp(self._frame[1], -2 * self._q)

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
    """(Int |df/ds|^2 + kappa^2 f^2 ds) / (Int f^2 ds) for node samples ``f``,
    taken on the curve's unit copy and scaled back."""
    f = np.asarray(f, dtype=float)
    if f.shape != (len(curve),):
        raise ValueError("f must be sampled at the curve nodes")
    sigma, kappa = curve._frame
    denom = float((f**2 * sigma).mean())
    if denom < 1e-30:
        raise ValueError("f is numerically zero")
    df_ds = fourier_derivative(f, period=1.0) / sigma
    numer = float(((df_ds**2 + kappa**2 * f**2) * sigma).mean())
    return float(np.ldexp(numer / denom, -4 * curve._q))


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


def _weight_coefficients(points: np.ndarray, P: int):
    """Fourier coefficients c_m = R_m + i I_m, m = 0..P/2, of the Galerkin
    weights 1/sigma, kappa^2 sigma and sigma (columns), with the length and
    min kappa^2, all on a uniform grid of P points from the unit-size
    ``points`` (``_speed_curvature``).  The coefficients are None where a
    weight is not finite.
    """
    sigma, kappa = _speed_curvature(points, P)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa2 = kappa**2
        weights = np.stack([1.0 / sigma, kappa2 * sigma, sigma], axis=1)
    L, kappa2_min = float(sigma.mean()), float(kappa2.min())
    if not np.all(np.isfinite(weights)):
        return None, L, kappa2_min
    return np.fft.rfft(weights, axis=0) / P, L, kappa2_min


def _galerkin_matrices(coef: np.ndarray, K: int):
    """Real symmetric A and M on the orthonormal basis 1, sqrt(2) cos 2 pi k u,
    sqrt(2) sin 2 pi k u, k = 1..K (in that order), from the
    ``_weight_coefficients``.

    The mass form of a weight w is Toeplitz plus Hankel in its coefficients:
    cos_j cos_k = R_|j-k| + R_j+k, sin_j sin_k = R_|j-k| - R_j+k and
    cos_j sin_k = sign(j-k) I_|j-k| - I_j+k; row 0 is R_0, sqrt(2) R_k and
    -sqrt(2) I_k.  d/du swaps cos and sin, so the stiffness form of 1/sigma
    takes the sin-sin block times (2 pi)^2 j k for cos-cos, and so on.
    A = stiffness(1/sigma) + mass(kappa^2 sigma), M = mass(sigma).
    """
    j = np.arange(1, K + 1)
    diff, tot = np.abs(j[:, None] - j), j[:, None] + j
    sign = np.sign(j[:, None] - j)
    jk = TWO_PI**2 * np.outer(j, j)
    cos, sin = slice(1, K + 1), slice(K + 1, 2 * K + 1)

    def blocks(c):  # cos-cos, sin-sin and cos-sin mass blocks
        Rd, Rt = c.real[diff], c.real[tot]
        return Rd + Rt, Rd - Rt, sign * c.imag[diff] - c.imag[tot]

    def mass(c):
        out = np.empty((2 * K + 1, 2 * K + 1))
        out[0, 0] = c[0].real
        out[0, cos] = out[cos, 0] = math.sqrt(2.0) * c[1 : K + 1].real
        out[0, sin] = out[sin, 0] = -math.sqrt(2.0) * c[1 : K + 1].imag
        out[cos, cos], out[sin, sin], out[cos, sin] = blocks(c)
        out[sin, cos] = out[cos, sin].T
        return out

    A, M = mass(coef[:, 1]), mass(coef[:, 2])
    cc, ss, cs = blocks(coef[:, 0])
    A[cos, cos] += jk * ss
    A[sin, sin] += jk * cc
    A[cos, sin] -= (jk * cs).T
    A[sin, cos] = A[cos, sin].T
    return A, M


def _galerkin_level(coef: np.ndarray, K: int):
    """Lowest eigenvalue on the 2K + 1 real modes 1, cos 2 pi k u, sin 2 pi k u
    in the curve's own parameter u: (eigensolver value, Rayleigh quotient of
    its eigenvector).

    The weak form Int (f_u^2 / sigma + kappa^2 sigma f^2) du against
    Int sigma f^2 du, sigma = |c'(u)|, gives the real symmetric A c = lambda M c
    of ``_galerkin_matrices``; ``coef`` must come from a grid P >= 8K, so no
    index up to 2K aliases.
    """
    from scipy.linalg import eigh  # about 0.3 s; loaded on the first solve

    A, M = _galerkin_matrices(coef, K)
    try:
        lam, vec = eigh(A, M, subset_by_index=(0, 0))
    except np.linalg.LinAlgError:
        return math.nan, math.nan
    # The Rayleigh quotient of the computed eigenvector is exact to second
    # order in its error and sums terms that decay with the mode amplitudes, so
    # it sits far below the eigensolver's relative round-off floor, which
    # grows with |A| / lambda1 and reaches 1e-8 on 30:1 ellipses.
    vec = vec[:, 0]
    return float(lam[0]), float((vec @ A @ vec) / (vec @ M @ vec))


def _rescaled(name: str, value: float, exponent: int, residuals: dict) -> float:
    """value * 2^exponent, or ResolutionError naming ``name`` unless that is a
    normal double."""
    if not -1021 <= math.frexp(value)[1] + exponent <= 1024:
        raise ResolutionError(f"{name} is outside the normal double range", residuals)
    return math.ldexp(value, exponent)


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
    ResolutionError, as does a lambda1 or L that is not a normal double once
    scaled back.  The residuals of a failure are those of the curve's unit
    copy c / 4^log4_scale.
    """
    if max_n < 64:
        raise ValueError("max_n must allow two levels (K = 16 and 32)")
    # Solve on the unit copy c / 4^q: every step is then exact in the power of
    # two, Cholesky's square root included, so the scaled solve is the
    # unscaled one bit for bit where that stays in range.
    q, points = curve._q, curve._unit
    K, lam_prev, P_prev = 16, math.nan, 0
    while 2 * K <= max_n:
        n_used = 2 * K + 1
        P = 1 << (max(8 * K, 2 * len(curve)) - 1).bit_length()
        if P != P_prev:  # one weight FFT per grid; the levels slice it
            coef, L, kappa2_min = _weight_coefficients(points, P)
            P_prev = P
        raw, lam = (math.nan, math.nan) if coef is None else _galerkin_level(coef, K)
        functional = L * L * lam / TWO_PI**2
        residuals = {"lambda1": raw, "rayleigh_quotient": lam, "min_kappa2": kappa2_min,
                     "functional": functional, "length": L, "n": n_used, "log4_scale": q}
        failure = None
        if not (math.isfinite(raw) and math.isfinite(lam)):
            failure = "eigenvalue is not finite"
        elif not (raw >= kappa2_min * (1.0 - rtol)):  # -d^2/ds^2 >= 0
            failure = "eigenvalue below min kappa^2"
        elif not (functional >= 0.5):
            failure = "functional below the proven constant 1/2"
        if failure is not None:
            raise ResolutionError(failure, residuals)
        change = abs(lam - lam_prev) / lam
        if change <= rtol:
            spec = OvalSpectrum(
                _rescaled("lambda1", lam, -4 * q, residuals), functional,
                _rescaled("length", L, 2 * q, residuals), n_used, max(rtol, change),
            )
            if spec.below_conjectured_constant:
                _log.warning(
                    "oval functional %.15g is below the conjectured constant 1 "
                    "beyond its relative error %.3g", functional, spec.rel_error,
                )
            return spec
        K, lam_prev = 2 * K, lam
    raise ResolutionError(
        "eigenvalue did not converge across refinements",
        {"last": lam_prev, "n": n_used, "log4_scale": q},
    )
