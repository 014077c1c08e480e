"""Shared spectral and quadrature kernels (numpy only).

Periodic samples sit on ``n`` uniform nodes of [0, period) with no duplicated
endpoint.  On them the trapezoid rule is the plain mean times the period and
is spectrally accurate for smooth integrands; derivatives and antiderivatives
act on the trigonometric interpolant through the FFT.  Non-periodic
directions use Gauss-Legendre rules mapped to [a, b].  Both converge
exponentially on analytic integrands, so ``refined`` picks a node count by
one doubling test: a count is accepted once it agrees with half or twice
itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ResolutionError

TWO_PI = 2.0 * math.pi


def periodic_nodes(n: int, period: float = TWO_PI) -> np.ndarray:
    return np.linspace(0.0, period, n, endpoint=False)


def periodic_integral(values, period: float = TWO_PI):
    """Periodic trapezoid rule along the last axis: the mean times the period."""
    return values.mean(axis=-1) * period


def fourier_derivative(
    values: np.ndarray, order: int = 1, n_out: int | None = None, *, period: float = TWO_PI
) -> np.ndarray:
    """Spectral derivative along axis 0 of real periodic samples on [0, period).

    At the sample points by default or with ``n_out`` equal to the sample
    count.  With a larger ``n_out`` the derivative of the trigonometric
    interpolant is evaluated on a uniform grid of ``n_out`` points by zero
    padding; an even count's Nyquist mode is split evenly between +-n/2.  A
    smaller ``n_out`` raises ValueError.
    """
    n = values.shape[0]
    n_out = n if n_out is None else n_out
    if n_out < n:
        raise ValueError(f"n_out = {n_out} is below the sample count {n}")
    spec = np.fft.fft(values, axis=0)
    if n_out > n:
        pos = (n + 1) // 2
        padded = np.zeros((n_out,) + values.shape[1:], dtype=complex)
        padded[:pos] = spec[:pos]
        padded[n_out - (n - pos):] = spec[pos:]
        if n % 2 == 0:
            padded[n_out - n // 2] *= 0.5
            padded[n // 2] = padded[n_out - n // 2]
        spec = padded * (n_out / n)
    elif order % 2 and n % 2 == 0:
        spec[n // 2] = 0.0  # odd derivative of the Nyquist mode is ambiguous
    modes = np.fft.fftfreq(n_out, d=1.0 / n_out) * (TWO_PI / period)
    factor = ((1j * modes) ** order).reshape((n_out,) + (1,) * (values.ndim - 1))
    return np.fft.ifft(spec * factor, axis=0).real


def cumulative_integral(values: np.ndarray, period: float = TWO_PI):
    """Spectral antiderivative along the last axis of periodic samples.

    Returns ``(I, total)``: ``I[..., k]`` integrates from 0 to node k and
    ``total`` over the whole period.
    """
    n = values.shape[-1]
    coef = np.fft.fft(values, axis=-1)
    coef /= n
    m = np.fft.fftfreq(n, d=1.0 / n)
    anti = np.divide(
        coef, 1j * (m * (TWO_PI / period)), out=np.zeros_like(coef), where=m != 0
    )
    anti *= n
    wave = np.fft.ifft(anti, axis=-1)
    c0 = coef[..., 0]
    out = c0[..., None] * periodic_nodes(n, period)
    out += wave
    out -= wave[..., :1]
    return out, c0 * period


@functools.lru_cache(maxsize=32)
def _legendre(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    nodes, weights = _legendre(n)
    return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * (b - a) * weights


def refined(rule, floor: int, cap: int, rtol: float, name: str):
    """``(value, n)`` for the first n of floor, 2*floor, ... up to ``cap``
    where ``rule(n)``, which returns ``(value, relative disagreement)``
    between the n-node result and the rule at half or twice n, disagrees by
    at most ``rtol``.  A NaN disagreement is never accepted.  At ``cap``
    raises ResolutionError with residuals ``max_relative_disagreement`` and
    ``name``: the count that was refused.
    """
    n = floor
    while True:
        value, disagreement = rule(n)
        if disagreement <= rtol:
            return value, n
        if n >= cap:
            raise ResolutionError(
                f"quadrature did not converge by {name} = {n}",
                {"max_relative_disagreement": float(disagreement), name: n},
            )
        n = min(2 * n, cap)
