"""Marginally stable catenoid pieces via tangent cones, and their Jacobi spectra.

For an apex p = z*e3 on the axis there are exactly two cones through p tangent
to the unit vertical catenoid, touching it at heights t_plus(z) > 0 and
t_minus(z) < 0.  In the (radius, height) half-plane the tangency condition for
the profile r = cosh(t) reduces to the closed form

    t - coth(t) = z

on each sign branch, obtained from the tangent line through (cosh t, t) with
slope sinh t.  The piece cut out between the two tangency heights carries the
positive dilation-about-p normal field, vanishing on the boundary, so it is
marginally stable; the module verifies this spectrally by solving the
rotationally symmetric Dirichlet problem for the Jacobi operator

    -u'' - 2 sech^2(s) u = mu cosh^2(s) u      on (a, b), u(a) = u(b) = 0

in the conformal height coordinate of the unit catenoid, discretized as a
symmetric tridiagonal finite-difference eigenproblem.  Sign of the lowest
eigenvalue classifies the piece: stable (> 0), marginal (= 0), unstable (< 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .geometry import CatenoidPiece, Slab
from .rootfind import bracketed_root


@dataclass(frozen=True)
class ConeTangency:
    """Tangency heights of the two cones from apex (0, 0, apex_height)."""

    apex_height: float
    t_plus: float
    t_minus: float

    def __post_init__(self):
        if not self.t_minus < 0.0 < self.t_plus:
            raise ValueError("tangency heights must satisfy t_minus < 0 < t_plus")


def _tangency_positive(z: float) -> float:
    # root of g(t) = t - coth(t) - z on t > 0; g is strictly increasing there
    def g(t: float) -> float:
        return t - 1.0 / math.tanh(t) - z

    def gp(t: float) -> float:
        return 1.0 / math.tanh(t) / math.tanh(t)  # 1 + csch^2 t; inf, not an error, near 0

    hi = max(2.0, z + 2.0)
    lo = 1.0
    while g(lo) >= 0.0:
        lo *= 0.5
        if lo == 0.0:
            raise ConvergenceError("failed to bracket tangency root", {"z": z})
    if math.isinf(gp(lo)):
        # below t ~ 1e-154 (z below about -1e154, root near 1/|z|) the Newton
        # slope overflows and only bisection steps remain: start them from the
        # last halving's octave, which holds the root
        hi = 2.0 * lo
    # the evaluation noise of g is eps * |z|, so the residual target scales
    return bracketed_root(g, lo, hi, gp, residual_tol=1e-13 * max(1.0, abs(z)))


def tangent_cone_heights(apex_height: float) -> ConeTangency:
    """Solve t - coth(t) = apex_height on both sign branches.

    t_plus is strictly increasing in the apex height with range (0, inf);
    t_minus(z) = -t_plus(-z) by the reflection symmetry of the catenoid.
    """
    t_plus = _tangency_positive(apex_height)
    t_minus = -_tangency_positive(-apex_height)
    return ConeTangency(apex_height, t_plus, t_minus)


def cat_ms(apex_height: float) -> CatenoidPiece:
    """Marginally stable piece of the unit catenoid cut out by the apex's cones."""
    ct = tangent_cone_heights(apex_height)
    return CatenoidPiece(1.0, 0.0, Slab(ct.t_minus, ct.t_plus))


def dilation_jacobi_field(apex_height: float, height) -> float | np.ndarray:
    """Normal component (up to normalization) of dilation about apex z*e3.

    u(h; z) = 1 - (h - z) tanh(h) solves u'' + 2 sech^2(h) u = 0, is positive
    strictly between the tangency heights and vanishes exactly at them.
    """
    h = np.asarray(height, dtype=float)
    out = 1.0 - (h - apex_height) * np.tanh(h)
    return float(out) if out.ndim == 0 else out


@dataclass
class JacobiSpectrumResult:
    lowest_eigenvalue: float
    eigenfunction_samples: np.ndarray
    mesh_size: int
    nodes: np.ndarray = field(repr=False, default=None)


def _check_piece(piece: CatenoidPiece):
    if abs(piece.scale - 1.0) > 1e-12 or abs(piece.offset) > 1e-12:
        raise ValueError("Jacobi solver expects a unit-scale piece with offset 0")


def lowest_jacobi_eigenvalue(
    piece: CatenoidPiece,
    mesh: int = 4096,
    method: str = "fd",
    angular_mode: int = 0,
) -> JacobiSpectrumResult:
    """Lowest Dirichlet eigenvalue of the Jacobi operator on a clipped unit catenoid.

    Solves the symmetric tridiagonal finite-difference form of the weighted
    problem on ``mesh`` uniform cells (O(h^2) accurate; about 7e-8 on the
    marginal piece at mesh 4096).  The eigenfunction is returned on all mesh
    nodes, scaled to max |u| = 1, positive near the lower end and zero at both
    ends by construction.  ``angular_mode=k`` adds the k^2 angular potential
    (higher modes are strictly more stable).  Raises ConvergenceError when the
    cosh^2 weight overflows a double on the slab (|s| beyond about 355).
    """
    _check_piece(piece)
    if mesh < 16:
        raise ValueError("mesh too coarse: need at least 16 nodes")
    # "fd" is the only solver; the keyword stays because the benchmark passes it
    if method != "fd":
        raise ValueError(f"unknown method {method!r}: only 'fd' is available")
    a, b = piece.slab.h_minus, piece.slab.h_plus
    k2 = float(angular_mode * angular_mode)

    nodes = np.linspace(a, b, mesh + 1)
    s = nodes[1:-1]
    h = (b - a) / mesh
    with np.errstate(over="ignore"):
        w = np.cosh(s) ** 2
        root = np.sqrt(w[:-1] * w[1:])
    if not np.all(np.isfinite(w)):
        raise ConvergenceError(
            "cosh^2 weight of the Jacobi operator overflows on the slab",
            {"h_minus": a, "h_plus": b},
        )
    # beyond |s| ~ 177 the product overflows although both factors are finite
    root = np.where(np.isfinite(root), root, np.sqrt(w[:-1]) * np.sqrt(w[1:]))
    q = k2 - 2.0 / w
    d = (2.0 / h**2 + q) / w
    e = (-1.0 / h**2) / root
    from scipy.linalg import eigh_tridiagonal  # about 0.3 s; loaded on the first solve

    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    u = vecs[:, 0] / np.sqrt(w)
    u = np.concatenate(([0.0], u, [0.0]))
    u = u / np.max(np.abs(u))
    if u[1] < 0:
        u = -u
    return JacobiSpectrumResult(float(vals[0]), u, mesh, nodes)
