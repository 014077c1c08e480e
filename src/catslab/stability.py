"""Marginally stable catenoid pieces via tangent cones, and their Jacobi spectra.

For an apex p = z*e3 on the axis there are exactly two cones through p tangent
to the unit vertical catenoid, touching it at heights t_plus(z) > 0 and
t_minus(z) < 0.  In the (radius, height) half-plane the tangency condition for
the profile r = cosh(t) reduces to the closed form

    t - coth(t) = z

on each sign branch, obtained from the tangent line through (cosh t, t) with
slope sinh t.  The piece cut out between the two tangency heights carries the
positive dilation-about-p normal field, vanishing on the boundary, so it is
marginally stable.  The rotationally symmetric Dirichlet problem for the
Jacobi operator in the conformal height coordinate of the unit catenoid,

    -u'' - 2 sech^2(s) u = mu cosh^2(s) u      on (a, b), u(a) = u(b) = 0,

has a lowest eigenvalue whose sign classifies the piece: stable (> 0),
marginal (= 0), unstable (< 0).  The module checks that sign with the lowest
eigenvalue nu1 of the unweighted bracket -u'' - 2 sech^2(s) u = nu u, which
has the same sign and a closed form (``jacobi_nu1``), and solves the weighted
problem itself as a symmetric tridiagonal finite-difference eigenproblem
(``lowest_jacobi_eigenvalue``), whose sign is unreliable far from the neck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConvergenceError, check_index
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
    ValueError unless the apex height and every height are finite.
    """
    if not math.isfinite(apex_height):
        raise ValueError(f"apex_height must be finite, got {apex_height!r}")
    import numpy as np

    h = np.asarray(height, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("height must be finite")
    out = 1.0 - (h - apex_height) * np.tanh(h)
    return float(out) if out.ndim == 0 else out


@dataclass
class JacobiSpectrumResult:
    lowest_eigenvalue: float
    eigenfunction_samples: np.ndarray
    nodes: np.ndarray = field(repr=False)


def _check_piece(piece: CatenoidPiece):
    if abs(piece.scale - 1.0) > 1e-12 or abs(piece.offset) > 1e-12:
        raise ValueError("Jacobi solver expects a unit-scale piece with offset 0")


def _one_plus_tanh(s: float) -> float:
    """1 + tanh(s) to full relative precision, also where tanh(s) rounds to -1."""
    e = math.exp(-2.0 * abs(s))
    return 2.0 / (1.0 + e) if s >= 0.0 else 2.0 * e / (1.0 + e)


def jacobi_nu1(piece: CatenoidPiece) -> float:
    """Lowest Dirichlet eigenvalue nu1 of -u'' - 2 sech^2(s) u = nu u on a unit piece.

    nu1 has the sign of the weighted Jacobi eigenvalue mu1 (both minimize the
    same quadratic form), so it classifies the piece, and it is exactly 0 on a
    marginal piece.  The bracket is the l = 1 Poeschl-Teller operator, whose
    solutions are elementary, so nu1 is the first root in nu of u(b) for the
    solution with u(a) = 0, u'(a) = 1.  With L = b - a, t_a = tanh a, t_b = tanh b,

        u(b) (1 + nu) = (t_a t_b + nu) S + (t_b - t_a) C,

    S = sin(kL)/k, C = cos kL for nu = k^2 >= 0, and, for nu = -kappa^2 and
    dropping the positive factor e^(kappa L), S = (1 - e^(-2 kappa L))/(2 kappa)
    and C = (1 + e^(-2 kappa L))/2.  By Sturm oscillation u(b) at nu = 0 has the
    sign of nu1, and nu1 lies in (-1, (pi/L)^2), below nu2.  A positive nu1 is
    one bracketed root in (kL)^2, a negative one in log kappa, so roots near 0
    on slabs of any height and roots near -1 both keep their digits.  There is
    no mesh and no weight to overflow; slabs of height below 1e-150 (nu1 near
    the double range) or beyond the double range raise ConvergenceError.
    """
    _check_piece(piece)
    a, b = piece.slab.h_minus, piece.slab.h_plus
    length = b - a
    if not 1e-150 < length < math.inf:
        raise ConvergenceError("slab height out of range for nu1", {"height": length})
    nu_max = (math.pi / length) ** 2
    ta, tb = math.tanh(a), math.tanh(b)
    pa, ma, pb, qb = (_one_plus_tanh(s) for s in (a, -a, b, -b))  # 1 + t_a, 1 - t_a, ...

    def above(w: float) -> float:  # nu = w / L^2 >= 0
        kl = math.sqrt(w)
        nu = (kl / length) ** 2
        s = length * math.sin(kl) / kl if kl else length
        return ((ta * tb + nu) * s + (tb - ta) * math.cos(kl)) / (1.0 + nu)

    def below(log_kappa: float) -> float:  # nu = -kappa^2 < 0
        kappa = math.exp(log_kappa)
        if kappa <= 0.5:
            m = math.expm1(-2.0 * kappa * length)
            s = -m / (2.0 * kappa) if kappa else length
            return ((ta * tb - kappa**2) * s + (tb - ta) * (1.0 + 0.5 * m)) / (1.0 - kappa**2)
        # towards nu = -1 both terms vanish: the same value, expanded in
        # d = 1 - kappa with 1 + t_a = e^(-2L) (1 - t_a)(1 + t_b) / (1 - t_b)
        d = -math.expm1(log_kappa)
        e = math.exp(-2.0 * kappa * length)
        if 2.0 * d * length < 1.0:
            ratio = pa * qb * (math.expm1(2.0 * d * length) / d if d else 2.0 * length)
        else:
            ratio = (e * ma * pb - pa * qb) / d
        return (ratio + pa + qb - e * (ma + pb) - d * (1.0 - e)) / (2.0 * kappa * (1.0 + kappa))

    # at a root both terms of u(b) are O(1); a step of the root variable moves
    # u(b) by up to about eps |t_a t_b| L
    tol = 1e-14 * (2.0 + abs(ta * tb) * length)
    at_zero = above(0.0)
    if at_zero > 0.0:
        # u(b) < 0 at kL = pi: fl(pi) < pi where S's term is positive,
        # otherwise the next double, which is still below nu2
        kl = math.pi if ta * tb + nu_max < 0.0 else math.nextafter(math.pi, 4.0)
        kl = math.sqrt(bracketed_root(above, 0.0, kl * kl, residual_tol=tol))
        return (kl / length) ** 2
    if at_zero < 0.0:
        # exp(-746) is 0.0, where below() is at_zero
        kappa = math.exp(bracketed_root(below, -746.0, 0.0, residual_tol=tol))
        return -kappa * kappa
    return 0.0


def lowest_jacobi_eigenvalue(
    piece: CatenoidPiece, mesh: int = 4096, method: str = "fd"
) -> JacobiSpectrumResult:
    """Lowest Dirichlet eigenvalue of the Jacobi operator on a clipped unit catenoid.

    Solves the symmetric tridiagonal finite-difference form of the weighted
    problem on ``mesh`` uniform cells (O(h^2) accurate; about 7e-8 on the
    marginal piece at mesh 4096).  The eigenfunction is returned on all mesh
    nodes, scaled to max |u| = 1, positive near the lower end and zero at both
    ends by construction.  Raises ConvergenceError when the cosh^2 weight
    overflows a double on the slab (|s| beyond about 355).

    Two known faults, so take a stability verdict from ``jacobi_nu1``:
    - far from the neck the weight pushes mu1 below round-off and its sign is
      wrong: Slab(-0.0032, 100) is stable but gives -2.7e-13 at mesh 4096, and
      Slab(-0.0032, 330) is unstable but gives +3.4e-284;
    - the uniform mesh spends its cells far from the neck on long slabs: on
      Slab(-0.5, 300), mesh 1024 gives -0.02777 against -0.02552 at 16384.
    """
    _check_piece(piece)
    mesh = check_index(mesh, "mesh")
    if mesh < 16:
        raise ValueError("mesh too coarse: need at least 16 nodes")
    # "fd" is the only solver; the keyword stays because the benchmark passes it
    if method != "fd":
        raise ValueError(f"unknown method {method!r}: only 'fd' is available")
    a, b = piece.slab.h_minus, piece.slab.h_plus
    import numpy as np

    nodes = np.linspace(a, b, mesh + 1)
    s = nodes[1:-1]
    h = (b - a) / mesh
    with np.errstate(over="ignore"):
        c = np.cosh(s)
        w = c**2
    if not np.all(np.isfinite(w)):
        raise ConvergenceError(
            "cosh^2 weight of the Jacobi operator overflows on the slab",
            {"h_minus": a, "h_plus": b},
        )
    d = (2.0 / h**2 - 2.0 / w) / w
    e = (-1.0 / h**2) / (c[:-1] * c[1:])
    from scipy.linalg import eigh_tridiagonal  # about 0.3 s; loaded on the first solve

    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    u = vecs[:, 0] / c
    u = np.concatenate(([0.0], u, [0.0]))
    u = u / np.max(np.abs(u))
    if u[1] < 0:
        u = -u
    return JacobiSpectrumResult(float(vals[0]), u, nodes)
