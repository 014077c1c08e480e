"""Independent numerical oracles used by the tests.

Each oracle deliberately avoids the closed forms implemented in the package:
tangent vectors come from finite differences of the parameterization, lengths
from discretized line integrals, eigenvalues from monodromy shooting, a
tridiagonal finite-difference matrix or dense collocation on uniform-arclength
samples (made by ``resample_arclength``, the one resampler, which the
package's Galerkin solver does not need), solution counts from sign-change
cells of a dense residual grid, Laurent series from one complex power per
term, level-length derivatives from 5-point stencils, Weierstrass flux
vectors from loop integrals of directly evaluated g and h, the symmetric
marginal piece's ends from Brent's method on h tanh h = 1, the oval
Galerkin matrices from Toeplitz matrices on complex Fourier modes, and each
oval level's eigenvalue from a dense generalized eigensolve instead of the
package's certified inverse iteration.  The area
quadrature's stencil is also kept here in two dimensions, on stacked points
(``np.cross`` and ``np.linalg.norm``), as the reference of the package's rule
on the height axis alone.
"""

import functools
import math

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, toeplitz
from scipy.optimize import brentq
from scipy.signal import resample as trig_resample

from catslab.geometry import CatenoidPiece, parameterize
from catslab.ovals import ClosedCurve, _galerkin_matrices
from catslab.spectral import cumulative_integral, fourier_derivative, gauss_legendre, periodic_nodes

TWO_PI = 2.0 * math.pi


def flux_line_integral(piece: CatenoidPiece, height: float, n: int = 256, step: float = 1e-6):
    """Discretized flux integral of the conormal over a horizontal slice circle.

    The conormal is the unit surface-tangent direction normal to the slice,
    taken here from a central difference of the parameterization in height.
    Returns a 3-vector.
    """
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    dh = step * max(1.0, piece.scale)
    hp, hm = height + dh, height - dh
    tangent_h = (parameterize(piece, hp, theta) - parameterize(piece, hm, theta)) / (
        hp - hm
    )
    conormal = tangent_h / np.linalg.norm(tangent_h, axis=-1, keepdims=True)
    tp, tm = theta + step, theta - step
    ds = np.linalg.norm(
        (parameterize(piece, height, tp) - parameterize(piece, height, tm))
        / (tp - tm)[:, None],
        axis=-1,
    )
    return (conormal * ds[:, None]).mean(axis=0) * TWO_PI


def area_by_stacked_stencil(piece: CatenoidPiece, n_height: int = 64, n_theta: int = 256) -> float:
    """Area by tensor-product quadrature on stacked points: Gauss-Legendre in
    height times trapezoid in angle of |f_h x f_theta|, for central differences
    of the parameterization as (n_height, n_theta, 3) arrays, at h +- 1e-5
    scale even where that leaves the slab and at theta +- 1e-5, with
    ``np.cross`` and ``np.linalg.norm``.  The element r*(sin d/d)*sqrt(1 + r'^2)
    does not depend on theta, so ``geometry.area_by_quadrature`` at the same
    n_height must agree to 1e-10 wherever this is finite."""
    hs, w_h = gauss_legendre(n_height, piece.slab.h_minus, piece.slab.h_plus)
    hh, tt = hs[:, None], periodic_nodes(n_theta)[None, :]
    dh = 1e-5 * piece.scale
    hh_p, hh_m = hh + dh, hh - dh  # central at every node, past the slab ends too
    dth = 1e-5

    def points(h, theta):  # ``parameterize`` without its slab check
        r = piece.scale * np.cosh((h - piece.offset) / piece.scale)
        return np.stack(np.broadcast_arrays(r * np.cos(theta), r * np.sin(theta), h), axis=-1)

    f_h = (points(hh_p, tt) - points(hh_m, tt)) / ((hh_p - hh_m)[..., None])
    f_t = (points(hh, tt + dth) - points(hh, tt - dth)) / (2.0 * dth)
    cross = np.cross(f_h, f_t)
    _, exp = np.frexp(np.max(np.abs(cross)))
    element = np.ldexp(np.linalg.norm(np.ldexp(cross, -exp), axis=-1), exp)
    return float((w_h[:, None] * element).sum() * (TWO_PI / n_theta))


def circle_arclength(piece: CatenoidPiece, height: float, n: int = 512, step: float = 1e-6):
    """Arclength of one horizontal slice circle from the parameterization."""
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    tp, tm = theta + step, theta - step
    speed = np.linalg.norm(
        (parameterize(piece, height, tp) - parameterize(piece, height, tm))
        / (tp - tm)[:, None],
        axis=-1,
    )
    return float(speed.mean() * TWO_PI)


def boundary_arclength(piece: CatenoidPiece, n: int = 512):
    return circle_arclength(piece, piece.slab.h_minus, n) + circle_arclength(
        piece, piece.slab.h_plus, n
    )


def ms_indicator(height):
    """1 - h*tanh(h), the dilation Jacobi field about the origin: positive
    strictly inside the symmetric marginally stable piece, zero on its ends."""
    h = np.asarray(height, dtype=float)
    out = 1.0 - h * np.tanh(h)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=None)
def ms_indicator_zero() -> float:
    """Positive root of h*tanh(h) = 1 (the symmetric piece's upper end), by
    Brent's method rather than the package's tangency solver."""
    return brentq(lambda h: h * math.tanh(h) - 1.0, 0.5, 2.0, xtol=1e-15, rtol=8.9e-16)


def cone_separation(apex_height: float, t_tangent: float, n: int = 4001):
    """Sampled min over heights of cosh(x3) minus the cone-profile radius.

    The cone through (0, apex_height) touching the profile r = cosh(x3) at
    height t has profile radius cosh(t) + (x3 - t) sinh(t); the catenoid must
    stay outside the cone except at the tangency height (which is included in
    the sample set, so the minimum is ~0 there).
    """
    span = 3.0 * max(1.0, abs(t_tangent), abs(apex_height))
    heights = np.concatenate([np.linspace(-span, span, n), [t_tangent]])
    line = math.cosh(t_tangent) + (heights - t_tangent) * math.sinh(t_tangent)
    return float((np.cosh(heights) - line).min())


def floquet_lambda1(curve, steps: int = 2048, tol: float = 1e-11):
    """Lowest periodic eigenvalue of -f'' + kappa^2 f by monodromy shooting.

    Integrates the fundamental system of the Hill equation over one period by
    fixed-step RK4 (curvature squared trig-refined to the half-step grid).
    The discriminant u1(L) + u2'(L) exceeds 2 strictly below the lowest
    periodic eigenvalue and dips below 2 just above it (it exceeds 2 again in
    spectral gaps), so the FIRST downward crossing of 2 is located by an
    upward scan and then refined: each pass evaluates 64 interior points of
    the bracket at once and keeps the cell in front of the first one at or
    below 2, so a pass costs one vectorized sweep and shrinks the bracket 65x.
    """
    n = len(curve)
    mult = max(1, int(math.ceil(2 * steps / n)))
    fine = trig_resample(curve.curvature**2, mult * n)
    steps = (mult * n) // 2
    L = curve.total_length
    h = L / steps

    def discriminant(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        u1 = np.ones_like(lams)
        v1 = np.zeros_like(lams)
        u2 = np.zeros_like(lams)
        v2 = np.ones_like(lams)

        def rk4(u, v, q0, qm, q1):
            k1u, k1v = v, q0 * u
            au, av = u + 0.5 * h * k1u, v + 0.5 * h * k1v
            k2u, k2v = av, qm * au
            bu, bv = u + 0.5 * h * k2u, v + 0.5 * h * k2v
            k3u, k3v = bv, qm * bu
            cu, cv = u + h * k3u, v + h * k3v
            k4u, k4v = cv, q1 * cu
            return (
                u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
                v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v),
            )

        for i in range(steps):
            q0 = fine[2 * i] - lams
            qm = fine[2 * i + 1] - lams
            q1 = fine[(2 * i + 2) % len(fine)] - lams
            u1, v1 = rk4(u1, v1, q0, qm, q1)
            u2, v2 = rk4(u2, v2, q0, qm, q1)
        return u1 + v2

    rayleigh_const = float(
        (curve.curvature**2 * curve.speed).mean() / curve.speed.mean()
    )
    grid = np.linspace(0.0, rayleigh_const * 1.01 + 1e-12, 160)
    disc = discriminant(grid) - 2.0
    below = np.nonzero(disc < 0.0)[0]
    assert disc[0] > 0.0 and below.size, "no downward crossing of the discriminant"
    k = below[0]
    lo, hi = float(grid[k - 1]), float(grid[k])
    while hi - lo > tol * max(1.0, hi):
        pts = np.linspace(lo, hi, 66)
        above = np.append(discriminant(pts[1:-1]) - 2.0 > 0.0, False)  # hi is below
        j = int(np.argmin(above)) + 1  # first point at or below 2
        lo, hi = float(pts[j - 1]), float(pts[j])
    return 0.5 * (lo + hi)


def _trig_interpolate(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at u in [0, 1)."""
    n = values.shape[0]
    spec = np.fft.fft(values, axis=0) / n
    modes = np.fft.fftfreq(n, d=1.0 / n)
    weights = np.exp(2j * math.pi * np.outer(u, modes))
    if n % 2 == 0:
        # split the Nyquist mode so the interpolant stays real
        weights[:, n // 2] = np.cos(math.pi * n * u)
    out = weights @ spec.reshape(n, -1)
    return out.real.reshape((len(u),) + values.shape[1:])


def _arclength_of(speed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """s(u) for arbitrary parameters: the integral from 0 of the trig
    interpolant of periodic ``speed`` samples on [0, 1)."""
    n = len(speed)
    a = np.fft.fft(speed) / n
    m = np.fft.fftfreq(n, d=1.0 / n)
    wraps = np.floor(u)
    frac = u - wraps
    phase = np.exp(2j * math.pi * np.outer(frac, m))
    nz = m != 0
    terms = (phase[:, nz] - 1.0) @ (a[nz] / (2j * math.pi * m[nz]))
    return a[0].real * (frac + wraps) + terms.real


def resample_arclength(curve, n: int | None = None):
    """Resample to uniform arclength; total length preserved, idempotent.

    |c'| is not band-limited, so its N samples alias when the curve has fine
    features near N/2.  The speed is therefore taken on a zero-padded grid of
    P = 4N points from the velocity of the position interpolant.  The map
    from parameter to arclength is inverted from its table at those P nodes
    plus 4 Newton steps (the exact s(u) against the tabulated speed,
    interpolated linearly), and the positions come from the interpolant, so
    the new samples lie exactly on the represented curve.
    """
    if n is None:
        n = len(curve)
    if n < 32:
        raise ValueError("need at least 32 samples")
    P = 4 * len(curve)
    speed = np.linalg.norm(fourier_derivative(curve.points, 1, P, period=1.0), axis=1)
    L = float(speed.mean())
    targets = L * np.arange(n) / n

    u_table = np.arange(P + 1) / P
    s_table = np.append(cumulative_integral(speed, period=1.0)[0].real, L)
    speed_table = np.append(speed, speed[0])
    u = np.interp(targets, s_table, u_table)
    for _ in range(4):
        u = u - (_arclength_of(speed, u) - targets) / np.interp(u % 1.0, u_table, speed_table)
    return ClosedCurve(_trig_interpolate(curve.points, u % 1.0))


def dense_collocation_lambda1(curve):
    """Lowest periodic eigenvalue of -d^2/ds^2 + kappa^2 by dense Fourier
    collocation on a curve sampled uniformly in arclength (for example the
    output of ``resample_arclength``): the n x n second-derivative matrix is
    built by FFT of the identity and solved with a dense symmetric eigh."""
    n = len(curve)
    L = curve.total_length
    modes = np.fft.fftfreq(n, d=1.0 / n) * TWO_PI / L
    Fm = np.fft.fft(np.eye(n), axis=0)
    D2 = np.real(np.fft.ifft(-(modes**2)[:, None] * Fm, axis=0))
    A = -D2 + np.diag(curve.curvature**2)
    A = 0.5 * (A + A.T)
    return float(eigh(A, eigvals_only=True, subset_by_index=(0, 0))[0])


def complex_galerkin_matrices(coef: np.ndarray, K: int):
    """Hermitian Galerkin matrices of the oval eigenproblem on the complex
    modes e^{2 pi i j u}, |j| <= K, from the Fourier coefficients ``coef`` of
    the weights 1/sigma, kappa^2 sigma and sigma (columns, m = 0..2K at least):
    A = (2 pi)^2 diag(j) T(1/sigma) diag(j) + T(kappa^2 sigma), M = T(sigma),
    with T[j, k] = w_{j-k} and w_{-m} = conj(w_m) for a real weight."""
    c = coef[: 2 * K + 1]
    j = np.arange(-K, K + 1)
    A = TWO_PI**2 * np.outer(j, j) * toeplitz(c[:, 0]) + toeplitz(c[:, 1])
    return A, toeplitz(c[:, 2])


def real_to_complex_modes(K: int) -> np.ndarray:
    """Unitary U whose columns are the real basis 1, sqrt(2) cos 2 pi k u and
    sqrt(2) sin 2 pi k u (k = 1..K, in that order) in the modes e^{2 pi i j u},
    rows j = -K..K."""
    U = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    k = np.arange(1, K + 1)
    U[K, 0] = 1.0
    U[K + k, k] = U[K - k, k] = 1.0 / math.sqrt(2.0)
    U[K + k, K + k], U[K - k, K + k] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
    return U


def complex_galerkin_lambda1(coef: np.ndarray, K: int) -> float:
    """Rayleigh quotient of the lowest generalized eigenvector of
    ``complex_galerkin_matrices``."""
    A, M = complex_galerkin_matrices(coef, K)
    vec = eigh(A, M, subset_by_index=(0, 0))[1][:, 0]
    return float((vec.conj() @ A @ vec).real / (vec.conj() @ M @ vec).real)


def dense_galerkin_lambda1(coef: np.ndarray, K: int) -> float:
    """Rayleigh quotient of the lowest eigenvector of the package's real
    Galerkin matrices (``ovals._galerkin_matrices``) by one dense generalized
    eigensolve: the reference for every level of the refinement ladder."""
    A, M = _galerkin_matrices(coef, K)
    vec = eigh(A, M, subset_by_index=(0, 0))[1][:, 0]
    return float((vec @ A @ vec) / (vec @ M @ vec))


def spanning_count_grid(lower, upper, slab, n_lam=400, n_c=400):
    """Count solution clusters of the two-length system on a dense (lam, c)
    grid: cells where both boundary-length residuals change sign, merged into
    4-connected clusters."""
    lam_max = lower / TWO_PI
    lams = np.geomspace(lam_max * 1e-3, lam_max * 1.0, n_lam)
    span = slab.h_plus - slab.h_minus
    cs = np.linspace(slab.h_minus - 3.0 * span, slab.h_plus + 3.0 * span, n_c)
    Lg, Cg = np.meshgrid(lams, cs, indexing="ij")
    r1 = TWO_PI * Lg * np.cosh(np.clip((slab.h_minus - Cg) / Lg, -700, 700)) - lower
    r2 = TWO_PI * Lg * np.cosh(np.clip((slab.h_plus - Cg) / Lg, -700, 700)) - upper

    def changes(r):
        s = np.sign(r)
        return (
            (s[:-1, :-1] != s[1:, :-1])
            | (s[:-1, :-1] != s[:-1, 1:])
            | (s[:-1, :-1] != s[1:, 1:])
        )

    hot = changes(r1) & changes(r2)
    seen = np.zeros_like(hot, dtype=bool)
    clusters = 0
    stack = []
    for i in range(hot.shape[0]):
        for j in range(hot.shape[1]):
            if hot[i, j] and not seen[i, j]:
                clusters += 1
                stack.append((i, j))
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        x, y = a + da, b + db
                        if (
                            0 <= x < hot.shape[0]
                            and 0 <= y < hot.shape[1]
                            and hot[x, y]
                            and not seen[x, y]
                        ):
                            seen[x, y] = True
                            stack.append((x, y))
    return clusters


def jacobi_shooting_mu1(a: float, b: float, mesh: int, k: int = 0) -> float:
    """Lowest Dirichlet eigenvalue of -u'' + (k^2 - 2 sech^2(s)) u = mu cosh^2(s) u
    on (a, b) by fixed-step RK4 shooting, independent of the library's FD solve;
    k is the angular mode (k = 0: rotationally symmetric fields).

    Integrates u(a) = 0, u'(a) = 1 over ``mesh`` steps, bisects mu on the sign
    structure of the shot solution (an interior zero or a nonpositive endpoint
    means mu lies above the ground state) and polishes with a secant iteration
    on the endpoint value.  It fails on marginal pieces with apex heights below
    about -6.45, so the tests use it only on pieces near the neck.
    """
    h = (b - a) / mesh
    s_half = np.linspace(a, b, 2 * mesh + 1)
    w_half = np.cosh(s_half) ** 2
    q_half = k * k - 2.0 / w_half

    def shoot(mu: float):
        coeff = [float(c) for c in (q_half - mu * w_half)]
        u, v = 0.0, 1.0
        crossings, prev_sign = 0, 0
        for i in range(mesh):
            c0, cm, c1 = coeff[2 * i], coeff[2 * i + 1], coeff[2 * i + 2]
            k1u, k1v = v, c0 * u
            u2, v2 = u + 0.5 * h * k1u, v + 0.5 * h * k1v
            k2u, k2v = v2, cm * u2
            u3, v3 = u + 0.5 * h * k2u, v + 0.5 * h * k2v
            k3u, k3v = v3, cm * u3
            u4, v4 = u + h * k3u, v + h * k3v
            k4u, k4v = v4, c1 * u4
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if i < mesh - 1:  # strict interior sign changes
                sign = 0 if u == 0.0 else (1 if u > 0.0 else -1)
                if prev_sign != 0 and sign != 0 and sign != prev_sign:
                    crossings += 1
                if sign != 0:
                    prev_sign = sign
        return u, crossings

    def crossed(mu: float) -> bool:
        end, crossings = shoot(mu)
        return crossings >= 1 or end <= 0.0

    lo = -2.5  # the quadratic form is bounded below by -2 against the cosh^2 weight
    while crossed(lo):
        lo *= 2.0
        assert lo >= -1e6, "no lower bracket for the lowest eigenvalue"
    hi = 1.0
    while not crossed(hi):
        hi *= 2.0
        assert hi <= 1e9, "no upper bracket for the lowest eigenvalue"
    scale = max(1.0, abs(lo), abs(hi))
    while hi - lo > 1e-10 * scale:
        mid = 0.5 * (lo + hi)
        if crossed(mid):
            hi = mid
        else:
            lo = mid

    # within this bracket the shot solution has no interior zero, so the
    # endpoint value has a smooth simple root
    mu0, f0 = lo, shoot(lo)[0]
    mu1, f1 = hi, shoot(hi)[0]
    for _ in range(60):
        if f1 == f0:
            break
        mu_new = mu1 - f1 * (mu1 - mu0) / (f1 - f0)
        if not (lo - 1e-9 * scale <= mu_new <= hi + 1e-9 * scale):
            mu_new = 0.5 * (lo + hi)
        mu0, f0, mu1, f1 = mu1, f1, mu_new, shoot(mu_new)[0]
        if mu0 == mu1:
            break
    return mu1


def jacobi_fd_nu1(a: float, b: float, mesh: int) -> float:
    """Lowest Dirichlet eigenvalue of the unweighted -u'' - 2 sech^2(s) u = nu u
    on (a, b): the second-order finite-difference matrix on ``mesh`` uniform
    cells, solved by scipy's symmetric tridiagonal eigensolver.  Independent of
    the library's closed form; its error is O(h^2) plus round-off of about
    eps * 4/h^2."""
    s = np.linspace(a, b, mesh + 1)[1:-1]
    h = (b - a) / mesh
    diagonal = 2.0 / h**2 - 2.0 / np.cosh(s) ** 2
    off = np.full(mesh - 2, -1.0 / h**2)
    vals = eigh_tridiagonal(diagonal, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def laurent_direct(coeffs: dict, z):
    """Sum of c_p z^p with one complex ``z**p`` per term."""
    z = np.asarray(z, dtype=complex)
    return sum((c * z**p for p, c in coeffs.items()), np.zeros_like(z))


def circle_lengths_direct(data, ts, n: int = 512):
    """Lengths of the images of |z| = e^t, 1/2 Int (|z g h| + |z h/g|) dtheta,
    on z = exp(t + i theta) with directly evaluated g and h."""
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    z = np.exp(np.asarray(ts, dtype=float)[:, None] + 1j * theta[None, :])
    g, h = laurent_direct(data.g_coeffs, z), laurent_direct(data.h_coeffs, z)
    return (0.5 * (np.abs(z * g * h) + np.abs(z * h / g))).mean(axis=1) * TWO_PI


def level_length_stencil(data, ts, n: int = 512, step: float = 1e-3):
    """L'(t) and L''(t) at each t by the 5-point central stencil of
    ``circle_lengths_direct`` (both fourth order in ``step``)."""
    ts = np.asarray(ts, dtype=float)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    lengths = circle_lengths_direct(data, (ts[:, None] + offsets).ravel(), n)
    f0, f1, f2, f3, f4 = lengths.reshape(-1, 5).T
    d1 = (f0 - 8 * f1 + 8 * f3 - f4) / (12 * step)
    d2 = (-f0 + 16 * f1 - 30 * f2 + 16 * f3 - f4) / (12 * step**2)
    return d1, d2


def neck_by_minimization(data, ta: float, tb: float, n: int = 512) -> float:
    """Log-radius in [ta, tb] of the shortest circle image: bounded scalar
    minimization of ``circle_lengths_direct``, a guard for a smaller value at
    either end, then Newton polish on the stencil L' = 0 away from the ends."""
    from scipy.optimize import minimize_scalar

    def length_at(t):
        return float(circle_lengths_direct(data, [t], n)[0])

    res = minimize_scalar(length_at, bounds=(ta, tb), method="bounded", options={"xatol": 1e-10})
    t0 = float(np.clip(res.x, ta, tb))
    for t_end in (ta, tb):
        if length_at(t_end) < length_at(t0):
            t0 = t_end
    step = 1e-3
    if ta + 2 * step < t0 < tb - 2 * step:
        for _ in range(8):
            d1, d2 = (float(v[0]) for v in level_length_stencil(data, [t0], n, step))
            if not d2 > 0.0:
                break
            t0 = float(np.clip(t0 - d1 / d2, ta, tb))
            if abs(d1 / d2) < 1e-13:
                break
    return t0


def flux(data, *, radius: float | None = None):
    """Flux vector Re Int phi dz / i of the circle |z| = ``radius`` (default
    the core circle), with phi the Weierstrass integrand of directly
    evaluated g and h.  For data that meets the residue conditions it is
    (0, 0, 2 pi Res h) at any radius; unbalanced data tilts it."""
    rho = radius if radius is not None else math.sqrt(data.r_inner * data.r_outer)
    z = rho * np.exp(1j * np.linspace(0.0, TWO_PI, 2048, endpoint=False))
    g, h = laurent_direct(data.g_coeffs, z), laurent_direct(data.h_coeffs, z)
    phi = np.stack([0.5 * (1 / g - g) * h, 0.5j * (1 / g + g) * h, h], axis=-1)
    return (phi * z[:, None]).mean(axis=0).real * TWO_PI  # dz / i = z dtheta


def required_rotation(data, *, rtol: float = 1e-10):
    """Axis-angle rotation that would make the flux vertical (angle 0 if it is)."""
    fl = flux(data)
    horizontal = math.hypot(fl[0], fl[1])
    norm = float(np.linalg.norm(fl))
    if horizontal <= rtol * norm:
        return np.array([0.0, 0.0, 1.0]), 0.0
    axis = np.cross(fl, [0.0, 0.0, 1.0])
    return axis / np.linalg.norm(axis), math.atan2(horizontal, fl[2])


def measured_modulus(annulus) -> float:
    """Conformal circumference scale measured from the immersion itself: the
    rate of the angular mean of x3 against log-radius (equals F3/2pi)."""
    mean_height = annulus.grid[..., 2].mean(axis=1)
    return float(np.polyfit(annulus.log_radii, mean_height, 1)[0])
