"""Minimal annuli synthesized from Laurent-series Weierstrass data.

The data is a pair of finite Laurent series on an annulus: ``g`` (stereographic
projection of the Gauss map, nonvanishing on the closed annulus) and ``h`` with
height differential ``h(z) dz``.  The immersion is recovered by contour
integration of

    F = Re Int ( (g^-1 - g)/2, i (g^-1 + g)/2, 1 ) h dz,

well defined on the annulus when the residue conditions hold: the residue of
``h`` is real (single-valued height) and the z^-1 coefficients of ``g*h`` and
``h/g`` vanish (single-valued horizontal coordinates and vertical flux).  The
vertical flux is then F3 = 2*pi*Res(h) > 0 and mu = F3/(2*pi) is the conformal
circumference scale of the annulus.

The length of the image of the circle |z| = e^t,

    L(t) = 1/2 Int (|F1| + |F2|) dtheta,      F1 = z g h,  F2 = z h / g,

is log-convex in the strong sense L''(t) >= L(t), with equality exactly on
planar and catenoidal data; the reference instance g = z, h = lam/z gives the
scale-lam vertical catenoid with L(t) = 2*pi*lam*cosh(t).  Both derivatives
are exact circle integrals: with u = z F'/F, d|F|/dt = |F| Re u, and the
(t, theta)-Laplacian of |F| is |F| |u|^2 for holomorphic nonvanishing F, so

    L'(t)  = 1/2 Int (|F1| Re u1 + |F2| Re u2) dtheta,
    L''(t) = 1/2 Int (|F1| |u1|^2 + |F2| |u2|^2) dtheta,

with u1 = 1 + z g'/g + z h'/h and u2 = 1 - z g'/g + z h'/h.  Circle grids are
separable: on z = e^t w with w = e^{i theta}, z^p = e^{pt} w^p, so a series on
a (levels x angles) grid is one (levels x powers) @ (powers x angles) product.
On data in vertical gauge (h = mu/z exactly) the circles are the horizontal
level sets, heights are mu*t, and the module can compare areas against the
flux-matched catenoid and test the second-derivative decomposition of
level-set length along the level curves.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DataInvalidError, ResolutionError, check_index, check_numbers
from .geometry import CatenoidPiece, Slab
from .rootfind import bracketed_root
from .spectral import TWO_PI, cumulative_integral, fourier_derivative, gauss_legendre
from .spectral import periodic_integral, periodic_nodes, refined

_SCHEMA_VERSION = 1
# residue conditions: each loop-integral residual at most this times F3
PERIOD_RTOL = 1e-8
# the Laurent series of z itself, for z on circle grids
_Z = {1: 1.0}
# angles of the circle grids that scan g and take Laurent coefficients by FFT
_N_SCAN = 4096
# random data: size of the drawn perturbations of the catenoid, and draws per call
_PERTURBATION, _MAX_TRIES = 0.04, 50
# natural-log bound on each term of g, h, z g' and z h' over the closed annulus:
# products of four such sums, as in L'' = Int |F| |u|^2, stay far from overflow
_LOG_TERM_MAX = math.log(1e60)


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


def _power(p, name: str) -> int:
    try:
        exact = p == int(p)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise DataInvalidError(f"non-integer power {p!r} in {name}")
    if abs(p) >= 2**53:  # circle grids take powers as floats
        raise DataInvalidError(f"power {p!r} in {name} is 2**53 or more in magnitude")
    return int(p)


def _check_term_size(name: str, p: int, c: complex, r_inner: float, r_outer: float):
    """Refuse a term c z^p whose radial factor |z|^p, or whose size |p c z^p|
    as a term of z f'(z), exceeds e^_LOG_TERM_MAX somewhere on the closed
    annulus (the maximum is on an edge circle), so no circle grid overflows."""
    radial = max(p * math.log(r_inner), p * math.log(r_outer))
    size = radial
    if c:
        size += math.log(max(1, abs(p))) + math.log(abs(c.real) + abs(c.imag))
    worst = max(radial, size)
    if not worst <= _LOG_TERM_MAX:
        raise DataInvalidError(
            f"term of power {p} in {name} is too large on the annulus: "
            f"log-size {worst:.4g} exceeds {_LOG_TERM_MAX:.4g}"
        )


@dataclass(frozen=True)
class WeierstrassData:
    """Laurent coefficient tables for (g, h) on the annulus r_inner < |z| < r_outer."""

    g_coeffs: dict
    h_coeffs: dict
    r_inner: float
    r_outer: float
    # the passing validate() result; the data is immutable, so it stays true
    _validation: DataValidation | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer < math.inf):
            raise DataInvalidError(
                f"need finite 0 < r_inner < r_outer, got {self.r_inner}, {self.r_outer}"
            )
        for name in ("g", "h"):
            table = getattr(self, f"{name}_coeffs")
            if not table:
                raise DataInvalidError(f"empty coefficient table for {name}")
            canonical = {_power(p, name): complex(c) for p, c in table.items()}
            if not np.isfinite(list(canonical.values())).all():
                raise DataInvalidError(f"non-finite coefficient in {name}")
            for p, c in canonical.items():
                _check_term_size(name, p, c, self.r_inner, self.r_outer)
            # canonical (power-sorted) order so evaluation is bit-reproducible
            object.__setattr__(self, f"{name}_coeffs", dict(sorted(canonical.items())))

    def scaled(self, factor: float) -> "WeierstrassData":
        """Homothety: scale the height differential (and hence the immersion)."""
        return WeierstrassData(
            dict(self.g_coeffs),
            {p: factor * c for p, c in self.h_coeffs.items()},
            self.r_inner,
            self.r_outer,
        )


def _z_derivative(coeffs: dict) -> dict:
    """Laurent coefficients of z f'(z)."""
    return {p: p * c for p, c in coeffs.items() if p != 0}


def to_json(data: WeierstrassData) -> str:
    doc = {
        "version": _SCHEMA_VERSION,
        "g": [[p, c.real, c.imag] for p, c in sorted(data.g_coeffs.items())],
        "h": [[p, c.real, c.imag] for p, c in sorted(data.h_coeffs.items())],
        "r_inner": data.r_inner,
        "r_outer": data.r_outer,
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> WeierstrassData:
    try:
        return from_document(json.loads(text))
    except json.JSONDecodeError as exc:
        raise DataInvalidError(f"unparsable Weierstrass document: {exc}") from exc


def from_document(doc) -> WeierstrassData:
    """WeierstrassData from a parsed ``to_json`` document, checked key by key."""
    if not isinstance(doc, dict):
        raise DataInvalidError("Weierstrass document must be a JSON object")
    allowed = {"version", "g", "h", "r_inner", "r_outer"}
    unknown = set(doc) - allowed
    if unknown:
        raise DataInvalidError(f"unknown keys in Weierstrass document: {sorted(unknown)}")
    # values are checked by the rules that follow, so that each names its fault
    check_numbers(doc, "document", finite=False)
    if doc.get("version") != _SCHEMA_VERSION:
        raise DataInvalidError(f"unsupported document version {doc.get('version')!r}")
    try:
        g, h = ({p: complex(re, im) for p, re, im in doc[k]} for k in ("g", "h"))
        if len(g) != len(doc["g"]) or len(h) != len(doc["h"]):
            raise DataInvalidError("repeated power in a coefficient table")
        return WeierstrassData(g, h, float(doc["r_inner"]), float(doc["r_outer"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataInvalidError(f"malformed Weierstrass document: {exc}") from exc


# ---------------------------------------------------------------------------
# circle grids
# ---------------------------------------------------------------------------


def _on_circles(tables, ts, n: int) -> list:
    """Laurent series on the circles |z| = e^t, one row per t in ``ts``, at the
    n angles of ``periodic_nodes(n)``.

    z^p = e^{pt} w^p, and w^p at angle k is the n-th root of unity of index
    p*k mod n, read from one table.  So each series is one (levels x powers)
    @ (powers x angles) product, with no complex power taken.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    roots = np.exp(1j * periodic_nodes(n))
    k = np.arange(n)
    out = []
    for coeffs in tables:
        residues = np.array([p % n for p in coeffs], dtype=np.int64)
        angular = roots[np.multiply.outer(residues, k) % n]
        radial = np.exp(np.multiply.outer(ts, np.array(list(coeffs), dtype=float)))
        out.append((radial * np.array(list(coeffs.values()), dtype=complex)) @ angular)
    return out


def _speeds(ts, gv, hv):
    """|F1| = |z g h| and |F2| = |z h / g| on the circles |z| = e^t; half their
    sum is the metric factor against the flat (log|z|, theta) cylinder."""
    r = np.exp(np.atleast_1d(ts))[:, None]
    return r * np.abs(gv * hv), r * np.abs(hv / gv)


def _level_values(data: WeierstrassData, ts, n: int) -> list:
    """g, h, z g' and z h' on the grid of ``ts`` x n angles."""
    g, h = data.g_coeffs, data.h_coeffs
    return _on_circles([g, h, _z_derivative(g), _z_derivative(h)], ts, n)


def _level_lengths(ts, gv, hv, zdg, zdh, *, second=True):
    """Speeds |F1| and |F2| from the ``_level_values`` of the circles of
    ``ts``, and L, L' and L'' at each t (see the module docstring); L'' is
    None unless ``second``."""
    a, b = _speeds(ts, gv, hv)
    u1, u2 = 1.0 + zdg / gv + zdh / hv, 1.0 - zdg / gv + zdh / hv
    lengths = periodic_integral(0.5 * (a + b))
    first = periodic_integral(0.5 * (a * u1.real + b * u2.real))
    if not second:
        return a, b, lengths, first, None
    return a, b, lengths, first, periodic_integral(
        0.5 * (a * np.abs(u1) ** 2 + b * np.abs(u2) ** 2)
    )


# ---------------------------------------------------------------------------
# validation: nonvanishing g, residue conditions, flux
# ---------------------------------------------------------------------------


def _winding_number(values: np.ndarray) -> int:
    phases = np.angle(values)
    increments = np.diff(np.concatenate([phases, phases[:1]]))
    increments = (increments + math.pi) % TWO_PI - math.pi
    return int(round(increments.sum() / TWO_PI))


def _loop_flux(data: WeierstrassData, t: float):
    """Loop integrals of h dz, g h dz and h/g dz around |z| = e^t, each divided
    by i, and the flux vector they give; raises DataInvalidError unless the
    vertical flux is at least 1e-150, so that the geometric gauge's mu^2 is a
    normal float."""
    zh = {p + 1: c for p, c in data.h_coeffs.items()}  # h dz = i z h dtheta
    gv, zhv = (v[0] for v in _on_circles([data.g_coeffs, zh], [t], _N_SCAN))
    q_h, q_gh, q_gih = (complex(periodic_integral(v)) for v in (zhv, gv * zhv, zhv / gv))
    fl = np.array([0.5 * (q_gih.real - q_gh.real), -0.5 * (q_gih.imag + q_gh.imag), q_h.real])
    fl += 0.0  # reports 0.0, not -0.0, for an exactly vertical flux
    if not (fl[2] >= 1e-150):
        raise DataInvalidError(
            f"vertical flux must be positive and at least 1e-150, got {fl[2]:.3e}"
        )
    return fl, q_h, q_gh, q_gih


@dataclass(frozen=True)
class DataValidation:
    winding: int
    min_modulus_g: float
    period_residuals: dict
    flux_vector: np.ndarray
    f3: float
    mu: float


def validate(data: WeierstrassData) -> DataValidation:
    """Certify the data invariants; raises DataInvalidError on violation.

    Nonvanishing of g is certified by equal winding numbers on the inner and
    outer circles plus a minimum-modulus margin of 1e-6 on 8 geometrically
    spaced circles of 4096 angles from the inner to the outer one.  The
    residue conditions (real residue of h, vanishing z^-1 coefficients of g*h
    and h/g) are measured by spectrally accurate loop integrals and compared
    against ``PERIOD_RTOL`` times the vertical flux.  A passing result is kept
    on the (immutable) data and returned again; a failure is not kept.
    """
    if data._validation is not None:
        return data._validation
    t_lo, t_hi = math.log(data.r_inner), math.log(data.r_outer)
    (gv,) = _on_circles([data.g_coeffs], np.linspace(t_lo, t_hi, 8), _N_SCAN)
    windings = _winding_number(gv[0]), _winding_number(gv[-1])
    min_mod = float(np.abs(gv).min())
    if windings[0] != windings[1]:
        raise DataInvalidError(
            f"g has zeros in the annulus: winding {windings[0]} inner vs {windings[1]} outer"
        )
    if min_mod < 1e-6:
        raise DataInvalidError(f"g modulus {min_mod:.3e} below margin 1e-6 on scanned circles")

    fl, q_h, q_gh, q_gih = _loop_flux(data, 0.5 * (t_lo + t_hi))
    f3 = q_h.real
    residuals = {"height_period": abs(q_h.imag), "g_dh": abs(q_gh), "ginv_dh": abs(q_gih)}
    worst = max(residuals.values())
    if not (worst <= PERIOD_RTOL * f3):
        raise DataInvalidError(
            f"period residuals {residuals} exceed {PERIOD_RTOL:.1e} * F3 = {PERIOD_RTOL * f3:.3e}"
        )
    fl.flags.writeable = False
    result = DataValidation(windings[0], min_mod, residuals, fl, f3, f3 / TWO_PI)
    object.__setattr__(data, "_validation", result)
    return result


# ---------------------------------------------------------------------------
# reference and randomized data
# ---------------------------------------------------------------------------


def catenoid_data(scale: float, r_inner: float, r_outer: float) -> WeierstrassData:
    """Data of the scale-``scale`` vertical catenoid: g = z, h = scale/z.

    The immersion covers heights scale*log(r) for r in (r_inner, r_outer),
    with the neck on |z| = 1.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return WeierstrassData({1: 1.0}, {-1: scale}, r_inner, r_outer)


def _laurent_coeffs(values: np.ndarray, powers) -> dict:
    """Laurent coefficients [f]_p, p in ``powers``, from samples of f on |z| = 1."""
    spectrum = np.fft.fft(values) / values.size
    return {p: complex(spectrum[p % values.size]) for p in powers}


def adjust_height_for_periods(
    g_coeffs: dict,
    h_coeffs: dict,
    flux_scale: float,
    r_inner: float,
    r_outer: float,
) -> WeierstrassData:
    """Project the residue constraints to zero by adjusting the three
    lowest-order h coefficients (the constraints are linear in h for fixed g).

    Pins the residue of h to the real ``flux_scale`` and solves the 2x2 complex
    system for the h coefficients at powers -2 and 0 so that the z^-1
    coefficients of g*h and h/g vanish; all other drafted h coefficients are
    kept.  The Laurent coefficients of 1/g come from an FFT on a circle.
    """
    g = {int(p): complex(c) for p, c in g_coeffs.items()}
    h = {int(p): complex(c) for p, c in h_coeffs.items() if p not in (-2, -1, 0)}
    h[-1] = complex(flux_scale)

    ginv = 1.0 / _on_circles([g], [0.0], _N_SCAN)[0][0]
    q = _laurent_coeffs(ginv, {-1 - k for k in list(h) + [-2, 0]})

    # [g*h]_{-1} = sum_p g_p h_{-1-p};  [h/g]_{-1} = sum_k q_{-1-k} h_k
    rhs_b = -sum(g[p] * h.get(-1 - p, 0.0) for p in g)
    rhs_c = -sum(q[-1 - k] * c for k, c in h.items())
    mat = np.array(
        [[g.get(1, 0.0), g.get(-1, 0.0)], [q.get(1, 0.0), q.get(-1, 0.0)]],
        dtype=complex,
    )
    rhs = np.array([rhs_b, rhs_c], dtype=complex)
    sol = np.linalg.solve(mat, rhs)
    h[-2], h[0] = complex(sol[0]), complex(sol[1])
    return WeierstrassData(g, h, r_inner, r_outer)


def random_annulus_data(rng: np.random.Generator) -> WeierstrassData:
    """Randomized valid data near the catenoid on 1/e < |z| < e, with unit
    residue of h: draw Laurent coefficients for g and the upper h
    coefficients, then project the residue constraints to zero through
    ``adjust_height_for_periods``."""
    for _ in range(_MAX_TRIES):
        g = {1: 1.0 + 0.0j}
        for p in (-2, -1, 2, 3):
            amp = _PERTURBATION * 0.5 ** abs(p - 1)
            g[p] = amp * complex(rng.standard_normal(), rng.standard_normal())
        h = {}
        for p in (1, 2):
            amp = _PERTURBATION * 0.5 ** abs(p + 1)
            h[p] = amp * complex(rng.standard_normal(), rng.standard_normal())
        try:
            data = adjust_height_for_periods(g, h, 1.0, 1.0 / math.e, math.e)
            validate(data)
        except (np.linalg.LinAlgError, DataInvalidError):
            continue
        return data
    raise DataInvalidError("failed to draw valid random annulus data")


def vertical_annulus_data(rng: np.random.Generator) -> WeierstrassData:
    """Randomized data in vertical gauge on 1/e < |z| < e: h = 1/z exactly, so
    the circle images are the horizontal level sets and heights equal log|z|.

    Writing g = z*G with G near 1, the residue conditions reduce to
    [G]_{-1} = 0 (imposed by construction) and [1/G]_1 = 0, enforced by a
    Newton iteration on the z^1 coefficient of G.
    """
    for _ in range(_MAX_TRIES):
        G = {0: 1.0 + 0.0j, 1: 0.0j}
        for p in (-3, -2, 1, 2):
            amp = _PERTURBATION * 0.5 ** abs(p)
            G[p] = G.get(p, 0.0) + amp * complex(
                rng.standard_normal(), rng.standard_normal()
            )
        ok = False
        for _ in range(25):
            Gv = _on_circles([G], [0.0], _N_SCAN)[0][0]
            target = _laurent_coeffs(1.0 / Gv, [1])[1]
            if abs(target) <= 1e-14:
                ok = True
                break
            # d[1/G]_1 / dG_1 = -[z/G^2]_1 = -[1/G^2]_0
            deriv = -_laurent_coeffs(1.0 / Gv**2, [0])[0]
            if deriv == 0:
                break
            G[1] = G[1] - target / deriv
        if not ok:
            continue
        g = {p + 1: c for p, c in G.items() if c != 0}
        try:
            data = WeierstrassData(g, {-1: 1.0 + 0.0j}, 1.0 / math.e, math.e)
            validate(data)
        except DataInvalidError:
            continue
        return data
    raise DataInvalidError("failed to draw valid vertical-gauge data")


def is_vertical_gauge(data: WeierstrassData) -> bool:
    """True when h = mu/z exactly (up to 1e-12), i.e. circles are level sets."""
    res = data.h_coeffs.get(-1, 0.0)
    if res == 0 or abs(res.imag) > 1e-12 * abs(res):
        return False
    scale = abs(res)
    return all(abs(c) <= 1e-12 * scale for p, c in data.h_coeffs.items() if p != -1)


# ---------------------------------------------------------------------------
# level-length profile and convexity
# ---------------------------------------------------------------------------


@dataclass
class LevelProfile:
    """Lengths of the circle images, in log-radius and geometric height gauges."""

    log_radii: np.ndarray
    heights: np.ndarray
    lengths: np.ndarray
    second_derivative: np.ndarray
    flux_vertical: float
    mu: float
    n_theta: int  # angles of the accepted quadrature, whose lengths are on twice as many
    skipped: list = field(default_factory=list)

    def __post_init__(self):
        if np.any(self.lengths <= 0.0):
            raise DataInvalidError("level lengths must be positive")
        if np.any(np.diff(self.log_radii) <= 0.0):
            raise DataInvalidError("levels must be strictly increasing")
        # discrete convexity guard: L'' from divided differences in t, so a
        # skipped level leaves it valid (strong convexity makes it >= L > 0)
        if self.lengths.size >= 3:
            slopes = np.diff(self.lengths) / np.diff(self.log_radii)
            d2 = 2.0 * np.diff(slopes) / (self.log_radii[2:] - self.log_radii[:-2])
            if d2.min() < -1e-9 * self.lengths.max():
                raise DataInvalidError("level-length profile is not convex")


def level_profile(
    data: WeierstrassData, levels: int = 33, *, quadrature_rtol: float = 1e-8
) -> LevelProfile:
    """Level-length profile L(t) with the exact circle integral for L''(t)
    (module docstring) at every level, edges included.

    Levels where |z*g*h| or |z*h/g| falls below 1e-9 of the largest speed on
    the grid are skipped and recorded (L'' is continuous across such circles
    but the integrand loses smoothness, so nothing is extrapolated through
    them).
    The angle count n_theta is chosen here: starting from 512 it doubles
    until the lengths on n_theta angles and on 2*n_theta agree to
    ``quadrature_rtol`` relatively at every kept level, and the lengths on
    2*n_theta are returned.  One grid at the doubled count is evaluated; its
    even nodes are the n_theta grid.  ResolutionError where 2048 angles do
    not agree.
    """
    if check_index(levels, "levels") < 5:
        raise ValueError("need at least 5 levels")
    val = validate(data)
    ts = np.linspace(math.log(data.r_inner), math.log(data.r_outer), levels)

    def rule(n_theta):
        # in two halves of the levels: half the peak heap, which glibc grew and trimmed each call
        rows = [_level_lengths(t, *_level_values(data, t, 2 * n_theta)) for t in np.array_split(ts, 2)]
        a, b, lengths, _, second = (np.concatenate(parts) for parts in zip(*rows))

        a, b = a[:, ::2], b[:, ::2]  # the n_theta-angle grid
        scale = max(a.max(), b.max())
        keep = (a.min(axis=1) > 1e-9 * scale) & (b.min(axis=1) > 1e-9 * scale)
        skipped = [int(i) for i in np.nonzero(~keep)[0]]
        ts_kept, lengths, second = ts[keep], lengths[keep], second[keep]
        if ts_kept.size < 5:
            raise DataInvalidError("too few usable levels after skipping near-zeros")

        lengths_n = periodic_integral(0.5 * (a + b)[keep])
        disagreement = np.abs(lengths_n - lengths) / np.abs(lengths)
        return (ts_kept, lengths, second, skipped), disagreement.max()

    (ts_kept, lengths, second, skipped), n_theta = refined(
        rule, 512, 2048, quadrature_rtol, "n_theta"
    )
    return LevelProfile(ts_kept, val.mu * ts_kept, lengths, second, val.f3, val.mu,
                        n_theta, skipped)


@dataclass
class ConvexityReport:
    min_slack: float
    min_slack_geometric: float
    max_abs_slack: float
    equality_flag: bool


def convexity_check(profile: LevelProfile) -> ConvexityReport:
    """Slack of the level-length convexity bound, in both gauges.

    Log-radius gauge: L''(t) - L(t) >= 0.  Geometric gauge: the same statement
    transported by heights = mu * t, i.e. d^2/dh^2 H1 - (2*pi/F3)^2 H1, which is
    the log-gauge slack divided by mu^2.  The equality flag marks profiles that
    saturate the bound everywhere (planar or catenoidal data), to 1e-6 of the
    longest level.
    """
    slack = profile.second_derivative - profile.lengths
    min_slack = float(slack.min())
    max_abs = float(np.abs(slack).max())
    equality = bool(max_abs <= 1e-6 * profile.lengths.max())
    return ConvexityReport(min_slack, min_slack / profile.mu**2, max_abs, equality)


@dataclass
class CircleMeanReport:
    lhs: float
    rhs: float
    slack: float


def cpx_inequality_check(F_coeffs: dict, rho: float) -> CircleMeanReport:
    """Circle-mean inequality for a holomorphic Laurent polynomial F with zero
    constant term and no zeros on |z| = rho:

        Int rho^2 |F'|^2/|F| |dz/z|  >=  Int |F| |dz/z|,

    with equality exactly for F = a*z and F = a/z.  (|F'|^2/|F| is the
    Laplacian of |F| for holomorphic nonvanishing F.)  Both sides are periodic
    trapezoid sums on 2048 angles.  A circle where |F| falls below 1e-6 of its
    maximum is refused, as are an empty ``F_coeffs`` and a ``rho`` that is
    not a positive finite float.
    """
    if not 0.0 < rho < math.inf:  # NaN fails too
        raise ValueError(f"rho must be a positive finite float, got {rho!r}")
    if not F_coeffs:
        raise ValueError("F_coeffs must hold at least one Laurent coefficient")
    coeffs = {int(p): complex(c) for p, c in F_coeffs.items()}
    scale = max(abs(c) for c in coeffs.values())
    if abs(coeffs.get(0, 0.0)) > 1e-15 * scale:
        raise ValueError("constant Laurent coefficient of F must vanish")
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _on_circles([coeffs, _z_derivative(coeffs)], [math.log(rho)], 2048)
        absF, absD = (np.abs(v[0]) for v in tables)
        peak = float(absF.max())
        if not (peak < math.inf and np.isfinite(absD).all()):
            raise ValueError(f"F overflows on the circle of radius rho={rho!r}")
        if not (peak > 0.0 and absF.min() >= 1e-6 * peak):
            raise ValueError("F vanishes (or nearly) on the circle")
        # both sides are homogeneous of degree 1 in F: take them with max |F|
        # in [1/2, 1), so that no square leaves the doubles on tiny circles
        e = math.frexp(peak)[1]
        absF, absD = np.ldexp(absF, -e), np.ldexp(absD, -e)
        lhs = float(np.ldexp(periodic_integral(absD**2 / absF), e))
        rhs = float(np.ldexp(periodic_integral(absF), e))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"the circle means of F overflow at rho={rho!r}")
    return CircleMeanReport(lhs, rhs, lhs - rhs)


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------


def _phi(gv: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Weierstrass integrand (phi1, phi2, phi3) from the values of g and h,
    stacked on the last axis."""
    ginv = 1.0 / gv
    return np.stack([0.5 * (ginv - gv) * hv, 0.5j * (ginv + gv) * hv, hv + 0.0j], axis=-1)


def _radial_cumulative(data: WeierstrassData, ts: np.ndarray) -> np.ndarray:
    """Cumulative integrals of the Weierstrass integrand from ts[0] along the
    rays arg z = 0 and arg z = pi, shape (levels, 2 rays, 3): a 12-point
    Gauss rule per level interval, all nodes evaluated at once."""
    tau, w = gauss_legendre(12, ts[:-1, None], ts[1:, None])
    z, gv, hv = _on_circles([_Z, data.g_coeffs, data.h_coeffs], tau.ravel(), 2)
    vals = (_phi(gv, hv) * z[..., None]).reshape(tau.shape + (2, 3))  # dz = z dtau
    steps = (w[:, :, None, None] * vals).sum(axis=1)
    return np.concatenate([np.zeros((1, 2, 3), dtype=complex), np.cumsum(steps, axis=0)])


@dataclass
class SampledAnnulus:
    """Immersed (modulus x angle) grid with per-node metric factor and normal.

    ``metric_factor`` is the conformal factor with respect to the flat
    (t, theta) cylinder coordinates (t = log|z|).
    """

    grid: np.ndarray
    metric_factor: np.ndarray
    normal: np.ndarray
    flux_vertical: float
    modulus_mu: float
    log_radii: np.ndarray
    thetas: np.ndarray
    data: WeierstrassData = field(repr=False)

    def __post_init__(self):
        if np.any(self.metric_factor <= 0.0):
            raise DataInvalidError("metric factor must be positive (immersion)")
        norms = np.linalg.norm(self.normal, axis=-1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise DataInvalidError("normals are not unit length")


def immerse(data: WeierstrassData, grid_spec: tuple[int, int] = (64, 256)) -> SampledAnnulus:
    """Immerse the annulus on an (M modulus levels x N angular nodes) grid.

    Integration runs from a basepoint on the inner circle: radially along the
    positive real ray, then angularly around each circle (spectral cumulative
    integral).  The loop-closure defect of every circle and a radial-then-
    angular vs angular-then-radial comparison along the opposite meridian
    must stay below 1e-7 relative to the immersion size, and the metric
    factor above 1e-9 of its median (no branch point).

    The image is translated so the angular mean of (x1, x2) is zero and the
    angular mean of x3 matches mu * t on the middle circle.
    """
    M, N = (check_index(k, "grid_spec entry") for k in grid_spec)
    if M < 4 or N < 16 or N % 2:
        raise ValueError("grid_spec needs M >= 4 and even N >= 16")
    val = validate(data)
    ts = np.linspace(math.log(data.r_inner), math.log(data.r_outer), M)
    thetas = periodic_nodes(N)
    z, gv, hv = _on_circles([_Z, data.g_coeffs, data.h_coeffs], ts, N)

    f_ang = _phi(gv, hv) * (1j * z)[..., None]  # integrand for d theta
    I_ang, periods = cumulative_integral(np.moveaxis(f_ang, -1, 0).reshape(3 * M, N))
    I_ang = np.moveaxis(I_ang.reshape(3, M, N), 0, -1)
    periods = periods.reshape(3, M)

    R = _radial_cumulative(data, ts)
    F = (R[:, 0][:, None, :] + I_ang).real

    speed_1, speed_2 = _speeds(ts, gv, hv)
    metric = 0.5 * (speed_1 + speed_2)
    if not (metric.min() >= 1e-9 * np.median(metric)):
        raise DataInvalidError(
            f"branch point: metric factor {metric.min():.3e} vanishes on the grid"
        )

    absg2 = np.abs(gv) ** 2
    normal = np.stack([2.0 * gv.real, 2.0 * gv.imag, absg2 - 1.0], axis=-1)
    normal = normal / (absg2 + 1.0)[..., None]

    size = max(1.0, float(np.ptp(F.reshape(-1, 3), axis=0).max()))
    closure = np.abs(periods.real).max()
    if not (closure <= 1e-7 * size):
        raise DataInvalidError(f"loop-closure defect {closure:.3e} exceeds 1e-7 * size")
    # opposite-meridian cross check (theta index N//2 is pi)
    k_pi = N // 2
    alt = (R[0, 0] + I_ang[0, k_pi] + (R[:, 1] - R[0, 1])).real
    defect = np.abs(alt - F[:, k_pi, :]).max()
    if not (defect <= 1e-7 * size):
        raise DataInvalidError(f"path-independence defect {defect:.3e} exceeds 1e-7 * size")

    j_mid = M // 2
    F[..., 0] -= F[:, :, 0][j_mid].mean()
    F[..., 1] -= F[:, :, 1][j_mid].mean()
    F[..., 2] -= F[j_mid, :, 2].mean() - val.mu * ts[j_mid]

    return SampledAnnulus(F, metric, normal, val.f3, val.mu, ts, thetas, data)


# ---------------------------------------------------------------------------
# level-curve decomposition and area comparison
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    fd_value: float
    formula_value: float
    beta_term: float
    level_height: float


def second_derivative_decomposition(
    annulus: SampledAnnulus, level_index: int
) -> DecompositionReport:
    """Geometric decomposition of d^2/dh^2 of level-set length at one level.

    fd_value is the exact circle integral for L''(t) (module docstring) at the
    level, divided by mu^2 as heights are mu * t.  It keeps the name of the
    finite difference it replaced because callers read it (the benchmark's
    annulus workload does); the tests keep that finite difference as an
    independent check.  formula_value integrates, along the level curve,

        |grad_curve (1/|grad x3|)|^2 + (kappa^2 + beta^2) / |grad x3|^2,

    where kappa is the space-curve curvature of the level and beta is the
    second fundamental form paired between the level's conormal and tangent
    (beta vanishes identically on a vertical catenoid).  The two agree as an
    identity on minimal annuli; beta_term reports the beta contribution alone.
    """
    data = annulus.data
    if not is_vertical_gauge(data):
        raise ValueError(
            "second_derivative_decomposition needs vertical-gauge data (h = mu/z "
            "exactly), where circle images are the horizontal level sets"
        )
    M, N = annulus.metric_factor.shape
    if N < 64:
        raise ResolutionError("angular resolution too coarse", {"n_theta": N})
    if not 0 <= check_index(level_index, "level_index") < M:
        raise ValueError(f"level index must be in [0, {M}), got {level_index}")
    t = float(annulus.log_radii[level_index])
    mu = annulus.modulus_mu
    values = _level_values(data, t, N)
    fd_value = _level_lengths(t, *values)[4][0] / mu**2

    z = _on_circles([_Z], t, N)[0][0]
    gv, hv, zdg = (v[0] for v in values[:3])
    q = zdg / gv * hv * z  # the Hopf-type coefficient g'/g * h * z^2 (in w = log z)
    c_prime = (_phi(gv, hv) * (1j * z)[:, None]).real  # d/dtheta of the immersed curve
    c_second = fourier_derivative(c_prime)

    lam = annulus.metric_factor[level_index]  # the speed |c_prime|
    kappa = np.linalg.norm(np.cross(c_prime, c_second), axis=1) / lam**3
    inv_grad = lam / mu  # 1/|grad x3| on the level
    d_invgrad = fourier_derivative(inv_grad) / lam
    beta = -q.imag / lam**2

    ds = lam * (TWO_PI / N)
    formula = float(((d_invgrad**2 + (kappa**2 + beta**2) * inv_grad**2) * ds).sum())
    beta_term = float(((beta**2) * inv_grad**2 * ds).sum())
    return DecompositionReport(float(fd_value), formula, beta_term, mu * t)


@dataclass
class AreaReport:
    area_sigma: float
    area_catenoid: float
    gap: float
    neck_height: float
    level_gap_min: float


def area_comparison(data: WeierstrassData, slab: Slab) -> AreaReport:
    """Area of the annulus over a slab against the flux-matched catenoid.

    Heights are the conformal-gauge heights mu * log|z| (exactly the ambient
    heights for vertical-gauge and catenoid data).  The comparison catenoid has
    scale mu = F3/(2*pi) and neck at the height minimizing the level-length
    profile over the slab; its clipped area comes from the closed form in
    ``geometry``.  One grid of 512-angle circles serves the annulus side: the
    96 Gauss-Legendre levels of the area rule in height, plus the two slab
    ends they exclude.  L'' >= L > 0 makes L' strictly increasing, so the neck
    is an end of the range or the one root of L', bracketed by the signs of L'
    on those levels, which also give the worst per-level length gap against
    the catenoid profile.
    """
    n_theta = 512
    val = validate(data)
    mu = val.mu
    t_lo, t_hi = math.log(data.r_inner), math.log(data.r_outer)
    if mu * t_lo > slab.h_minus + 1e-12 or mu * t_hi < slab.h_plus - 1e-12:
        raise ValueError(
            f"annulus spans heights [{mu * t_lo:.6g}, {mu * t_hi:.6g}], "
            f"not the slab [{slab.h_minus}, {slab.h_plus}]"
        )
    ta, tb = slab.h_minus / mu, slab.h_plus / mu

    tq, wq = gauss_legendre(96, ta, tb)
    a, b, lengths, slopes, _ = _level_lengths(
        tq, *_level_values(data, tq, n_theta), second=False
    )
    lam_w = 0.5 * (a + b)
    area_sigma = float((wq * (lam_w**2).mean(axis=1) * TWO_PI).sum())

    # single circles, cached, in u = t - ta (necks sit near t = 0, where a relative
    # stopping test fails): the root solve, and the slab ends the Gauss nodes exclude
    at = functools.lru_cache(maxsize=None)(
        lambda u: _level_lengths(ta + u, *_level_values(data, ta + u, n_theta))
    )
    ts = np.concatenate(([ta], tq, [tb]))
    lengths = np.concatenate((at(0.0)[2], lengths, at(tb - ta)[2]))
    slopes = np.concatenate((at(0.0)[3], slopes, at(tb - ta)[3]))
    if slopes[0] >= 0.0:
        t0 = ta
    elif slopes[-1] <= 0.0:
        t0 = tb
    else:
        j = int(np.argmax(slopes > 0.0))
        t0 = ta + bracketed_root(
            lambda u: float(at(u)[3][0]),
            float(ts[j - 1] - ta),
            float(ts[j] - ta),
            lambda u: float(at(u)[4][0]),  # L'' from the grid that gave L'
            residual_tol=1e-12 * float(lengths.max()),
        )
    h0 = mu * t0
    area_cat = geometry.area_in_slab(CatenoidPiece(mu, h0, slab))
    level_gap_min = float((lengths - TWO_PI * mu * np.cosh(ts - t0)).min())

    return AreaReport(area_sigma, area_cat, area_sigma - area_cat, h0, level_gap_min)
