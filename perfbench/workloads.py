"""Seeded workloads: input generators, the operations they drive, and checks.

Every workload is a deterministic sequence of operations: ``make_input(seed,
k)`` builds the k-th input from the seed alone, ``run(prepared)`` is the timed
call into catslab, and ``check(inp, result)`` judges the output with
closed-form invariants computed here, never against digits stored from an
earlier run.

Inputs are drawn by stratified sampling.  The k-th draw of a parameter lands
in a fixed stratum of its range (16 strata visited in bit-reversed order, so
any 16 consecutive draws cover the whole range) at a seeded position inside the
stratum.  Runs with different seeds then share the same mix of cheap and
expensive inputs, which keeps run-to-run spread small without narrowing any
range.  The timed ranges stop short of the inputs the program is known to get
wrong (``KNOWN_DEFECTS``), so a timed op that fails is a regression.  Each
known defect instead has a fixed probe input in ``defect_probes``; the probes
run untimed after the timed ops and their outcomes go into every record."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

STRATA = 16
# bit-reversed order: the first 2**m draws of every 16 are evenly spaced strata
BITREV = tuple(int(f"{i:04b}"[::-1], 2) for i in range(STRATA))
TWO_PI = 2.0 * math.pi

# tolerances pinned by the repository's own tests and CLI payloads
SHOOTING_MU_TOL = 1e-6  # tests/test_stability.py: |mu1| at mesh >= 2048
FD_MU_TOL = 1e-4  # CLI threshold sweep "marginality" and test_thresholds
INVOLUTION_RTOL = 1e-8  # test_thresholds.test_involution
LOWER_LENGTH_RTOL = 1e-10  # ms_piece_for_lower_length acceptance gate
BOUNDARY_RTOL = 1e-9  # spanning solutions vs the boundary-length equations
AREA_RTOL = 1e-8  # catenoid command default area_rtol
SLACK_FLOOR = -1e-7  # annulus command "slack_floor"
DECOMP_RTOL = 1e-4  # acceptance criterion 7
AREA_GAP_RTOL = 1e-6  # acceptance criterion 6: gap >= -1e-6 * area_sigma
LEVEL_GAP_RTOL = 1e-9  # acceptance criterion 6: level gap floor
CIRCLE_ATOL = 1e-8  # circles give functional 1
PROVEN_CONSTANT = 0.5


def stratified(j: int, u: float, lo: float, hi: float, *, log=False):
    """Value of the j-th stratified draw on [lo, hi] at offset ``u`` in [0, 1)."""
    s = (BITREV[j % STRATA] + u) / STRATA
    if log:
        return lo * (hi / lo) ** s
    return lo + s * (hi - lo)


def op_rng(seed: int, workload_id: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, k])


@dataclass
class Outcome:
    """Verdict on one op: ``status`` is pass, refused or wrong."""

    status: str
    reason: str = ""


PASS = Outcome("pass")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _wrong(reason: str) -> Outcome:
    return Outcome("wrong", reason)


def catenoid_length(scale: float, offset: float, height: float) -> float:
    """Circumference of the vertical catenoid's slice at ``height``."""
    return TWO_PI * scale * math.cosh((height - offset) / scale)


def l_crit_closed_form() -> float:
    """Total boundary length of the symmetric marginal piece on [-1, 1]."""
    t = _tangency_positive(0.0)
    return TWO_PI / t * 2.0 * math.cosh(t)


def space_curve_mean_kappa2(points: np.ndarray) -> tuple[float, float]:
    """(length, arclength mean of curvature^2) of periodic samples, by FFT."""
    n = points.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n) * TWO_PI
    spec = np.fft.fft(points, axis=0)
    d1 = np.fft.ifft(spec * (1j * k)[:, None], axis=0).real
    d2 = np.fft.ifft(spec * (-(k**2))[:, None], axis=0).real
    speed = np.linalg.norm(d1, axis=1)
    kappa = np.linalg.norm(np.cross(d1, d2), axis=1) / speed**3
    return float(speed.mean()), float((kappa**2 * speed).sum() / speed.sum())


def _ellipse_mean_kappa2(a: float, b: float, n: int = 8192) -> tuple[float, float]:
    u = TWO_PI * np.arange(n) / n
    speed = np.sqrt((a * np.sin(u)) ** 2 + (b * np.cos(u)) ** 2)
    kappa = a * b / speed**3
    return TWO_PI * float(speed.mean()), float((kappa**2 * speed).sum() / speed.sum())


# ---------------------------------------------------------------------------
# known defects: inputs the program fails on at the commit the benchmark was
# written against.  The timed ranges keep clear of them; one probe input per
# defect and workload runs untimed and is reported beside the metrics.
# ---------------------------------------------------------------------------

KNOWN_DEFECTS = {
    "jacobi_shooting_low_apex": "shooting solver: apex <= -10 raises 'no upper "
    "bracket'; apex in about [-9.9, -6.45] silently returns mu1 = -2",
    "threshold_overflow": "F(L) overflows to inf for lower length below about "
    "0.0175 (upper length above the double range)",
    "area_quadrature_small_scale": "area_by_quadrature misses the 1e-8 area "
    "tolerance for scale <= 0.04 and is inf at scale <= 0.005",
    "spanning_scan_near_threshold": "spanning_catenoids finds no solution (or "
    "its root polish stalls) for pairs just above the threshold: the two roots "
    "fall between scan points; seen up to 1e-3 above F at lower lengths near 1 "
    "and up to 2 % above F at lower lengths near 0.5",
    "oval_resolution": "lowest_eigenvalue raises ResolutionError (no "
    "convergence by max_n = 2048) for 256-sample ellipses from about 9:1, "
    "rounded triangles with rounding <= 0.06 and some random-Fourier curves "
    "from amplitude 0.4",
}


def pair_delta(j: int, u: float) -> float:
    """Relative distance upper / F(lower) - 1 of the j-th spanning pair:
    alternately below the threshold, in [-2 %, -0.2 %], and above it, in
    [4 %, 8 %], clear of the near-threshold scan defect."""
    if j % 2:
        return 0.04 + 0.04 * u
    return -0.02 + 0.018 * u


def _tangency_positive(z: float) -> float:
    """Positive root of t - coth(t) = z by bisection."""
    lo, hi = 1e-9, abs(z) + 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 1.0 / math.tanh(mid) > z:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _log_cosh(x: float) -> float:
    x = abs(x)
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def threshold_upper(lower: float) -> float:
    """F(lower) on the slab [-1, 1], computed independently of catslab: the
    marginal piece of apex z spans the tangency heights t_minus < 0 < t_plus
    of t - coth(t) = z, scaled by 2 / (t_plus - t_minus); its lower length
    decreases in z, so z is found by bisection on the log lower length."""

    def logs(z):
        t_plus, t_minus = _tangency_positive(z), -_tangency_positive(-z)
        log_scale = math.log(TWO_PI * 2.0 / (t_plus - t_minus))
        return log_scale + _log_cosh(t_minus), log_scale + _log_cosh(t_plus)

    target, lo, hi = math.log(lower), -60.0, 700.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if logs(mid)[0] > target:
            lo = mid
        else:
            hi = mid
    return math.exp(logs(0.5 * (lo + hi))[1])


# ---------------------------------------------------------------------------
# slab_pieces: geometry / thresholds / stability in process
# ---------------------------------------------------------------------------


class SlabPieces:
    """Three threshold rows, then one marginal piece, repeated.

    A row draws a lower length L (log-uniform on [0.04, 1e4]), solves the
    marginal piece with that lower length, checks the FD Jacobi eigenvalue on
    its unit piece (mesh 1024), the involution F(F(L)) = L, the spanning
    solutions of a pair near the threshold (``pair_delta``) against the
    boundary-length equations, and closed-form vs quadrature area of a seeded
    piece (scale log-uniform on [0.06, 2e2], offset uniform on [-1, 1]).  A
    marginal piece is cat_ms(z), z uniform on [-6, 12], with the default
    shooting solver.
    """

    name = "slab_pieces"
    workload_id = 1
    op = "row (3 of 4 ops) or marginal piece (1 of 4 ops)"
    ranges = {
        "row.lower_length": "log-uniform [0.04, 1e4]",
        "row.upper_over_threshold": "alternately uniform [0.98, 0.998] and [1.04, 1.08]",
        "row.area_scale": "log-uniform [0.06, 2e2]",
        "row.area_offset": "uniform [-1, 1]",
        "marginal.apex_height": "uniform [-6, 12]",
    }
    defect_probes = {
        "jacobi_shooting_low_apex": {"kind": "marginal", "apex": -8.0},
        "threshold_overflow": {"kind": "row", "lower": 0.01, "delta": -0.01, "scale": 1.0, "offset": 0.0},
        "spanning_scan_near_threshold": {"kind": "row", "lower": 0.5, "delta": 0.01, "scale": 1.0, "offset": 0.0},
        "area_quadrature_small_scale": {"kind": "row", "lower": 3.0, "delta": -0.01, "scale": 0.02, "offset": 0.5},
    }
    trace_ops = 40

    def __init__(self):
        from catslab import geometry, stability, thresholds

        self.geometry, self.stability, self.thresholds = geometry, stability, thresholds
        self.slab = geometry.CANONICAL_SLAB

    @staticmethod
    def make_input(seed: int, k: int) -> dict:
        rng = op_rng(seed, SlabPieces.workload_id, k)
        block, pos = divmod(k, 4)
        if pos == 3:
            apex = stratified(block, rng.random(), -6.0, 12.0)
            return {"kind": "marginal", "apex": apex}
        j = 3 * block + pos
        return {
            "kind": "row",
            "lower": stratified(j, rng.random(), 0.04, 1e4, log=True),
            "delta": pair_delta(j, rng.random()),
            "scale": stratified(j + 3, rng.random(), 0.06, 2e2, log=True),
            "offset": float(rng.uniform(-1.0, 1.0)),
        }

    @staticmethod
    def warmup_input() -> dict:
        return {"kind": "row", "lower": 3.0, "delta": 0.01, "scale": 1.0, "offset": 0.25}

    def prepare(self, inp: dict):
        return inp

    def run(self, inp: dict):
        st, th, geo, slab = self.stability, self.thresholds, self.geometry, self.slab
        if inp["kind"] == "marginal":
            return st.lowest_jacobi_eigenvalue(st.cat_ms(inp["apex"]))
        ms = th.ms_piece_for_lower_length(inp["lower"], slab)
        mu1 = st.lowest_jacobi_eigenvalue(ms.unit_piece(), mesh=1024, method="fd")
        back = th.f_omega(ms.upper_length, slab)
        upper = ms.upper_length * (1.0 + inp["delta"])
        spans = th.spanning_catenoids(inp["lower"], upper, slab)
        piece = geo.CatenoidPiece(inp["scale"], inp["offset"], slab)
        area = (geo.area_in_slab(piece), geo.area_by_quadrature(piece))
        return ms, mu1.lowest_eigenvalue, back, upper, spans, area

    def check(self, inp: dict, result) -> Outcome:
        if inp["kind"] == "marginal":
            mu = result.lowest_eigenvalue
            if not (_finite(mu) and abs(mu) <= SHOOTING_MU_TOL):
                return _wrong(f"marginal piece mu1={mu!r}")
            return PASS
        ms, mu1, back, upper, spans, (area, area_q) = result
        lower = inp["lower"]
        if not _finite(ms.scale, ms.offset, ms.upper_length):
            return _wrong(f"non-finite threshold F({lower!r})={ms.upper_length!r}")
        if _rel(catenoid_length(ms.scale, ms.offset, -1.0), lower) > LOWER_LENGTH_RTOL:
            return _wrong("marginal piece misses its lower length")
        if _rel(catenoid_length(ms.scale, ms.offset, 1.0), ms.upper_length) > BOUNDARY_RTOL:
            return _wrong("marginal piece misses its upper length")
        if not (_finite(mu1) and abs(mu1) <= FD_MU_TOL):
            return _wrong(f"FD mu1={mu1!r} on the marginal unit piece")
        if not (_finite(back) and _rel(back, lower) <= INVOLUTION_RTOL):
            return _wrong(f"F(F(L))={back!r} for L={lower!r}")
        if spans.tangential:
            if len(spans) != 1:
                return _wrong("tangential pair must have one solution")
        elif inp["delta"] < 0.0:
            if len(spans) != 0:
                return _wrong("pair below the threshold has solutions")
        elif len(spans) == 0:
            return _wrong("pair above the threshold has no solution")
        for lam, c in spans.parameters:
            if (
                _rel(catenoid_length(lam, c, -1.0), lower) > BOUNDARY_RTOL
                or _rel(catenoid_length(lam, c, 1.0), upper) > BOUNDARY_RTOL
            ):
                return _wrong("spanning solution misses the boundary lengths")
        if not (_finite(area, area_q) and _rel(area_q, area) <= AREA_RTOL):
            return _wrong(f"area closed form {area!r} vs quadrature {area_q!r}")
        return PASS


# ---------------------------------------------------------------------------
# annulus_sweep: weierstrass in process
# ---------------------------------------------------------------------------


class AnnulusSweep:
    """Three random-data convexity trials, then one vertical-gauge op.

    A trial is random_annulus_data -> level_profile -> convexity_check (slack
    >= -1e-7, vertical flux 2*pi).  A vertical op is vertical_annulus_data ->
    immerse (64 x 256) -> second_derivative_decomposition at a seeded interior
    level (FD vs formula within 1e-4) -> area_comparison over a seeded slab
    (area gap >= -1e-6 * area, level gap >= -1e-9 * area).
    """

    name = "annulus_sweep"
    workload_id = 2
    op = "convexity trial (3 of 4 ops) or vertical-gauge area op (1 of 4 ops)"
    ranges = {
        "trial.data": "random_annulus_data(rng), rng seeded per op",
        "vertical.data": "vertical_annulus_data(rng), rng seeded per op",
        "vertical.level_index": "uniform integer [8, 56) of 64 levels",
        "vertical.slab": "h_minus uniform [-0.9, -0.5], h_plus uniform [0.5, 0.9]",
    }
    defect_probes: dict = {}
    trace_ops = 40

    def __init__(self):
        from catslab import geometry, weierstrass

        self.wz, self.Slab = weierstrass, geometry.Slab

    @staticmethod
    def make_input(seed: int, k: int) -> dict:
        rng = op_rng(seed, AnnulusSweep.workload_id, k)
        data_seed = int(rng.integers(0, 2**63 - 1))
        if k % 4 == 3:
            return {
                "kind": "vertical",
                "data_seed": data_seed,
                "level": int(rng.integers(8, 56)),
                "slab": [float(rng.uniform(-0.9, -0.5)), float(rng.uniform(0.5, 0.9))],
            }
        return {"kind": "trial", "data_seed": data_seed}

    @staticmethod
    def warmup_input() -> dict:
        return {"kind": "vertical", "data_seed": 12345, "level": 32, "slab": [-0.8, 0.8]}

    def prepare(self, inp: dict):
        return inp

    def run(self, inp: dict):
        wz = self.wz
        rng = np.random.default_rng(inp["data_seed"])
        if inp["kind"] == "trial":
            profile = wz.level_profile(wz.random_annulus_data(rng))
            return profile, wz.convexity_check(profile)
        data = wz.vertical_annulus_data(rng)
        annulus = wz.immerse(data)
        decomposition = wz.second_derivative_decomposition(annulus, inp["level"])
        area = wz.area_comparison(data, self.Slab(*inp["slab"]))
        return decomposition, area

    def check(self, inp: dict, result) -> Outcome:
        if inp["kind"] == "trial":
            profile, report = result
            if not (_finite(report.min_slack) and report.min_slack >= SLACK_FLOOR):
                return _wrong(f"convexity slack {report.min_slack!r}")
            if not (_finite(profile.flux_vertical) and _rel(profile.flux_vertical, TWO_PI) <= 1e-9):
                return _wrong(f"vertical flux {profile.flux_vertical!r} != 2*pi")
            return PASS
        dec, area = result
        if not (
            _finite(dec.fd_value, dec.formula_value)
            and abs(dec.fd_value - dec.formula_value) <= DECOMP_RTOL * abs(dec.formula_value)
        ):
            return _wrong(f"decomposition fd {dec.fd_value!r} vs {dec.formula_value!r}")
        if not (
            _finite(area.gap, area.area_sigma, area.level_gap_min)
            and area.gap >= -AREA_GAP_RTOL * area.area_sigma
            and area.level_gap_min >= -LEVEL_GAP_RTOL * area.area_sigma
        ):
            return _wrong(f"area gap {area.gap!r}, level gap {area.level_gap_min!r}")
        return PASS


# ---------------------------------------------------------------------------
# oval_corpus: ovals.lowest_eigenvalue in process
# ---------------------------------------------------------------------------


class OvalCorpus:
    """One curve per op, cycling circle, ellipse, rounded polygon, planar and
    space random-Fourier curves.  Checks: functional >= 1/2, circles give 1
    within 1e-8, lambda1 <= arclength mean of kappa^2 (Rayleigh quotient of
    f = 1), and the length against an FFT length of the input samples."""

    name = "oval_corpus"
    workload_id = 3
    op = "lowest_eigenvalue of one curve at default rtol"
    ranges = {
        "circle": "512 samples",
        "ellipse.aspect": "log-uniform [1, 7], 256 samples",
        "polygon.sides": "3..8 cycling",
        "polygon.rounding": "uniform [0.15, 0.3], 512 samples",
        "fourier.amplitude": "uniform [0.1, 0.25], planar and space, 256 samples",
        "placement": "scale log-uniform [0.2, 5], random rotation, sample offset [0, 256)",
    }
    defect_probes = {
        "oval_resolution": {"kind": "ellipse", "aspect": 12.0, "scale": 1.0,
                            "rotation": np.eye(3).tolist(), "roll": 0},
    }
    kinds = ("circle", "ellipse", "polygon", "planar", "space")
    # Inputs come at 256 and 512 samples: resampling cost follows the input
    # size while the eigensolve follows the refinement level, so both sizes
    # keep the two apart.  The shape parameters, which set the refinement
    # level and so the cost, come from the op index alone; the seed sets the
    # placement (scale, rotation, sample offset), which leaves the cost alone.
    # Every seed then times the same sequence of op costs, so run-to-run spread
    # is the machine's rather than the mix's.
    trace_ops = 10

    def __init__(self):
        from catslab import ovals

        self.ovals = ovals

    @staticmethod
    def make_input(seed: int, k: int) -> dict:
        rng = op_rng(seed, OvalCorpus.workload_id, k)
        shape = np.random.default_rng([OvalCorpus.workload_id, k])
        j, pos = divmod(k, len(OvalCorpus.kinds))
        kind = OvalCorpus.kinds[pos]
        u = shape.random()
        inp = {
            "kind": kind,
            "scale": float(0.2 * 25.0 ** rng.random()),
            "rotation": np.linalg.qr(rng.standard_normal((3, 3)))[0].tolist(),
            "roll": int(rng.integers(0, 256)),
        }
        if kind == "ellipse":
            # the top stratum first: its ellipses refine to n = 2048, the
            # largest eigensolve, so every run reaches its peak memory early
            inp["aspect"] = stratified(j + 15, u, 1.0, 7.0, log=True)
        elif kind == "polygon":
            inp.update(sides=3 + j % 6, rounding=stratified(j, u, 0.15, 0.3))
        elif kind in ("planar", "space"):
            inp.update(amplitude=stratified(j, u, 0.1, 0.25), shape_seed=k)
        return inp

    @staticmethod
    def warmup_input() -> dict:
        return {"kind": "ellipse", "aspect": 2.0, "scale": 1.0, "rotation": np.eye(3).tolist(), "roll": 0}

    def prepare(self, inp: dict):
        C = self.ovals.ClosedCurve
        kind = inp["kind"]
        if kind == "circle":
            base = C.circle(1.0, 512)
        elif kind == "ellipse":
            base = C.ellipse(inp["aspect"], 1.0, 256)
        elif kind == "polygon":
            base = C.rounded_polygon(inp["sides"], inp["rounding"], 512)
        else:
            rng = np.random.default_rng(inp["shape_seed"])
            base = C.random_fourier(rng, amplitude=inp["amplitude"], planar=kind == "planar")
        placed = inp["scale"] * base.points @ np.asarray(inp["rotation"]).T
        return C(np.roll(placed, inp["roll"], axis=0))

    def run(self, curve):
        return curve, self.ovals.lowest_eigenvalue(curve)

    def check(self, inp: dict, result) -> Outcome:
        curve, spec = result
        if not (_finite(spec.functional, spec.lambda1, spec.length)):
            return _wrong("non-finite spectrum")
        if spec.functional < PROVEN_CONSTANT:
            return _wrong(f"functional {spec.functional!r} below 1/2")
        if inp["kind"] == "circle" and abs(spec.functional - 1.0) > CIRCLE_ATOL:
            return _wrong(f"circle functional {spec.functional!r}")
        if inp["kind"] == "ellipse":
            length, mean_k2 = _ellipse_mean_kappa2(inp["aspect"] * inp["scale"], inp["scale"])
        else:
            length, mean_k2 = space_curve_mean_kappa2(curve.points)
        if _rel(spec.length, length) > 1e-8:
            return _wrong(f"length {spec.length!r} vs {length!r}")
        if spec.lambda1 > mean_k2 * (1.0 + 1e-8):
            return _wrong(f"lambda1 {spec.lambda1!r} above mean kappa^2 {mean_k2!r}")
        return PASS


# ---------------------------------------------------------------------------
# cli_mix: python -m catslab.cli subprocesses
# ---------------------------------------------------------------------------


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity (json.dumps' allow_nan output)."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _vertical_weierstrass_doc(rng: np.random.Generator, mu: float) -> dict:
    """Valid vertical-gauge data g = z*G, h = mu/z with G = 1 + sum c_k z^(s*k),
    k = 2, 3: G has powers of one sign only, so [G]_-1 = [1/G]_1 = 0 and the
    period conditions hold exactly; |G - 1| <= 1/2 on the annulus keeps g
    nonvanishing with winding number 1."""
    sign = 1 if rng.random() < 0.5 else -1
    coeffs = {k: complex(*rng.standard_normal(2)) * 0.5**k * 0.05 for k in (2, 3)}
    reach = sum(abs(c) * math.e**k for k, c in coeffs.items())
    if reach > 0.5:
        coeffs = {k: c * 0.5 / reach for k, c in coeffs.items()}
    g = [[1, 1.0, 0.0]] + [[1 + sign * k, c.real, c.imag] for k, c in coeffs.items()]
    return {
        "version": 1,
        "g": sorted(g),
        "h": [[-1, mu, 0.0]],
        "r_inner": 1.0 / math.e,
        "r_outer": math.e,
    }


class CliMix:
    """Subprocess calls of ``python -m catslab.cli`` cycling all six commands
    at their default grids; every input is issued twice in a row and the two
    stdouts must be byte-identical."""

    name = "cli_mix"
    workload_id = 0
    op = "one CLI subprocess call; each input is issued twice"
    kinds = (
        "lambda0",
        "catenoid",
        "ms",
        "threshold_pair",
        "threshold_sweep",
        "annulus_input",
        "annulus_trials",
        "oval",
    )
    ranges = {
        "catenoid.scale": "log-uniform [0.06, 1e2], offset uniform [-1, 1]",
        "ms.apex_height": "uniform [-6, 12]",
        "threshold_pair": "lower log-uniform [0.04, 1e4], upper / F(lower) "
        "alternately uniform [0.98, 0.998] and [1.04, 1.08]",
        "threshold_sweep": "start log-uniform [0.04, 1e3], stop/start uniform [1.5, 4], 3 rows",
        "annulus_input": "vertical-gauge data, mu log-uniform [0.5, 2]",
        "annulus_trials": "--grid trials=2, seed uniform",
        "oval": "ellipse aspect log-uniform [1, 5.5] (even cycles) or circle "
        "radius log-uniform [0.2, 5] (odd cycles)",
    }
    defect_probes = {
        "jacobi_shooting_low_apex": {
            "kind": "ms", "pair": -2, "rep": 0, "doc": {"apex_height": -11.0}},
        "threshold_overflow": {
            "kind": "threshold_pair", "pair": -3, "rep": 0,
            "doc": {"lower_length": 0.01, "upper_length": 1.0}},
        "area_quadrature_small_scale": {
            "kind": "catenoid", "pair": -4, "rep": 0, "doc": {"scale": 0.003, "offset": 0.0}},
    }
    trace_ops = 16

    def __init__(self, root: str, tmpdir: str):
        self.root, self.tmpdir = root, tmpdir
        self.command = [sys.executable, "-m", "catslab.cli"]
        self.last_stdout: dict[int, bytes] = {}

    @staticmethod
    def make_input(seed: int, k: int) -> dict:
        pair, rep = divmod(k, 2)
        # blocks of 16 pairs hold two cycles over the kinds; each half-block
        # visits every kind once and alternates the cycle, so the extreme
        # strata (first draws) are spread along the run instead of bunched at
        # its start
        block, within = divmod(pair, 2 * len(CliMix.kinds))
        half, pos = divmod(within, len(CliMix.kinds))
        j = 2 * block + (pos + half + 1) % 2
        kind = CliMix.kinds[pos]
        rng = op_rng(seed, CliMix.workload_id, pair)
        u = rng.random()
        inp = {"kind": kind, "pair": pair, "rep": rep}
        if kind == "catenoid":
            inp["doc"] = {
                "scale": stratified(j, u, 0.06, 1e2, log=True),
                "offset": float(rng.uniform(-1.0, 1.0)),
            }
        elif kind == "ms":
            inp["doc"] = {"apex_height": stratified(j, u, -6.0, 12.0)}
        elif kind == "threshold_pair":
            lower = stratified(j, u, 0.04, 1e4, log=True)
            upper = threshold_upper(lower) * (1.0 + pair_delta(pair // 2, rng.random()))
            inp["doc"] = {"lower_length": lower, "upper_length": upper}
        elif kind == "threshold_sweep":
            start = stratified(j, u, 0.04, 1e3, log=True)
            inp["sweep"] = [start, start * float(rng.uniform(1.5, 4.0)), 3]
        elif kind == "annulus_input":
            inp["doc"] = _vertical_weierstrass_doc(rng, float(0.5 * 4.0**u))
        elif kind == "annulus_trials":
            inp["seed"] = int(rng.integers(0, 2**31 - 1))
        elif kind == "oval":
            if j % 2 == 0:
                minor = float(0.5 * 4.0 ** rng.random())
                # aspect <= 5.5 refines to n = 1024 at most, so the CLI stays
                # dominated by start-up; the top stratum comes first, so the
                # largest child (peak_rss_mb) is reached early in every run
                aspect = stratified(j // 2 + 15, u, 1.0, 5.5, log=True)
                inp["doc"] = {"ellipse": [aspect * minor, minor]}
            else:
                inp["doc"] = {"circle": [stratified(j // 2, u, 0.2, 5.0, log=True)]}
        return inp

    @staticmethod
    def warmup_input() -> dict:
        return {"kind": "lambda0", "pair": -1, "rep": 0}

    def prepare(self, inp: dict) -> list[str]:
        kind = inp["kind"]
        command = kind.split("_")[0]
        args = [command]
        if "doc" in inp:
            path = os.path.join(self.tmpdir, f"input-{inp['pair']}.json")
            with open(path, "w") as handle:
                json.dump(inp["doc"], handle)
            args += ["--input", path]
        if kind == "threshold_sweep":
            start, stop, count = inp["sweep"]
            args += ["--sweep", f"{start!r}:{stop!r}:{count}"]
        if kind == "annulus_trials":
            args += ["--grid", "trials=2", "--seed", str(inp["seed"])]
        return args

    def run(self, args: list[str]):
        self.launched_at = time.time()
        proc = subprocess.run(
            self.command + args,
            cwd=self.root,
            capture_output=True,
            timeout=120,
        )
        return proc

    def check(self, inp: dict, proc) -> Outcome:
        if proc.returncode in (2, 3, 4) and b"Traceback" not in proc.stderr:
            return Outcome("refused", f"exit {proc.returncode}")
        if proc.returncode != 0:
            return _wrong(f"exit {proc.returncode}")
        if inp["rep"] == 0:
            self.last_stdout = {inp["pair"]: proc.stdout}
        elif self.last_stdout.get(inp["pair"]) != proc.stdout:
            return _wrong("rerun stdout differs")
        try:
            out = strict_json(proc.stdout.decode())
        except ValueError as exc:
            return _wrong(f"stdout is not strict JSON: {exc}")
        return getattr(self, "_check_" + inp["kind"])(inp, out)

    @staticmethod
    def _check_lambda0(inp, out):
        lam = out["lambda0"]
        if not (0.0 < lam < 1.0 and abs(math.tanh(1.0 / lam) - lam) <= 1e-12):
            return _wrong(f"lambda0 {lam!r} misses tanh(1/lam) = lam")
        if abs(2 * lam / (1 - lam * lam) - math.sinh(2 / lam)) > 1e-11:
            return _wrong("lambda0 misses the sinh relation")
        return PASS

    @staticmethod
    def _check_catenoid(inp, out):
        lam, t = inp["doc"]["scale"], inp["doc"]["offset"]
        area, area_q = out["area"], out["area_quadrature"]
        closed = math.pi * lam * lam * math.cosh(2 * t / lam) * math.sinh(2 / lam) + TWO_PI * lam
        if _rel(area, closed) > 1e-12:
            return _wrong(f"area {area!r} vs closed form {closed!r}")
        if _rel(area_q, area) > AREA_RTOL:
            return _wrong("quadrature misses the closed form")
        boundary = catenoid_length(lam, t, 1.0) + catenoid_length(lam, t, -1.0)
        if _rel(out["boundary_length"], boundary) > 1e-12:
            return _wrong("boundary length")
        if _rel(out["vertical_flux"], TWO_PI * lam) > 1e-14:
            return _wrong("vertical flux")
        return PASS

    @staticmethod
    def _check_ms(inp, out):
        z = inp["doc"]["apex_height"]
        for t in (out["t_plus"], out["t_minus"]):
            if abs(t - 1.0 / math.tanh(t) - z) > 1e-10 * max(1.0, abs(z)):
                return _wrong("tangency residual")
        if not out["t_minus"] < 0.0 < out["t_plus"]:
            return _wrong("tangency heights out of order")
        if not abs(out["mu1"]) <= SHOOTING_MU_TOL:
            return _wrong(f"mu1 {out['mu1']!r}")
        return PASS

    @staticmethod
    def _check_threshold_pair(inp, out):
        lower, upper = inp["doc"]["lower_length"], inp["doc"]["upper_length"]
        threshold = out["threshold_upper"]
        if _rel(out["l_crit"], l_crit_closed_form()) > 1e-12:
            return _wrong(f"l_crit {out['l_crit']!r}")
        if out["count"] != len(out["solutions"]):
            return _wrong("count disagrees with solutions")
        if (out["tangential"] or upper >= threshold) != (out["count"] > 0):
            return _wrong(f"count {out['count']} for upper/F = {upper / threshold!r}")
        for sol in out["solutions"]:
            lam, c = sol["scale"], sol["offset"]
            if (
                _rel(catenoid_length(lam, c, -1.0), lower) > BOUNDARY_RTOL
                or _rel(catenoid_length(lam, c, 1.0), upper) > BOUNDARY_RTOL
            ) and not out["tangential"]:
                return _wrong("solution misses the boundary lengths")
        return PASS

    @staticmethod
    def _check_threshold_sweep(inp, out):
        if _rel(out["l_crit"], l_crit_closed_form()) > 1e-12:
            return _wrong(f"l_crit {out['l_crit']!r}")
        if len(out["table"]) != inp["sweep"][2]:
            return _wrong("sweep row count")
        for row in out["table"]:
            lam, c = row["lambda"], row["offset"]
            if _rel(catenoid_length(lam, c, -1.0), row["L_minus"]) > BOUNDARY_RTOL:
                return _wrong("row misses its lower length")
            if _rel(catenoid_length(lam, c, 1.0), row["F"]) > BOUNDARY_RTOL:
                return _wrong("row misses its threshold length")
            if not row["mu1_residual"] <= FD_MU_TOL:
                return _wrong(f"row mu1 {row['mu1_residual']!r}")
        return PASS

    @staticmethod
    def _check_annulus_input(inp, out):
        mu = inp["doc"]["h"][0][1]
        if out["winding"] != 1:
            return _wrong(f"winding {out['winding']}")
        if _rel(out["mu"], mu) > 1e-12 or _rel(out["f3"], TWO_PI * mu) > 1e-12:
            return _wrong("flux differs from 2*pi*mu")
        slack = out["convexity"]["min_slack"]
        if not slack >= SLACK_FLOOR:
            return _wrong(f"convexity slack {slack!r}")
        for row in out["profile"]["table"]:
            if abs(row["height"] - mu * row["t"]) > 1e-12 * max(1.0, mu):
                return _wrong("heights are not mu * log-radius")
        return PASS

    @staticmethod
    def _check_annulus_trials(inp, out):
        rows = out["table"]
        if len(rows) != 2 or out["summary"]["worst_min_slack"] != min(r["min_slack"] for r in rows):
            return _wrong("trial table")
        if not all(r["min_slack"] >= SLACK_FLOOR for r in rows):
            return _wrong("convexity slack below the floor")
        return PASS

    @staticmethod
    def _check_oval(inp, out):
        doc = inp["doc"]
        functional = out["functional"]
        if not functional >= PROVEN_CONSTANT:
            return _wrong(f"functional {functional!r} below 1/2")
        if "circle" in doc:
            if abs(functional - 1.0) > CIRCLE_ATOL:
                return _wrong(f"circle functional {functional!r}")
            length, mean_k2 = TWO_PI * doc["circle"][0], doc["circle"][0] ** -2
        else:
            length, mean_k2 = _ellipse_mean_kappa2(*doc["ellipse"])
        if _rel(out["length"], length) > 1e-8:
            return _wrong(f"length {out['length']!r} vs {length!r}")
        if out["lambda1"] > mean_k2 * (1.0 + 1e-8):
            return _wrong("lambda1 above mean kappa^2")
        return PASS


WORKLOADS = {cls.name: cls for cls in (CliMix, SlabPieces, AnnulusSweep, OvalCorpus)}


def describe() -> dict:
    """Op definition, input ranges and reason for every workload."""
    return {
        name: {"op": cls.op, "ranges": cls.ranges, "doc": " ".join((cls.__doc__ or "").split())}
        for name, cls in WORKLOADS.items()
    }
