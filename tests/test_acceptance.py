"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is deferred to calibration.
"""

import json
import logging
import math
from contextlib import contextmanager

import numpy as np
import pytest

import _oracles as orc
from catslab import cli, geometry as geo, ovals as ov
from catslab import stability as st_mod
from catslab import thresholds as th
from catslab import weierstrass as wz
from catslab.geometry import CatenoidPiece, Slab
from catslab.ovals import ClosedCurve

CANON = geo.CANONICAL_SLAB
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_critical_scale():
    with criterion(1, "critical scale residuals and bracket"):
        lam0 = geo.solve_lambda0()
        assert abs(2 * lam0 / (1 - lam0**2) - math.sinh(2 / lam0)) <= 1e-12
        assert abs(math.tanh(1 / lam0) - lam0) <= 1e-10
        assert 0.83 < lam0 < 0.84


def test_criterion_2_area_minimality_and_closed_form():
    with criterion(2, "area minimal at the critical scale; closed form vs quadrature"):
        lam0 = geo.solve_lambda0()
        best = geo.area_in_slab(CatenoidPiece(lam0, 0.0, CANON))
        lams = np.geomspace(0.3, 3.0, 101)
        ts = np.linspace(-1.5, 1.5, 101)
        areas = np.empty((101, 101))
        for i, lam in enumerate(lams):
            for j, t in enumerate(ts):
                areas[i, j] = geo.area_in_slab(CatenoidPiece(lam, t, CANON))
        assert areas.min() > best  # strict minimum at (lambda0, 0)

        rng = np.random.default_rng(2)
        flat = [(lam, t) for lam in lams for t in ts]
        for idx in rng.choice(len(flat), size=400, replace=False):
            lam, t = flat[idx]
            piece = CatenoidPiece(lam, t, CANON)
            closed = geo.area_in_slab(piece)
            assert abs(closed - geo.area_by_quadrature(piece)) <= 1e-8 * closed


def test_criterion_3_marginal_stability():
    with criterion(3, "marginal piece spectrally neutral; strict pieces signed; order >= 2"):
        piece = st_mod.cat_ms(0.0)
        res = st_mod.lowest_jacobi_eigenvalue(piece, mesh=4096)
        assert abs(res.lowest_eigenvalue) <= 1e-6

        t_star = geo.ms_indicator_zero()
        smaller = CatenoidPiece(1.0, 0.0, Slab(-0.9 * t_star, 0.9 * t_star))
        larger = CatenoidPiece(1.0, 0.0, Slab(-1.1 * t_star, 1.1 * t_star))
        assert st_mod.lowest_jacobi_eigenvalue(smaller, 1024).lowest_eigenvalue > 0
        assert st_mod.lowest_jacobi_eigenvalue(larger, 1024).lowest_eigenvalue < 0

        errors = [
            abs(st_mod.lowest_jacobi_eigenvalue(piece, mesh).lowest_eigenvalue)
            for mesh in (512, 1024, 2048)
        ]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 2.0)


def test_criterion_4_threshold_sharpness():
    with criterion(4, "threshold involution, critical length, spanning dichotomy"):
        L_crit = th.l_crit(CANON)
        for L in np.geomspace(L_crit / 20, 20 * L_crit, 50):
            assert th.f_omega(th.f_omega(float(L), CANON), CANON) == pytest.approx(
                float(L), rel=1e-8
            )

        lam0 = geo.solve_lambda0()
        boundary = geo.boundary_length(CatenoidPiece(lam0, 0.0, CANON))
        assert abs(L_crit - boundary) <= 1e-10 * boundary

        rng = np.random.default_rng(4)
        for _ in range(200):
            L_minus = float(np.exp(rng.uniform(np.log(1.0), np.log(80.0))))
            F = th.f_omega(L_minus, CANON)
            if rng.uniform() < 0.5:
                upper = F * float(rng.uniform(1.001, 1.25))
                assert len(th.spanning_catenoids(L_minus, upper, CANON)) == 2
            else:
                upper = F * float(rng.uniform(0.75, 0.999))
                assert len(th.spanning_catenoids(L_minus, upper, CANON)) == 0


def test_criterion_5_level_length_convexity():
    with criterion(5, "level-length convexity and the circle-mean inequality"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            profile = wz.level_profile(wz.random_annulus_data(rng), 21)
            assert wz.convexity_check(profile).min_slack >= -1e-7

        cat_profile = wz.level_profile(wz.catenoid_data(1.0, 1 / math.e, math.e), 33)
        assert wz.convexity_check(cat_profile).equality_flag

        for coeffs in ({1: 1.7 - 0.4j}, {-1: 0.6 + 1.1j}):
            report = wz.cpx_inequality_check(coeffs, 1.3)
            assert abs(report.slack) <= 1e-12 * report.lhs

        checked = 0
        while checked < 500:
            powers = [p for p in range(-4, 5) if p != 0]
            coeffs = {
                p: complex(rng.standard_normal(), rng.standard_normal())
                for p in powers
            }
            rho = float(rng.uniform(0.5, 2.0))
            theta = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
            z = rho * np.exp(1j * theta)
            values = sum(c * z**p for p, c in coeffs.items())
            if np.abs(values).min() < 0.02 * np.abs(values).max():
                continue  # rejection-sampled nonvanishing
            assert wz.cpx_inequality_check(coeffs, rho).slack >= -1e-9
            checked += 1


def test_criterion_6_area_bound():
    with criterion(6, "area bound against the flux-matched catenoid"):
        slab = Slab(-0.8, 0.8)
        cat = wz.catenoid_data(1.0, 1 / math.e, math.e)
        report = wz.area_comparison(cat, slab)
        assert abs(report.gap) <= 1e-7 * report.area_sigma
        assert report.level_gap_min >= -1e-9 * report.area_sigma

        rng = np.random.default_rng(6)
        for _ in range(100):
            data = wz.vertical_annulus_data(rng)
            rep = wz.area_comparison(data, slab)
            assert rep.gap >= -1e-6 * rep.area_sigma
            assert rep.level_gap_min >= -1e-9 * rep.area_sigma


def test_criterion_7_second_derivative_decomposition():
    with criterion(7, "level-curve decomposition matches finite differences"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = wz.vertical_annulus_data(rng)
            annulus = wz.immerse(data, (256, 512))
            index = int(rng.integers(8, 248))
            rep = wz.second_derivative_decomposition(annulus, index)
            # finite differences: the oracle's 5-point stencil of direct circle lengths
            _, d2 = orc.level_length_stencil(data, [annulus.log_radii[index]])
            assert d2[0] / annulus.modulus_mu**2 == pytest.approx(rep.formula_value, rel=1e-4)
            # the exact L''/mu^2 the decomposition reports, near round-off
            assert rep.fd_value == pytest.approx(rep.formula_value, rel=1e-12)

        for scale in (1.0, 2.5):
            cat = wz.catenoid_data(scale, 1 / math.e, math.e)
            annulus = wz.immerse(cat, (64, 256))
            for index in (16, 32, 48):
                rep = wz.second_derivative_decomposition(annulus, index)
                assert rep.beta_term <= 1e-10
                assert rep.fd_value == pytest.approx(rep.formula_value, rel=1e-12)


def test_criterion_8_oval_functional():
    with criterion(8, "curvature eigenvalue functional: circle exact, half bound"):
        spec = ov.lowest_eigenvalue(ClosedCurve.circle(1.7, 256))
        assert abs(spec.functional - 1.0) <= 1e-9

        rng = np.random.default_rng(8)
        corpus = [ClosedCurve.ellipse(a, 1.0, 128) for a in np.linspace(1.0, 4.0, 20)]
        corpus += [
            ClosedCurve.rounded_polygon(k, rounding=r, n=256)
            for k in (3, 4, 5, 6, 8)
            for r in (0.08, 0.15)
        ]
        corpus += [
            ClosedCurve.random_fourier(rng, n_modes=5, amplitude=0.3)
            for _ in range(20)
        ]
        assert len(corpus) == 50
        below = []
        for curve in corpus:
            result = ov.lowest_eigenvalue(curve)
            assert result.functional >= 0.5  # proven constant, hard failure
            if result.below_conjectured_constant:
                below.append(result.functional)
        if below:  # conjectured constant: logged, never asserted
            logging.getLogger("catslab").warning(
                "functional below 1 observed on %d curves: %r", len(below), below
            )


def test_criterion_9_infrastructure(tmp_path, capsys):
    with criterion(9, "deterministic CLI, exact round-trip, exit-code contract"):
        cat = wz.catenoid_data(1.0, 1 / math.e, math.e)
        data_file = tmp_path / "data.json"
        data_file.write_text(wz.to_json(cat))

        # byte-identical output for identical config + seed
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert cli.main(["annulus", "--input", str(data_file), "--output", out_a, "--seed", "3"]) == 0
        assert cli.main(["annulus", "--input", str(data_file), "--output", out_b, "--seed", "3"]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

        # serialization round-trips bit-exactly
        back = wz.from_json(wz.to_json(cat))
        assert back == cat
        assert wz.flux(back)[2] == wz.flux(cat)[2]

        # exit-code contract
        assert cli.main(["threshold", "--tol", "nonsense=1"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["annulus", "--input", str(bad)]) == 3
        wiggly = tmp_path / "wiggly.json"
        wiggly.write_text(wz.to_json(wz.WeierstrassData({1: 1.0, 5: 0.3}, {-1: 1.0}, 0.8, 1.25)))
        assert cli.main(["annulus", "--input", str(wiggly), "--grid", "n_theta=8"]) == 4
        assert cli.main(["lambda0"]) == 0
        capsys.readouterr()
