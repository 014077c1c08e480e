import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import _oracles as orc
from catslab import ovals as ov
from catslab.errors import ResolutionError
from catslab.ovals import ClosedCurve

TWO_PI = 2.0 * math.pi
log = logging.getLogger("catslab")


def ellipse_mean_kappa2(a, b):
    """Arclength mean of kappa^2 on the ellipse (a cos t, b sin t), by quad."""

    def stretch(t):
        return (a * math.sin(t)) ** 2 + (b * math.cos(t)) ** 2

    # both integrands have period pi and peak at its ends, t = 0 and pi
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
    bending, _ = quad(lambda t: (a * b) ** 2 / stretch(t) ** 2.5, 0.0, math.pi, **opts)
    length, _ = quad(lambda t: math.sqrt(stretch(t)), 0.0, math.pi, **opts)
    return bending / length


def rotated_translated(curve, rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, TWO_PI)
    K = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    R = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
    shift = rng.standard_normal(3) * 3.0
    return ClosedCurve(curve.points @ R.T + shift)


class TestClosedCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedCurve(np.zeros((8, 3)))  # too few samples
        with pytest.raises(ValueError):
            ClosedCurve(np.zeros((64, 3)))  # degenerate speed
        with pytest.raises(ValueError):
            ClosedCurve(np.full((64, 3), np.nan))
        with pytest.raises(ValueError, match="size"):
            ClosedCurve.circle(1e-320, 64)  # subnormal

    def test_circle_quantities(self):
        c = ClosedCurve.circle(2.0, 256)
        assert c.total_length == pytest.approx(2 * TWO_PI, rel=1e-14)
        assert np.abs(c.curvature - 0.5).max() <= 1e-12


class TestResample:
    """The arclength resampler in ``_oracles`` that makes the dense-collocation
    and Floquet oracles' uniform samples."""

    def test_circle_any_start(self):
        c = ClosedCurve.circle(1.0, 256)
        r = orc.resample_arclength(c, 256)
        assert r.total_length == pytest.approx(TWO_PI, rel=1e-8)

    def test_idempotent(self):
        e = ClosedCurve.ellipse(2.0, 1.0, 256)
        once = orc.resample_arclength(e, 256)
        twice = orc.resample_arclength(once, 256)
        assert np.abs(twice.points - once.points).max() <= 1e-10

    def test_ellipse_against_quadrature_oracle(self):
        e = ClosedCurve.ellipse(2.0, 1.0, 256)
        oracle, _ = quad(
            lambda u: math.hypot(2 * math.sin(u), math.cos(u)),
            0.0,
            TWO_PI,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        resampled = orc.resample_arclength(e, 512)
        assert resampled.total_length == pytest.approx(oracle, rel=1e-8)
        assert e.total_length == pytest.approx(oracle, rel=1e-8)

    def test_uniform_speed_after_resampling(self):
        r = orc.resample_arclength(ClosedCurve.ellipse(3.0, 1.0, 512), 512)
        assert np.ptp(r.speed) <= 1e-10 * r.speed.mean()

    def test_length_preserved(self):
        curve = ClosedCurve.rounded_polygon(5)
        resampled = orc.resample_arclength(curve, 512)
        assert resampled.total_length == pytest.approx(curve.total_length, rel=1e-8)

    def test_fine_corners_do_not_alias(self):
        # the speed of this curve aliases on its 256 samples; taken from the
        # zero-padded velocity, the uniform samples reproduce the Galerkin value
        curve = ClosedCurve.rounded_polygon(3, 0.08, 256)
        oracle = orc.dense_collocation_lambda1(orc.resample_arclength(curve, 1024))
        assert ov.lowest_eigenvalue(curve).lambda1 == pytest.approx(oracle, rel=1e-9)


class TestRayleighQuotient:
    def test_circle_constant_function(self):
        for r in (0.5, 1.0, 3.0, 1e-31, 1e-100):
            c = ClosedCurve.circle(r, 256)
            assert ov.rayleigh_quotient(c, np.ones(256)) == pytest.approx(
                1.0 / r**2, rel=1e-12
            )

    def test_convex_total_curvature_bound(self):
        # for a convex planar curve, RQ(1) = Int kappa^2 / L >= (2 pi / L)^2
        e = orc.resample_arclength(ClosedCurve.ellipse(2.0, 1.0, 512), 512)
        rq = ov.rayleigh_quotient(e, np.ones(512))
        total_curvature = float((e.curvature * e.speed).mean())  # = 2 pi
        assert total_curvature == pytest.approx(TWO_PI, rel=1e-10)
        assert rq >= (TWO_PI / e.total_length) ** 2

    @given(st.floats(0.1, 10.0))
    def test_homogeneity(self, c):
        curve = ClosedCurve.ellipse(2.0, 1.0, 128)
        f = np.sin(TWO_PI * np.arange(128) / 128) + 2.0
        assert ov.rayleigh_quotient(curve, c * f) == pytest.approx(
            ov.rayleigh_quotient(curve, f), rel=1e-12
        )

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            ov.rayleigh_quotient(ClosedCurve.circle(1.0, 64), np.zeros(64))


class TestLowestEigenvalue:
    def test_circle_exact(self):
        for r in (0.5, 1.0, 2.0):
            spec = ov.lowest_eigenvalue(ClosedCurve.circle(r, 256))
            assert spec.lambda1 == pytest.approx(1.0 / r**2, rel=1e-9)
            assert abs(spec.functional - 1.0) <= 1e-9

    def test_ellipse_reported(self):
        spec = ov.lowest_eigenvalue(ClosedCurve.ellipse(2.0, 1.0, 256))
        assert spec.functional >= 0.5  # proven constant: hard assertion
        if spec.below_conjectured_constant:  # conjectured constant: report only
            log.warning("ellipse 2:1 functional below 1: %r", spec.functional)

    def test_circle_not_flagged_below_conjecture(self, caplog):
        caplog.set_level(logging.WARNING, logger="catslab")
        for curve in (ClosedCurve.circle(1.0, 256), ClosedCurve.circle(2.0, 64)):
            spec = ov.lowest_eigenvalue(curve)
            assert spec.rel_error >= 1e-8
            assert not spec.below_conjectured_constant
        assert not caplog.records

    def test_dense_collocation_oracle(self):
        curve = ClosedCurve.ellipse(2.0, 1.0, 256)
        oracle = orc.dense_collocation_lambda1(orc.resample_arclength(curve, 1024))
        assert ov.lowest_eigenvalue(curve).lambda1 == pytest.approx(oracle, rel=1e-9)

    # 50:1 needs the Rayleigh-quotient eigenvalue: the eigensolver's own value
    # has a round-off floor near the 1e-8 gate there
    @pytest.mark.parametrize("aspect", [9.0, 12.0, 20.0, 50.0])
    def test_high_aspect_ellipses(self, aspect):
        mean_kappa2 = ellipse_mean_kappa2(aspect, 1.0)
        lambdas = []
        for n in (256, 1024):
            spec = ov.lowest_eigenvalue(ClosedCurve.ellipse(aspect, 1.0, n))
            assert spec.lambda1 <= mean_kappa2  # Rayleigh quotient of f = 1
            assert spec.functional >= 0.5
            lambdas.append(spec.lambda1)
        assert lambdas[0] == pytest.approx(lambdas[1], rel=1e-9)

    def test_degenerate_ellipse_refused_at_first_level(self):
        # conditioning, not resolution, fails here: the first level already
        # violates lambda1 >= min kappa^2
        with pytest.raises(ResolutionError) as info:
            ov.lowest_eigenvalue(ClosedCurve.ellipse(1.0, 1e-6, 256))
        assert info.value.residuals["n"] == 33

    def test_variational_upper_bound(self):
        curve = orc.resample_arclength(ClosedCurve.ellipse(2.0, 1.0, 256), 256)
        spec = ov.lowest_eigenvalue(curve)
        rng = np.random.default_rng(1)
        u = np.arange(256) / 256
        for _ in range(5):
            f = 1.0 + 0.5 * np.cos(TWO_PI * u * rng.integers(1, 4)) + 0.1 * rng.standard_normal()
            assert spec.lambda1 <= ov.rayleigh_quotient(curve, f) + 1e-10

    def test_scale_invariance(self):
        base = ClosedCurve.ellipse(2.0, 1.0, 256)
        spec0 = ov.lowest_eigenvalue(base)
        for c in (0.3, 3.0):
            scaled = ClosedCurve(base.points * c)
            spec = ov.lowest_eigenvalue(scaled)
            assert spec.functional == pytest.approx(spec0.functional, rel=1e-9)
            assert spec.lambda1 * c * c == pytest.approx(spec0.lambda1, rel=1e-9)

    def test_rigid_motion_invariance(self, rng):
        base = ClosedCurve.random_fourier(rng, n_modes=4, amplitude=0.25)
        spec0 = ov.lowest_eigenvalue(base)
        for _ in range(3):
            moved = rotated_translated(base, rng)
            spec = ov.lowest_eigenvalue(moved)
            assert spec.lambda1 == pytest.approx(spec0.lambda1, abs=1e-10 + 1e-9 * spec0.lambda1)

    def test_floquet_oracle_benchmarks(self, rng):
        curves = [
            (ClosedCurve.circle(1.3, 256), 512),
            (ClosedCurve.ellipse(2.0, 1.0, 256), 512),
            (ClosedCurve.ellipse(1.5, 0.9, 256), 512),
            (ClosedCurve.rounded_polygon(4, rounding=0.12, n=256), 512),
            (ClosedCurve.random_fourier(rng, n_modes=3, amplitude=0.2), 512),
            (ClosedCurve.rounded_polygon(3, rounding=0.06, n=512), 1024),
        ]
        for curve, oracle_n in curves:
            spec = ov.lowest_eigenvalue(curve)
            uniform = orc.resample_arclength(curve, oracle_n)
            oracle = orc.floquet_lambda1(uniform)
            assert spec.lambda1 == pytest.approx(oracle, abs=1e-7 * max(1.0, oracle))


class TestRealGalerkin:
    """The real cos/sin assembly against the complex Toeplitz one in
    ``_oracles``: the real basis spans the same modes |j| <= K."""

    @pytest.mark.parametrize("K", [16, 64, 256])
    def test_matrices_match_complex_toeplitz(self, rng, K):
        # rolled and rotated, so the weights have sine coefficients I_m != 0
        base = ClosedCurve.random_fourier(rng, n_modes=5, amplitude=0.3)
        curve = rotated_translated(ClosedCurve(np.roll(base.points, 37, axis=0)), rng)
        coef = ov._weight_coefficients(curve.points, max(8 * K, 2 * len(curve)))[0]
        assert np.abs(coef[1 : 2 * K + 1].imag).max() > 1e-3 * np.abs(coef).max()
        U = orc.real_to_complex_modes(K)
        pairs = zip(ov._galerkin_matrices(coef, K), orc.complex_galerkin_matrices(coef, K))
        for real, herm in pairs:
            assert np.abs(U.conj().T @ herm @ U - real).max() <= 1e-13 * np.abs(real).max()

    def test_eigenvalue_matches_complex_solve(self, rng):
        curves = [ClosedCurve.ellipse(a, 1.0, 256) for a in (1.5, 4.0, 7.0)]
        curves += [ClosedCurve.rounded_polygon(k, r, 512) for k, r in ((3, 0.15), (5, 0.2))]
        curves += [ClosedCurve.random_fourier(rng, amplitude=0.25) for _ in range(3)]
        n_used = []
        for curve in curves:
            spec = ov.lowest_eigenvalue(curve)
            K = spec.n_used // 2
            P = 1 << (max(8 * K, 2 * len(curve)) - 1).bit_length()
            oracle = orc.complex_galerkin_lambda1(ov._weight_coefficients(curve.points, P)[0], K)
            assert spec.lambda1 == pytest.approx(oracle, rel=1e-12)
            n_used.append(spec.n_used)
        assert max(n_used) == 513


class TestScale:
    def test_circles_across_the_double_range(self):
        for e in range(-150, 151):
            spec = ov.lowest_eigenvalue(ClosedCurve.circle(10.0**e, 64))
            assert abs(spec.functional - 1.0) <= 1e-9, e

    def test_power_of_four_scaling_is_exact(self, rng):
        base = ClosedCurve.random_fourier(rng, n_modes=4, amplitude=0.3)
        spec0 = ov.lowest_eigenvalue(base)
        f = 1.0 + 0.3 * np.cos(TWO_PI * np.arange(len(base)) / len(base))
        rq0 = ov.rayleigh_quotient(base, f)
        for k in (-100, -57, -1, 1, 23, 100):
            curve = ClosedCurve(np.ldexp(base.points, 2 * k))
            spec = ov.lowest_eigenvalue(curve)
            assert math.ldexp(spec.lambda1, 4 * k) == spec0.lambda1
            assert math.ldexp(spec.length, -2 * k) == spec0.length
            assert spec.functional == spec0.functional
            assert np.array_equal(np.ldexp(curve.speed, -2 * k), base.speed)
            assert np.array_equal(np.ldexp(curve.curvature, 2 * k), base.curvature)
            assert math.ldexp(ov.rayleigh_quotient(curve, f), 4 * k) == rq0

    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    def test_lambda_beyond_the_doubles_refused(self, radius):
        with pytest.raises(ResolutionError, match="lambda1"):
            ov.lowest_eigenvalue(ClosedCurve.circle(radius, 64))


class TestCorpusInvariants:
    def test_proven_half_constant(self, rng):
        curves = [ClosedCurve.ellipse(a, 1.0, 128) for a in (1.0, 1.5, 2.5, 4.0)]
        curves += [ClosedCurve.rounded_polygon(k, n=256) for k in (3, 4, 6)]
        curves += [ClosedCurve.random_fourier(rng, n_modes=4, amplitude=0.3) for _ in range(5)]
        below_conjecture = []
        for curve in curves:
            spec = ov.lowest_eigenvalue(curve)
            assert spec.functional >= 0.5
            if spec.below_conjectured_constant:
                below_conjecture.append(spec.functional)
        # the conjectured constant 1 is reported, never asserted
        if below_conjecture:
            log.warning("curves below the conjectured constant: %r", below_conjecture)
