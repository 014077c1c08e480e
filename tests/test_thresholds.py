import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from scipy.optimize import brentq

import _oracles as orc
from _strategies import magnitudes, signed
from catslab import geometry as geo
from catslab import stability as st_mod
from catslab import thresholds as th
from catslab.errors import ConvergenceError
from catslab.geometry import CatenoidPiece, Slab

CANON = geo.CANONICAL_SLAB


def unit_reduction(scale, offset, slab):
    """Clipped interval of the unit catenoid corresponding to (scale, offset)."""
    return CatenoidPiece(
        1.0, 0.0, Slab((slab.h_minus - offset) / scale, (slab.h_plus - offset) / scale)
    )


class TestMsSolve:
    def test_symmetric_fixed_point(self, lambda0):
        L_star = th.l_crit(CANON) / 2.0
        ms = th.ms_piece_for_lower_length(L_star, CANON)
        assert ms.scale == pytest.approx(lambda0, abs=1e-12)
        assert ms.offset == pytest.approx(0.0, abs=1e-12)
        assert ms.upper_length == pytest.approx(L_star, rel=1e-12)
        assert ms.apex_height == pytest.approx(0.0, abs=1e-10)

    def test_structural_residuals(self):
        for L in (2.0, 9.0, 40.0):
            ms = th.ms_piece_for_lower_length(L, CANON)
            lo = (CANON.h_minus - ms.offset) / ms.scale
            hi = (CANON.h_plus - ms.offset) / ms.scale
            assert abs(lo - 1 / math.tanh(lo) - ms.apex_height) <= 1e-10
            assert abs(hi - 1 / math.tanh(hi) - ms.apex_height) <= 1e-10
            assert 2 * math.pi * ms.scale * math.cosh(lo) == pytest.approx(L, rel=1e-10)

    def test_involution(self):
        L_crit = th.l_crit(CANON)
        for L in np.geomspace(L_crit / 20, 20 * L_crit, 50):
            F = th.f_omega(float(L), CANON)
            assert th.f_omega(F, CANON) == pytest.approx(float(L), rel=1e-8)

    def test_strictly_decreasing(self):
        values = [th.f_omega(L, CANON) for L in (0.1, 1.0, 10.0)]
        assert values[0] > values[1] > values[2]
        sweep = [th.f_omega(L, CANON) for L in np.geomspace(0.1, 100.0, 60)]
        assert np.all(np.diff(sweep) < 0)

    def test_marginality_of_solutions(self):
        for L in (3.0, 9.48, 25.0):
            ms = th.ms_piece_for_lower_length(L, CANON)
            mu1 = st_mod.lowest_jacobi_eigenvalue(ms.unit_piece(), mesh=2048).lowest_eigenvalue
            assert abs(mu1) <= 1e-4

    def test_marginality_in_closed_form(self):
        # below L ~ 0.3 the weighted FD reads round-off (mu1 ~ 2e-271 at L = 0.04)
        for L in np.geomspace(1e-2, 1e4, 61):
            ms = th.ms_piece_for_lower_length(float(L), CANON)
            assert abs(st_mod.jacobi_nu1(ms.unit_piece())) <= 1e-12, L

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            th.ms_piece_for_lower_length(-1.0, CANON)


class TestScalingLaws:
    def test_rescaled_slab(self):
        for factor in (0.5, 2.0, 3.0):
            scaled = Slab(-factor, factor)
            for L in (1.0, 7.0, 30.0):
                assert th.f_omega(L, scaled) == pytest.approx(
                    factor * th.f_omega(L / factor, CANON), rel=1e-9
                )

    def test_translation_invariance(self):
        shifted = Slab(4.0, 6.0)
        for L in (2.0, 11.0):
            assert th.f_omega(L, shifted) == pytest.approx(
                th.f_omega(L, CANON), rel=1e-10
            )

    def test_l_crit_values(self, lambda0):
        value = th.l_crit(CANON)
        assert value == pytest.approx(
            geo.boundary_length(CatenoidPiece(lambda0, 0.0, CANON)), rel=1e-10
        )
        assert value == pytest.approx(
            4 * math.pi * lambda0 * math.cosh(1 / lambda0), rel=1e-12
        )
        assert 18.0 < value < 19.5
        assert th.l_crit(Slab(-2.0, 2.0)) == pytest.approx(2 * value, rel=1e-10)

    def test_l_crit_is_twice_fixed_point(self):
        L_crit = th.l_crit(CANON)
        assert th.f_omega(L_crit / 2, CANON) == pytest.approx(L_crit / 2, rel=1e-10)


class TestSpanning:
    def test_tangential_single_solution(self, lambda0):
        L_star = th.l_crit(CANON) / 2.0
        result = th.spanning_catenoids(L_star, L_star, CANON)
        assert len(result) == 1 and result.tangential
        lam, c = result.parameters[0]
        assert lam == pytest.approx(lambda0, abs=1e-10)
        assert c == pytest.approx(0.0, abs=1e-10)
        assert result.residuals[0] <= 1e-9

    def test_below_threshold_empty(self):
        L = th.l_crit(CANON) / 2.0
        result = th.spanning_catenoids(L, 0.9 * th.f_omega(L, CANON), CANON)
        assert len(result) == 0 and not result.tangential

    def test_two_solutions_above(self):
        L = 1.2 * th.l_crit(CANON) / 2.0
        result = th.spanning_catenoids(L, L, CANON)
        assert len(result) == 2
        # dense residual-grid oracle: count sign-change cell clusters
        assert orc.spanning_count_grid(L, L, CANON) == 2
        for lam, c in result.parameters:
            assert 2 * math.pi * lam * math.cosh((CANON.h_minus - c) / lam) == pytest.approx(
                L, rel=1e-9
            )

    def test_stability_dichotomy(self):
        L = 1.2 * th.l_crit(CANON) / 2.0
        result = th.spanning_catenoids(L, L, CANON)
        signs = []
        for lam, c in result.parameters:
            mu1 = st_mod.lowest_jacobi_eigenvalue(
                unit_reduction(lam, c, CANON), mesh=1024
            ).lowest_eigenvalue
            signs.append(mu1 > 0)
        assert sorted(signs) == [False, True]

    def test_asymmetric_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            L_minus = float(np.exp(rng.uniform(np.log(2.0), np.log(60.0))))
            F = th.f_omega(L_minus, CANON)
            above = F * float(rng.uniform(1.001, 1.25))
            below = F * float(rng.uniform(0.75, 0.999))
            assert len(th.spanning_catenoids(L_minus, above, CANON)) == 2
            assert len(th.spanning_catenoids(L_minus, below, CANON)) == 0

    def test_overflowing_threshold_counts_no_solution(self):
        # F(0.01) exceeds every double (F(0.02) is 7.5e270): the count comes
        # from log F, and the marginal piece is no tangential solution
        result = th.spanning_catenoids(0.01, 1.0, CANON)
        assert len(result) == 0 and not result.tangential
        for L in np.geomspace(1e-3, 0.0176, 20):
            assert len(th.spanning_catenoids(float(L), 1e300, CANON)) == 0, L

    def test_two_solutions_near_a_huge_threshold(self):
        F = th.f_omega(0.02, CANON)
        result = th.spanning_catenoids(0.02, F * (1.0 + 1e-3), CANON)
        assert len(result) == 2 and not result.tangential
        assert max(result.residuals) <= 1e-9

    def test_general_slab(self):
        slab = Slab(0.5, 2.5)
        L = 9.0
        F = th.f_omega(L, slab)
        result = th.spanning_catenoids(L, 1.1 * F, slab)
        assert len(result) == 2
        for lam, c in result.parameters:
            low = 2 * math.pi * lam * math.cosh((slab.h_minus - c) / lam)
            high = 2 * math.pi * lam * math.cosh((slab.h_plus - c) / lam)
            assert low == pytest.approx(L, rel=1e-9)
            assert high == pytest.approx(1.1 * F, rel=1e-9)

    @pytest.mark.parametrize("d", [1e-5, 1e-3, 2e-2])
    @pytest.mark.parametrize("L", [0.05, 0.5, 1.0, 3.0])
    def test_two_solutions_just_above_threshold(self, L, d):
        ms = th.ms_piece_for_lower_length(L, CANON)
        upper = ms.upper_length * (1.0 + d)
        result = th.spanning_catenoids(L, upper, CANON)
        assert len(result) == 2 and not result.tangential
        t_fold = (CANON.h_minus - ms.offset) / ms.scale
        heights = []
        for lam, c in result.parameters:
            low = 2 * math.pi * lam * math.cosh((CANON.h_minus - c) / lam)
            high = 2 * math.pi * lam * math.cosh((CANON.h_plus - c) / lam)
            assert low == pytest.approx(L, rel=1e-9)
            assert high == pytest.approx(upper, rel=1e-9)
            heights.append((CANON.h_minus - c) / lam)
        # one solution on each side of the marginally stable piece
        assert min(heights) < t_fold < max(heights)

    @pytest.mark.parametrize("L", [0.05, 0.5, 1.0, 3.0, 30.0])
    def test_upper_length_unimodal_in_lower_height(self, L):
        # premise of the solver: with t the unit height of the lower circle,
        # log upper length(t) = log L - log cosh t + log cosh(t + H/lam),
        # lam = L / (2 pi cosh t), has one critical point, at the marginal piece
        H = CANON.height

        def dlog_upper(t):
            s = t + 2 * np.pi * H * np.cosh(t) / L
            return -np.tanh(t) + np.tanh(s) * (1 + 2 * np.pi * H * np.sinh(t) / L)

        ms = th.ms_piece_for_lower_length(L, CANON)
        t_fold = (CANON.h_minus - ms.offset) / ms.scale
        ts = np.linspace(t_fold - 10.0, t_fold + 10.0, 200001)
        slope = dlog_upper(ts)
        cells = np.nonzero(np.diff(np.sign(slope)) != 0)[0]
        assert cells.size == 1 and slope[0] < 0 < slope[-1]
        lo, hi = ts[cells[0]], ts[cells[0] + 1]
        t_min = brentq(dlog_upper, lo, hi, xtol=1e-15)
        assert abs(t_min - t_fold) <= 1e-10

    def test_two_solutions_for_huge_lower_lengths(self):
        # L_minus = 1e0 ... 1e299: the solutions' lower heights reach |t| ~ 690,
        # where f's evaluation noise exceeds 1e-12 and cosh(t) overflows
        solved = 0
        for exponent in range(300):
            L = 10.0**exponent
            F = th.f_omega(L, CANON)
            for upper in (1.01 * F, 2.0 * F, 2.0 * L, min(1e10 * L, 1e300)):
                if upper <= F * (1.0 + 1e-6):  # tangential or below the threshold
                    continue
                result = th.spanning_catenoids(L, upper, CANON)
                assert len(result) == 2, (L, upper)
                assert result.residuals and max(result.residuals) <= 1e-9, (L, upper)
                solved += 1
        assert solved == 1199

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            th.spanning_catenoids(0.0, 1.0, CANON)

    @pytest.mark.parametrize("lower, upper", [(1.0, math.inf), (1.0, math.nan), (math.inf, 3.0)])
    def test_rejects_non_finite(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            th.spanning_catenoids(lower, upper, CANON)


def test_threshold_asymptotics_measured_only():
    # the behavior of F toward 0 and infinity is reported, not asserted
    # (below L ~ 0.018 the threshold value genuinely exceeds double range)
    small = [th.f_omega(L, CANON) for L in (0.02, 0.1, 1.0)]
    large = [th.f_omega(L, CANON) for L in (1e2, 1e3, 1e4)]
    print(f"F near zero: {small}")
    print(f"F at large lengths: {large}")
    assert all(np.isfinite(small)) and all(np.isfinite(large))


@given(lower=magnitudes(), upper=magnitudes(), low=signed(), height=magnitudes())
@example(lower=0.01251212945140822, upper=4.0067345735565463e244, low=0.0,
         height=4.933314964022054e-273)  # U/F = e^1195: expm1 overflowed
@example(lower=0.01, upper=1.0, low=-1.0, height=2.0)  # F overflows
def test_threshold_functions_return_a_number_or_refuse(lower, upper, low, height):
    # finite, or +inf where F or L_crit leaves the doubles; otherwise a
    # ConvergenceError or ValueError; never NaN and never a warning
    try:
        slab = Slab(low, low + height)
    except ValueError:
        assume(False)
    for value in (lambda: th.f_omega(lower, slab), lambda: th.l_crit(slab)):
        try:
            assert value() > 0.0  # NaN fails; +inf passes
        except (ConvergenceError, ValueError):
            pass
    try:
        result = th.spanning_catenoids(lower, upper, slab)
    except (ConvergenceError, ValueError):
        return
    assert result.threshold_upper > 0.0 and len(result) in (0, 1, 2)
    assert result.tangential == (len(result) == 1)
    for scale, offset in result.parameters:
        assert 0.0 < scale < math.inf and math.isfinite(offset)
    assert all(0.0 <= r < math.inf for r in result.residuals)


class TestFortyDigitReference:
    """Tangency heights and marginally stable pieces against 40-digit mpmath
    roots of the same equations.  Each reference is a Newton iteration in
    40-digit arithmetic from the double result, run until its residual is
    below 1e-35, so it is the exact root, not a re-run of the package's
    iteration."""

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.mp.workdps(40):
            yield mpmath

    @staticmethod
    def _newton(f, df, x):
        for _ in range(8):
            x = x - f(x) / df(x)
        assert abs(f(x)) < 1e-35
        return x

    @classmethod
    def _t_plus(cls, mp, z, guess):
        # root of t - coth(t) = z on t > 0; d/dt = coth(t)^2
        return cls._newton(lambda t: t - mp.coth(t) - z, lambda t: mp.coth(t) ** 2, mp.mpf(guess))

    @staticmethod
    def _rel(value, ref):
        return float(abs((value - ref) / ref))

    def test_tangent_cone_heights(self, mp):
        worst = 0.0
        for z in np.linspace(-50.0, 50.0, 201):
            ct = st_mod.tangent_cone_heights(float(z))
            t_plus = self._t_plus(mp, mp.mpf(float(z)), ct.t_plus)
            t_minus = -self._t_plus(mp, -mp.mpf(float(z)), -ct.t_minus)
            worst = max(worst, self._rel(ct.t_plus, t_plus), self._rel(ct.t_minus, t_minus))
        print(f"worst relative tangency error against 40 digits: {worst:.2g}")
        # loose enough for a bare residual stop at 1e-13 max(1, |z|) (2.8e-14);
        # an iteration run to round-off reaches 3e-16
        assert worst <= 1e-13

    def test_ms_piece_for_lower_length(self, mp):
        H = mp.mpf(CANON.height)
        worst = dict(scale=0.0, offset=0.0, apex=0.0, upper=0.0)
        for L in np.geomspace(0.04, 1e4, 40):
            ms = th.ms_piece_for_lower_length(float(L), CANON)
            t_plus_guess = (CANON.h_plus - ms.offset) / ms.scale

            def t_plus_of(t_minus):
                return self._t_plus(mp, t_minus - mp.coth(t_minus), t_plus_guess)

            def log_lower(t_minus):
                lam = H / (t_plus_of(t_minus) - t_minus)
                return mp.log(2 * mp.pi * lam * mp.cosh(t_minus)) - mp.log(mp.mpf(float(L)))

            def d_log_lower(t_minus):
                t_plus = t_plus_of(t_minus)
                dt_plus = (mp.tanh(t_plus) / mp.tanh(t_minus)) ** 2
                return mp.tanh(t_minus) - (dt_plus - 1) / (t_plus - t_minus)

            t_minus = self._newton(
                log_lower, d_log_lower, mp.mpf((CANON.h_minus - ms.offset) / ms.scale)
            )
            t_plus = t_plus_of(t_minus)
            lam = H / (t_plus - t_minus)
            ref = dict(
                scale=lam,
                offset=mp.mpf(CANON.h_minus) - lam * t_minus,
                apex=t_minus - mp.coth(t_minus),
                upper=2 * mp.pi * lam * mp.cosh(t_plus),
            )
            got = dict(scale=ms.scale, offset=ms.offset, apex=ms.apex_height, upper=ms.upper_length)
            for key in worst:
                worst[key] = max(worst[key], self._rel(got[key], ref[key]))
        print(f"worst relative errors against 40 digits: {worst}")
        assert max(worst["scale"], worst["offset"], worst["apex"]) <= 1e-14
        assert worst["upper"] <= 1e-13
