import math

import numpy as np
import pytest

import _oracles as orc
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
            assert len(th.spanning_catenoids(L_minus, above, CANON)) >= 1
            assert len(th.spanning_catenoids(L_minus, below, CANON)) == 0

    def test_general_slab(self):
        slab = Slab(0.5, 2.5)
        L = 9.0
        F = th.f_omega(L, slab)
        result = th.spanning_catenoids(L, 1.1 * F, slab)
        assert len(result) >= 1
        for lam, c in result.parameters:
            low = 2 * math.pi * lam * math.cosh((slab.h_minus - c) / lam)
            high = 2 * math.pi * lam * math.cosh((slab.h_plus - c) / lam)
            assert low == pytest.approx(L, rel=1e-9)
            assert high == pytest.approx(1.1 * F, rel=1e-9)

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
