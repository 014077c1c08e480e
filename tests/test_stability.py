import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from _strategies import signed
from catslab import geometry as geo
from catslab import stability as st_mod
from catslab.errors import ConvergenceError
from catslab.geometry import CatenoidPiece, Slab


class TestTangentCones:
    def test_symmetric_apex(self):
        ct = st_mod.tangent_cone_heights(0.0)
        t_star = orc.ms_indicator_zero()
        assert ct.t_plus == pytest.approx(t_star, abs=1e-12)
        assert ct.t_minus == pytest.approx(-t_star, abs=1e-12)

    @given(st.floats(-5.0, 5.0))
    def test_tangency_residual(self, z):
        ct = st_mod.tangent_cone_heights(z)
        assert abs(ct.t_plus - 1.0 / math.tanh(ct.t_plus) - z) <= 1e-10
        assert abs(ct.t_minus - 1.0 / math.tanh(ct.t_minus) - z) <= 1e-10

    def test_tangency_residual_sweep(self):
        for z in np.linspace(-5.0, 5.0, 100):
            ct = st_mod.tangent_cone_heights(z)
            assert abs(ct.t_plus - 1.0 / math.tanh(ct.t_plus) - z) <= 1e-10
            assert abs(ct.t_minus - 1.0 / math.tanh(ct.t_minus) - z) <= 1e-10

    @given(st.floats(-4.0, 4.0))
    def test_reflection_symmetry(self, z):
        ct = st_mod.tangent_cone_heights(z)
        mirrored = st_mod.tangent_cone_heights(-z)
        assert ct.t_minus == pytest.approx(-mirrored.t_plus, abs=1e-12)

    def test_monotone_in_apex(self):
        heights = [st_mod.tangent_cone_heights(z).t_plus for z in np.linspace(-3, 3, 25)]
        assert np.all(np.diff(heights) > 0)
        assert st_mod.tangent_cone_heights(1.0).t_plus > st_mod.tangent_cone_heights(0.0).t_plus

    @pytest.mark.parametrize("z", [1e160, -1e160, 1e300, -1e300])
    def test_extreme_apex(self, z):
        # one root is near 1/|z|, where the Newton slope coth^2 t overflows
        ct = st_mod.tangent_cone_heights(z)
        small = ct.t_plus if z < 0 else -ct.t_minus
        assert small * abs(z) == pytest.approx(1.0, rel=1e-12)
        large = ct.t_minus if z < 0 else ct.t_plus
        assert large == pytest.approx(z, rel=1e-12)

    def test_cone_separation_oracle(self):
        # catenoid stays outside each tangent cone except at the tangency circle
        for z in (-2.0, 0.0, 0.7, 3.0):
            ct = st_mod.tangent_cone_heights(z)
            for t in (ct.t_plus, ct.t_minus):
                sep = orc.cone_separation(z, t)
                assert sep >= -1e-10


@given(signed())
def test_tangency_returns_finite_heights_or_refuses(z):
    # finite ordered heights and a unit piece between them, or a
    # ConvergenceError or ValueError; never NaN and never a warning
    try:
        ct = st_mod.tangent_cone_heights(z)
        piece = st_mod.cat_ms(z)
    except (ConvergenceError, ValueError):
        return
    assert -math.inf < ct.t_minus < 0.0 < ct.t_plus < math.inf
    assert (piece.scale, piece.offset) == (1.0, 0.0)
    assert (piece.slab.h_minus, piece.slab.h_plus) == (ct.t_minus, ct.t_plus)


class TestCatMs:
    def test_symmetric_piece(self):
        piece = st_mod.cat_ms(0.0)
        t_star = orc.ms_indicator_zero()
        assert piece.scale == 1.0 and piece.offset == 0.0
        assert piece.slab.h_minus == pytest.approx(-t_star, abs=1e-12)
        assert piece.slab.h_plus == pytest.approx(t_star, abs=1e-12)

    def test_lower_end_approaches_neck(self):
        # as the apex rises the lower tangency height climbs to 0-
        previous = st_mod.cat_ms(0.0).slab.h_minus
        for z in (2.0, 5.0, 10.0, 25.0):
            current = st_mod.cat_ms(z).slab.h_minus
            assert previous < current < 0.0
            previous = current
        assert st_mod.cat_ms(50.0).slab.h_minus > -0.03


class TestDilationField:
    def test_boundary_zeros(self):
        for z in (-1.5, 0.0, 2.0):
            ct = st_mod.tangent_cone_heights(z)
            assert abs(st_mod.dilation_jacobi_field(z, ct.t_plus)) <= 1e-12
            assert abs(st_mod.dilation_jacobi_field(z, ct.t_minus)) <= 1e-12

    def test_positive_inside(self):
        for z in (-1.0, 0.0, 1.3):
            ct = st_mod.tangent_cone_heights(z)
            s = np.linspace(ct.t_minus, ct.t_plus, 1002)[1:-1]
            assert np.all(st_mod.dilation_jacobi_field(z, s) > 0.0)

    def test_center_value(self):
        assert st_mod.dilation_jacobi_field(0.0, 0.0) == 1.0

    def test_satisfies_jacobi_ode(self):
        # fourth-order finite-difference residual of u'' + 2 sech^2(s) u
        for z in (0.0, 0.8):
            s = np.linspace(-2.0, 2.0, 4001)
            ds = s[1] - s[0]
            u = st_mod.dilation_jacobi_field(z, s)
            upp = (
                -u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]
            ) / (12 * ds**2)
            residual = upp + 2.0 / np.cosh(s[2:-2]) ** 2 * u[2:-2]
            assert np.abs(residual).max() <= 1e-8


class TestJacobiEigenvalue:
    def test_marginal_at_symmetric_piece(self):
        res = st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(0.0), mesh=4096)
        assert abs(res.lowest_eigenvalue) <= 1e-6

    def test_marginal_along_the_family(self):
        for z in (0.5, -1.2, -8.0, -20.0, 250.0):
            res = st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(z), mesh=2048)
            assert abs(res.lowest_eigenvalue) <= 1e-6

    def test_smaller_piece_stable_larger_unstable(self):
        t_star = orc.ms_indicator_zero()
        small = CatenoidPiece(1.0, 0.0, Slab(-0.9 * t_star, 0.9 * t_star))
        large = CatenoidPiece(1.0, 0.0, Slab(-1.1 * t_star, 1.1 * t_star))
        assert st_mod.lowest_jacobi_eigenvalue(small, 2048).lowest_eigenvalue > 0.0
        assert st_mod.lowest_jacobi_eigenvalue(large, 2048).lowest_eigenvalue < 0.0

    def test_monotone_in_interval(self):
        t_star = orc.ms_indicator_zero()
        values = []
        for factor in (0.7, 0.9, 1.0, 1.1, 1.3):
            piece = CatenoidPiece(1.0, 0.0, Slab(-factor * t_star, factor * t_star))
            values.append(st_mod.lowest_jacobi_eigenvalue(piece, 1024).lowest_eigenvalue)
        assert np.all(np.diff(values) < 0)

    def test_fd_matches_shooting(self):
        piece = CatenoidPiece(1.0, 0.0, Slab(-0.8, 1.1))
        shoot = orc.jacobi_shooting_mu1(-0.8, 1.1, 2048)
        fd = st_mod.lowest_jacobi_eigenvalue(piece, 2048)
        assert shoot == pytest.approx(fd.lowest_eigenvalue, abs=5e-6)

    def test_richardson_order_fd(self):
        piece = st_mod.cat_ms(0.0)
        errs = [
            abs(st_mod.lowest_jacobi_eigenvalue(piece, m).lowest_eigenvalue)
            for m in (512, 1024, 2048)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9)

    def test_richardson_order_shooting(self):
        slab = st_mod.cat_ms(0.0).slab
        errs = [
            abs(orc.jacobi_shooting_mu1(slab.h_minus, slab.h_plus, m))
            for m in (512, 1024, 2048)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.0)

    def test_eigenfunction_shape(self):
        res = st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(0.0), mesh=1024)
        u = res.eigenfunction_samples
        assert abs(u[0]) <= 1e-9 and abs(u[-1]) <= 1e-9
        interior = u[1:-1]
        assert np.all(interior > 0.0)  # ground state has no interior zero
        # matches the dilation field up to normalization
        exact = st_mod.dilation_jacobi_field(0.0, res.nodes)
        exact = exact / np.abs(exact).max()
        assert np.abs(u - exact).max() <= 1e-4

    def test_angular_mode_one_is_stable(self):
        # the k = 1 mode adds the potential k^2 = 1: the marginal piece is stable there
        slab = st_mod.cat_ms(0.0).slab
        assert orc.jacobi_shooting_mu1(slab.h_minus, slab.h_plus, 1024, k=1) > 0.0

    def test_marginal_interval_family_unique(self):
        # numeric check: for a fixed lower clip height, the upper height making
        # the piece marginal is unique and matches the cone-tangency family
        for a in (-1.5, -0.8):
            z = a - 1.0 / math.tanh(a)
            expected_b = st_mod.tangent_cone_heights(z).t_plus

            def mu1(b):
                piece = CatenoidPiece(1.0, 0.0, Slab(a, b))
                return st_mod.lowest_jacobi_eigenvalue(piece, 512).lowest_eigenvalue

            lo, hi = 0.25, 4.0
            assert mu1(lo) > 0.0 > mu1(hi)  # single sign change: unique marginal b
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if mu1(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(expected_b, abs=1e-3)

    def test_mesh_too_coarse(self):
        with pytest.raises(ValueError):
            st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(0.0), mesh=8)

    def test_only_fd_method(self):
        with pytest.raises(ValueError):
            st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(0.0), 1024, method="shooting")

    def test_weight_overflow_raises(self):
        # the slab reaches s ~ 401, where cosh(s)^2 exceeds the double range
        with pytest.raises(ConvergenceError) as info:
            st_mod.lowest_jacobi_eigenvalue(st_mod.cat_ms(400.0), 1024)
        assert info.value.residuals["h_plus"] > 355.0

    def test_requires_unit_piece(self):
        with pytest.raises(ValueError):
            st_mod.lowest_jacobi_eigenvalue(
                CatenoidPiece(2.0, 0.0, Slab(-1.0, 1.0)), 1024
            )


class TestJacobiNu1:
    @pytest.mark.parametrize("a, b", [(-2.0, 3.0), (-0.8, 1.1), (-0.0032, 100.0), (-0.0032, 330.0)])
    def test_matches_unweighted_fd(self, a, b):
        nu1 = st_mod.jacobi_nu1(CatenoidPiece(1.0, 0.0, Slab(a, b)))
        mesh = 65536
        h = (b - a) / mesh
        fd = orc.jacobi_fd_nu1(a, b, mesh)
        # measured: 3e-3 h^2 of discretization error on the long slabs, where
        # it is below |nu1|, and round-off near 1e-8 on the short ones
        assert abs(fd - nu1) <= 1e-2 * h**2 + 1e-15 * 4.0 / h**2
        assert (fd > 0.0) == (nu1 > 0.0)

    def test_sign_far_from_the_neck(self):
        # Slab(-0.0032, 100) lies inside the marginal piece of apex 312.5, which
        # reaches 313.5, and Slab(-0.0032, 330) contains it; the FD solve of the
        # weighted operator signs both wrongly
        assert st_mod.jacobi_nu1(CatenoidPiece(1.0, 0.0, Slab(-0.0032, 100.0))) > 0.0
        assert st_mod.jacobi_nu1(CatenoidPiece(1.0, 0.0, Slab(-0.0032, 330.0))) < 0.0
        for z in (-20.0, -1.0, 0.0, 50.0, 312.5, 1e4):
            slab = st_mod.cat_ms(z).slab
            a, b = slab.h_minus, slab.h_plus
            inner = CatenoidPiece(1.0, 0.0, Slab(a, a + 0.9 * (b - a)))
            outer = CatenoidPiece(1.0, 0.0, Slab(a, a + 1.1 * (b - a)))
            assert st_mod.jacobi_nu1(inner) > 0.0 > st_mod.jacobi_nu1(outer), z

    def test_marginal_along_the_family(self):
        for z in np.linspace(-20.0, 250.0, 271):
            assert abs(st_mod.jacobi_nu1(st_mod.cat_ms(float(z)))) <= 1e-12, z

    @given(
        st.floats(-300.0, 300.0),
        st.sampled_from([1.0, -1.0, 0.0]),
        st.floats(-300.0, 300.0),
    )
    def test_any_slab_gives_nu1_or_convergence_error(self, lower_exp, sign, height_exp):
        a = sign * 10.0**lower_exp
        b = a + 10.0**height_exp
        if not a < b < math.inf:
            return
        try:
            nu1 = st_mod.jacobi_nu1(CatenoidPiece(1.0, 0.0, Slab(a, b)))
        except ConvergenceError:
            assert (b - a) <= 1e-150  # nu1 near or above the double range
            return
        # nu1 lies above the full line's ground state -1 and below (pi/L)^2
        assert -1.0 <= nu1 <= (math.pi / (b - a)) ** 2 * (1.0 + 1e-15)
