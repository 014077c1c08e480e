import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as orc
from catslab import geometry as geo
from catslab.geometry import CatenoidPiece, Slab

PI = math.pi
CANON = geo.CANONICAL_SLAB


def unit_piece():
    return CatenoidPiece(1.0, 0.0, CANON)


class TestSlab:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Slab(1.0, 1.0)
        with pytest.raises(ValueError):
            Slab(2.0, -1.0)

    def test_reduction_roundtrip(self):
        piece = CatenoidPiece(0.7, 0.9, Slab(0.5, 3.5))
        canonical, c, m = geo.reduce_to_canonical(piece)
        assert canonical.slab == CANON
        assert c == pytest.approx(1.5)
        assert m == pytest.approx(2.0)
        assert canonical.scale * c == pytest.approx(piece.scale)
        assert canonical.offset * c + m == pytest.approx(piece.offset)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            CatenoidPiece(-1.0, 0.0, CANON)
        with pytest.raises(ValueError):
            CatenoidPiece(0.0, 0.0, CANON)


class TestParameterize:
    def test_unit_neck(self):
        assert geo.parameterize(unit_piece(), 0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0])

    def test_direct_substitution(self):
        point = geo.parameterize(unit_piece(), 1.0, PI / 2)
        assert point == pytest.approx([0.0, math.cosh(1.0), 1.0], abs=1e-15)

    def test_scaled_shifted_neck(self):
        piece = CatenoidPiece(2.0, 0.5, CANON)
        assert geo.parameterize(piece, 0.5, 0.0) == pytest.approx([2.0, 0.0, 0.5])

    def test_out_of_range_height(self):
        with pytest.raises(ValueError):
            geo.parameterize(unit_piece(), 1.5, 0.0)


class TestArea:
    def test_closed_form_unit(self):
        assert geo.area_in_slab(unit_piece()) == pytest.approx(
            PI * math.sinh(2.0) + 2.0 * PI, rel=1e-14
        )

    def test_quadrature_oracle_agreement(self):
        # oracle: tensor quadrature of the area element from the parameterization
        for lam, t in [(1.0, 0.0), (0.7, 0.3), (0.2, -1.0), (5.0, 2.0), (0.3, 1.5)]:
            piece = CatenoidPiece(lam, t, CANON)
            closed = geo.area_in_slab(piece)
            quad = geo.area_by_quadrature(piece)
            assert abs(closed - quad) / closed < 1e-8

    @pytest.mark.parametrize("lam", [3e-3, 4e-3, 5e-3])
    def test_quadrature_finite_on_thin_catenoids(self, lam):
        # the area element reaches 1e286 here: squaring it must not overflow
        piece = CatenoidPiece(lam, 0.0, CANON)
        closed = geo.area_in_slab(piece)
        quad = geo.area_by_quadrature(piece)
        assert math.isfinite(closed) and math.isfinite(quad)
        assert abs(closed - quad) / closed < 1e-3  # 4.6e-5 at 3e-3 (FD step / lam)

    def test_even_in_offset(self):
        a = geo.area_in_slab(CatenoidPiece(0.7, 0.3, CANON))
        b = geo.area_in_slab(CatenoidPiece(0.7, -0.3, CANON))
        assert a == pytest.approx(b, rel=1e-15)

    def test_grid_minimum_at_lambda0(self, lambda0):
        lams = np.geomspace(0.3, 3.0, 41)
        ts = np.linspace(-1.5, 1.5, 41)
        best = geo.area_in_slab(CatenoidPiece(lambda0, 0.0, CANON))
        values = np.array(
            [[geo.area_in_slab(CatenoidPiece(l, t, CANON)) for t in ts] for l in lams]
        )
        assert values.min() > best

    def test_offset_derivative_vanishes_at_zero(self):
        # dA/dt at t = 0 by central differences, for several scales
        for lam in (0.4, 0.8335, 1.7):
            area = lambda t: geo.area_in_slab(CatenoidPiece(lam, t, CANON))
            d = (area(1e-5) - area(-1e-5)) / 2e-5
            assert abs(d) <= 1e-6 * area(0.0)

    def test_general_slab_matches_direct_integral(self):
        piece = CatenoidPiece(0.9, 1.2, Slab(0.3, 2.1))
        quad = geo.area_by_quadrature(piece)
        assert geo.area_in_slab(piece) == pytest.approx(quad, rel=1e-8)


class TestBoundaryAndLevels:
    def test_boundary_unit(self):
        assert geo.boundary_length(unit_piece()) == pytest.approx(
            4.0 * PI * math.cosh(1.0), rel=1e-14
        )

    def test_boundary_arclength_oracle(self):
        for lam, t in [(1.0, 0.0), (0.6, 0.4), (2.3, -0.8)]:
            piece = CatenoidPiece(lam, t, CANON)
            oracle = orc.boundary_arclength(piece)
            assert geo.boundary_length(piece) == pytest.approx(oracle, rel=1e-8)

    def test_boundary_even_in_offset(self):
        a = geo.boundary_length(CatenoidPiece(0.9, 0.55, CANON))
        b = geo.boundary_length(CatenoidPiece(0.9, -0.55, CANON))
        assert a == pytest.approx(b, rel=1e-15)

    def test_boundary_grid_minimum_at_lambda0(self, lambda0):
        lams = np.geomspace(0.3, 3.0, 41)
        ts = np.linspace(-1.5, 1.5, 41)
        best = geo.boundary_length(CatenoidPiece(lambda0, 0.0, CANON))
        values = np.array(
            [
                [geo.boundary_length(CatenoidPiece(l, t, CANON)) for t in ts]
                for l in lams
            ]
        )
        assert values.min() > best

    def test_level_lengths(self):
        piece = unit_piece()
        assert geo.level_length(piece, 0.0) == pytest.approx(2.0 * PI, rel=1e-15)
        assert geo.level_length(piece, 1.0) == pytest.approx(
            2.0 * PI * math.cosh(1.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            geo.level_length(piece, 1.0001)

    def test_level_minimum_at_neck(self):
        piece = CatenoidPiece(0.8, 0.25, CANON)
        heights = np.linspace(-1.0, 1.0, 201)
        lengths = [geo.level_length(piece, h) for h in heights]
        assert min(lengths) >= geo.level_length(piece, 0.25)

    def test_neck_level_equals_flux(self):
        piece = CatenoidPiece(1.4, 0.2, CANON)
        assert geo.level_length(piece, piece.offset) == pytest.approx(
            geo.vertical_flux(piece.scale), abs=1e-12
        )


class TestFlux:
    def test_values(self):
        assert geo.vertical_flux(1.0) == pytest.approx(2.0 * PI, rel=1e-15)
        assert geo.vertical_flux(2.0) == pytest.approx(4.0 * PI, rel=1e-15)

    def test_line_integral_oracle(self):
        piece = unit_piece()
        for height in (0.0, 0.7):
            vec = orc.flux_line_integral(piece, height)
            assert abs(vec[2] - geo.vertical_flux(1.0)) <= 1e-10
            assert np.abs(vec[:2]).max() <= 1e-10

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            geo.vertical_flux(0.0)


class TestLambda0:
    def test_defining_residual(self, lambda0):
        assert abs(2 * lambda0 / (1 - lambda0**2) - math.sinh(2 / lambda0)) <= 1e-12

    def test_tanh_relation(self, lambda0):
        assert abs(math.tanh(1.0 / lambda0) - lambda0) <= 1e-10

    def test_bracket(self, lambda0):
        assert 0.83 < lambda0 < 0.84

    def test_deterministic(self):
        assert geo.solve_lambda0() == geo.solve_lambda0()


class TestMsIndicator:
    def test_center(self):
        assert orc.ms_indicator(0.0) == 1.0

    def test_zero_matches_bisection_oracle(self):
        # oracle: plain bisection on t*tanh(t) = 1
        lo, hi = 1.0, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid * math.tanh(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        t_star = orc.ms_indicator_zero()
        assert abs(t_star - 0.5 * (lo + hi)) <= 1e-12
        assert abs(orc.ms_indicator(t_star)) <= 1e-13
        assert t_star == pytest.approx(1.1997, abs=5e-4)

    @given(st.floats(-20.0, 20.0))
    def test_even(self, h):
        assert np.sign(orc.ms_indicator(h)) == np.sign(orc.ms_indicator(-h))


class TestHomothetyCovariance:
    @given(
        st.floats(0.2, 3.0),
        st.floats(-1.0, 1.0),
        st.floats(0.3, 4.0),
    )
    def test_scaling_laws(self, lam, t, c):
        piece = CatenoidPiece(lam, t, CANON)
        scaled = CatenoidPiece(c * lam, c * t, Slab(-c, c))
        assert geo.area_in_slab(scaled) == pytest.approx(
            c * c * geo.area_in_slab(piece), rel=1e-12
        )
        assert geo.boundary_length(scaled) == pytest.approx(
            c * geo.boundary_length(piece), rel=1e-12
        )
        assert geo.vertical_flux(c * lam) == pytest.approx(
            c * geo.vertical_flux(lam), rel=1e-12
        )

    def test_quadrature_agreement_over_range(self):
        # closed form vs quadrature across the documented (lam, t) range
        rng = np.random.default_rng(5)
        for _ in range(10):
            lam = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            t = float(rng.uniform(-2.0, 2.0))
            piece = CatenoidPiece(lam, t, CANON)
            assert geo.area_in_slab(piece) == pytest.approx(
                geo.area_by_quadrature(piece), rel=1e-8
            )
