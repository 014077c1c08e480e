import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import _oracles as orc
from _strategies import magnitudes, signed
from catslab import geometry as geo
from catslab.errors import ConvergenceError
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
        with pytest.raises(ValueError, match=r"slab \[0.0, 1e-310\].*below the normal doubles"):
            Slab(0.0, 1e-310)

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

    @pytest.mark.parametrize("ends", [(-1e308, 1e308), (1e308, 1.7e308), (-1.7e308, -1e308)])
    def test_height_and_midpoint_must_be_finite(self, ends):
        with pytest.raises(ValueError, match="finite"):
            Slab(*ends)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quadrature_refuses_a_zero_height_step(self):
        # h +- 1e-5 rounds back to h at 1e12, where the closed form is finite
        piece = CatenoidPiece(1.0, 1e12 + 0.5, Slab(1e12, 1e12 + 1.0))
        assert geo.area_in_slab(piece) == pytest.approx(6.8336, rel=1e-4)
        with pytest.raises(ConvergenceError, match="height step") as err:
            geo.area_by_quadrature(piece)
        assert err.value.residuals["step"] == 1e-5
        assert 1e12 <= err.value.residuals["height"] <= 1e12 + 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quadrature_refuses_an_overflowing_radius(self):
        piece = CatenoidPiece(0.0131, -0.0164, Slab(-0.079, 88.85))
        assert geo.area_in_slab(piece) == math.inf
        with pytest.raises(ConvergenceError, match="radius") as err:
            geo.area_by_quadrature(piece)
        res = err.value.residuals
        assert (res["height"] - res["offset"]) / res["scale"] > 710.0  # cosh overflows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quadrature_refuses_an_overflowing_element(self):
        # the radius stays near 1e154, but the element r * sqrt(1 + r'^2)
        # leaves the doubles on the outer nodes, as does the area
        piece = CatenoidPiece(0.01, 0.0, Slab(-3.6, 3.6))
        assert 0.01 * math.cosh(360.0) < 1e155
        assert geo.area_in_slab(piece) == math.inf
        with pytest.raises(ConvergenceError, match="area element") as err:
            geo.area_by_quadrature(piece)
        res = err.value.residuals
        assert res["radius"] < 1e155 and res["radius"] * res["slope"] > 1e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quadrature_answers_an_area_near_the_largest_double(self):
        # 1.04606e308: the element stays finite, and no n_theta-fold sum is taken
        piece = CatenoidPiece(0.01, 0.0, Slab(-3.59, 3.59))
        quad = geo.area_by_quadrature(piece)
        assert quad == pytest.approx(geo.area_in_slab(piece), rel=1e-3)

    def test_closed_form_where_a_factor_overflows(self):
        # sinh(2/lam) overflows on the way to a finite area: taken in log form
        mpmath = pytest.importorskip("mpmath")
        for lam, t, half in [(0.01, 0.0, 3.59), (0.01, 0.01, 3.58), (1 / 360, 1e-3, 1.0)]:
            piece = CatenoidPiece(lam, t, Slab(-half, half))
            with mpmath.mp.workdps(40):
                c, L, T = mpmath.mpf(half), mpmath.mpf(lam) / half, mpmath.mpf(t) / half
                growth = mpmath.cosh(2 * T / L) * mpmath.sinh(2 / L)
                exact = c * c * (mpmath.pi * L * L * growth + 2 * mpmath.pi * L)
                assert 1e307 < exact < 1.7e308 and 2 / L > 711
                assert abs(geo.area_in_slab(piece) / exact - 1) <= 1e-12
        # a finite double expression keeps its bits
        lam = 0.02 / 3.5
        growth = math.cosh(0.0) * math.sinh(2.0 / lam)
        expected = 3.5 * 3.5 * (PI * lam * lam * growth + 2 * PI * lam)
        assert geo.area_in_slab(CatenoidPiece(0.02, 0.0, Slab(-3.5, 3.5))) == expected

    def test_closed_form_where_a_square_leaves_the_doubles(self):
        # lam^2 underflows against an infinite cosh*sinh: the area overflows
        assert geo.area_in_slab(CatenoidPiece(1e-170, 0.0, CANON)) == math.inf
        # c^2 underflows against an infinite lam^2: a thin band 2 pi * scale * height
        thin = CatenoidPiece(1.0, 0.0, Slab(0.0, 1e-162))
        assert geo.area_in_slab(thin) == pytest.approx(2.0 * PI * 1e-162, rel=1e-12)
        assert geo.area_by_quadrature(thin) == pytest.approx(2.0 * PI * 1e-162, rel=1e-8)

    @pytest.mark.parametrize("scale, height", [(1e10, 1e-300), (1e300, 1e-10)])
    def test_closed_form_where_the_canonical_scale_overflows(self, scale, height):
        # scale / (height / 2) leaves the doubles; the band 2 pi * scale * height does not
        piece = CatenoidPiece(scale, 0.0, Slab(0.0, height))
        assert geo.area_in_slab(piece) == pytest.approx(2.0 * PI * scale * height, rel=1e-14)
        assert geo.area_by_quadrature(piece) == pytest.approx(2.0 * PI * scale * height, rel=1e-12)

    @pytest.mark.parametrize("height", [1e-9, 1e-12, 1e-14])
    def test_quadrature_on_slabs_thinner_than_its_step(self, height):
        # the height stencil stays central past the slab ends, so the radial
        # slope is not a difference of radii that agree to a few ulps
        mpmath = pytest.importorskip("mpmath")
        piece = CatenoidPiece(1.0, 0.0, Slab(5.0, 5.0 + height))
        b = mpmath.mpf(5.0 + height)  # the slab end as the double it is
        with mpmath.mp.workdps(40):
            exact = 2 * mpmath.pi * mpmath.quad(lambda z: mpmath.cosh(z) ** 2, [5, b])
            rel = abs(geo.area_by_quadrature(piece) / exact - 1)
        assert rel <= 1e-10


def _quadrature_corpus(count, seed):
    """Pieces for the agreement check: three in four with log-uniform scale
    in [3e-3, 1e3], offsets and general slabs (many overflow), one in four
    thin catenoids on [-1, 1] whose area element reaches 1e286; the stacked
    stencil's grids (2, 4), (17, 33), (64, 256) and (128, 512) in the ratio
    3:2:2:1."""
    rng = np.random.default_rng(seed)
    grids = [(2, 4)] * 3 + [(17, 33)] * 2 + [(64, 256)] * 2 + [(128, 512)]
    for i in range(count):
        if i % 4 == 3:
            scale = float(np.exp(rng.uniform(np.log(3e-3), np.log(6e-3))))
            piece = CatenoidPiece(scale, float(rng.uniform(-0.05, 0.05)), CANON)
        else:
            scale = float(np.exp(rng.uniform(np.log(3e-3), np.log(1e3))))
            lo = float(rng.uniform(-5.0, 5.0))
            slab = Slab(lo, lo + float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))))
            piece = CatenoidPiece(scale, float(rng.uniform(-5.0, 5.0)), slab)
        yield piece, grids[i % len(grids)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_agrees_with_the_stacked_stencil():
    # the height-axis rule against the 2-D stencil on stacked points at the
    # same n_height: within 1e-10 wherever the stacked result is finite (its
    # angle stencil alone is sin(1e-5)/1e-5 - 1 = -1.7e-11 off), a refusal elsewhere
    finite = 0
    for piece, (n_height, n_theta) in _quadrature_corpus(1024, seed=2024):
        with np.errstate(all="ignore"):
            stacked = orc.area_by_stacked_stencil(piece, n_height, n_theta)
        if math.isfinite(stacked):
            quad = geo._gauss_area(piece, n_height)
            assert abs(quad / stacked - 1) <= 1e-10, (piece, n_height)
            finite += 1
        else:
            with pytest.raises(ConvergenceError):
                geo._gauss_area(piece, n_height)
    assert 600 <= finite < 1024  # both branches are exercised


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(
    scale=magnitudes(), offset=signed(), low=signed(), height=magnitudes(),
    n_height=st.sampled_from([2, 17, 64]),
)
@example(scale=1.0, offset=1e12 + 0.5, low=1e12, height=1.0, n_height=64)
@example(scale=0.0131, offset=-0.0164, low=-0.079, height=88.929, n_height=64)
@example(scale=1e-170, offset=0.0, low=-1.0, height=2.0, n_height=64)
@example(scale=1.0, offset=0.0, low=0.0, height=1e-162, n_height=2)
@example(scale=0.01, offset=0.0, low=-3.59, height=7.18, n_height=64)
# half heights below the normal doubles: refused by Slab
@example(scale=1.0, offset=0.0, low=0.0, height=5e-324, n_height=64)
@example(scale=1.0, offset=0.0, low=0.0, height=1e-323, n_height=64)
@example(scale=1.0, offset=0.0, low=0.0, height=1e-310, n_height=64)
# the canonical scale overflows, the area does not
@example(scale=1e10, offset=0.0, low=0.0, height=1e-300, n_height=64)
@example(scale=1e300, offset=0.0, low=0.0, height=1e-10, n_height=64)
def test_area_functions_return_a_number_or_refuse(scale, offset, low, height, n_height):
    # finite, or +inf from the closed form where it overflows; otherwise a
    # ConvergenceError or ValueError; never NaN and never a warning
    try:
        piece = CatenoidPiece(scale, offset, Slab(low, low + height))
    except ValueError:
        assume(False)
    for area in (geo.area_in_slab, geo.area_by_quadrature,
                 lambda p: geo._gauss_area(p, n_height)):
        try:
            value = area(piece)
        except (ConvergenceError, ValueError):
            continue
        assert value >= 0.0
        assert math.isfinite(value) or (area is geo.area_in_slab and value == math.inf)


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
