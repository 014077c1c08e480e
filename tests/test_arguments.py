"""Argument checks of the public functions: an integer argument given as a
float, or a scalar out of its domain, raises ValueError naming the argument,
never TypeError, IndexError, a NaN or a warning."""

import math

import numpy as np
import pytest

from catslab import geometry as geo
from catslab import ovals
from catslab import stability as st_mod
from catslab import weierstrass as wz
from catslab.ovals import ClosedCurve

UNIT = geo.CatenoidPiece(1.0, 0.0, geo.CANONICAL_SLAB)


@pytest.fixture(scope="module")
def cat_data():
    return wz.catenoid_data(1.0, 1 / math.e, math.e)


_INTEGER_CALLS = {
    "n_height": lambda data: geo.area_by_quadrature(UNIT, 2.5),
    "mesh": lambda data: st_mod.lowest_jacobi_eigenvalue(UNIT, mesh=1024.5),
    "levels": lambda data: wz.level_profile(data, 5.5),
    "n_theta": lambda data: wz.level_profile(data, 9, n_theta=64.5),
    "grid_spec": lambda data: wz.immerse(data, (64.5, 256)),
    "level_index": lambda data: wz.second_derivative_decomposition(
        wz.immerse(data, (8, 64)), 1.5
    ),
    "n": lambda data: ClosedCurve.ellipse(2.0, 1.0, 100.5),
    "sides": lambda data: ClosedCurve.rounded_polygon(3.5),
    "n_modes": lambda data: ClosedCurve.random_fourier(np.random.default_rng(0), 2.5),
    "max_n": lambda data: ovals.lowest_eigenvalue(ClosedCurve.circle(), max_n=64.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_INTEGER_CALLS))
def test_integer_arguments_refuse_floats(cat_data, name):
    with pytest.raises(ValueError, match=f"{name}.* must be an int"):
        _INTEGER_CALLS[name](cat_data)


@pytest.mark.parametrize("n_theta", [0, -4])
def test_level_profile_refuses_no_angles(cat_data, n_theta):
    # 0 raised ZeroDivisionError, -4 numpy's "Number of samples, -8, ..."
    with pytest.raises(ValueError, match="at least 1 angle"):
        wz.level_profile(cat_data, 9, n_theta=n_theta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [math.inf, math.nan, 0.0, -1.0])
def test_circle_mean_refuses_a_bad_radius(rho):
    with pytest.raises(ValueError, match="rho must be a positive finite float"):
        wz.cpx_inequality_check({1: 1.0}, rho)


def test_circle_mean_refuses_an_empty_table():
    with pytest.raises(ValueError, match="F_coeffs must hold"):
        wz.cpx_inequality_check({}, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [1e-300, 1e-170, 1e150])
def test_circle_mean_equality_on_tiny_and_huge_circles(rho):
    # F = z saturates the inequality on every circle: no square may leave the doubles
    report = wz.cpx_inequality_check({1: 1.0}, rho)
    assert report.lhs == pytest.approx(2.0 * math.pi * rho, rel=1e-12)
    assert abs(report.slack) <= 1e-12 * report.lhs


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circle_mean_refuses_an_overflowing_circle():
    with pytest.raises(ValueError, match="overflow"):
        wz.cpx_inequality_check({1: 1.0, 2: 1.0}, 1e200)


@pytest.mark.parametrize(
    "args, name",
    [((math.nan, 0.0), "apex_height"), ((math.inf, 0.0), "apex_height"),
     ((0.0, math.nan), "height"), ((0.0, [0.0, -math.inf]), "height")],
)
def test_dilation_field_refuses_non_finite_input(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        st_mod.dilation_jacobi_field(*args)
