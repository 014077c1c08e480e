import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catslab import stability
from catslab.errors import ConvergenceError
from catslab.rootfind import bracketed_root


class Counted:
    """f with a record of every point it was evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, x):
        self.points.append(x)
        return self.f(x)


@pytest.mark.parametrize("fprime", [None, lambda x: 1.0])
def test_exact_zero_at_either_end(fprime):
    assert bracketed_root(lambda x: x - 1.0, 1.0, 3.0, fprime) == 1.0
    assert bracketed_root(lambda x: x - 3.0, 1.0, 3.0, fprime) == 3.0


def test_unbracketed_start_raises_value_error():
    with pytest.raises(ValueError, match="not bracketed"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="not bracketed"):
        bracketed_root(lambda x: math.nan, -1.0, 1.0)


@pytest.mark.parametrize("fprime", [None, lambda x: 1.0])
def test_nan_inside_the_bracket_raises(fprime):
    f = Counted(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5)
    with pytest.raises(ConvergenceError, match="NaN"):
        bracketed_root(f, 0.0, 1.0, fprime)
    assert len(f.points) < 10


def test_sign_change_without_root_stalls():
    # a jump, not a root: bisection narrows to machine resolution, then stops
    with pytest.raises(ConvergenceError, match="stalled"):
        bracketed_root(lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0)


@pytest.mark.parametrize("fprime", [None, lambda x: 3.0 * x * x])
def test_flat_root(fprime):
    f = Counted(lambda x: x**3)
    x = bracketed_root(f, -1.0, 2.0, fprime)
    assert abs(x**3) <= 1e-12
    assert len(f.points) <= 100


@pytest.mark.parametrize("fprime", [None, lambda x: 50.0 / math.cosh(50.0 * (x - 0.3)) ** 2])
def test_steep_root(fprime):
    f = Counted(lambda x: math.tanh(50.0 * (x - 0.3)))
    x = bracketed_root(f, 0.0, 1.0, fprime)
    assert abs(x - 0.3) <= 1e-15
    assert len(f.points) <= 30


@given(
    root=st.floats(-5.0, 5.0),
    slope=st.floats(0.01, 10.0),
    cubic=st.floats(0.0, 2.0),
    rate=st.floats(0.1, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    below=st.floats(1e-3, 10.0),
    above=st.floats(1e-3, 10.0),
    newton=st.booleans(),
)
def test_random_monotone_functions(root, slope, cubic, rate, sign, below, above, newton):
    def f(x):
        return sign * (slope * (x - root) + cubic * math.sinh(rate * (x - root)))

    def fprime(x):
        return sign * (slope + cubic * rate * math.cosh(rate * (x - root)))

    lo, hi = root - below, root + above
    counted = Counted(f)
    seen = counted.points
    derivative_points = []

    def tracked_fprime(x):
        derivative_points.append(x)
        return fprime(x)

    x = bracketed_root(counted, lo, hi, tracked_fprime if newton else None)
    assert lo <= x <= hi
    assert abs(f(x)) <= 1e-12
    # callers may reuse work from f(x) when asked for fprime(x)
    assert set(derivative_points) <= set(seen)
    assert len(seen) <= 60


def test_tangency_root_evaluation_budget(monkeypatch):
    counts = []

    def counting(f, *args, **kwargs):
        counted = Counted(f)
        root = bracketed_root(counted, *args, **kwargs)
        counts.append(len(counted.points))
        return root

    monkeypatch.setattr(stability, "bracketed_root", counting)
    for z in np.linspace(-50.0, 50.0, 401):
        stability.tangent_cone_heights(float(z))
    assert len(counts) == 802
    assert max(counts) <= 12
