import math

import numpy as np
import pytest

from catslab.spectral import TWO_PI, fourier_derivative, periodic_nodes


def _wave(n, top, order=0):
    """The order-th derivative of cos(2 pi top u) + sin(2 pi 3 u) on n nodes
    of [0, 1), by hand."""
    u, a, b = periodic_nodes(n, 1.0), TWO_PI * top, TWO_PI * 3
    shift = order * math.pi / 2
    return a**order * np.cos(a * u + shift) + b**order * np.sin(b * u + shift)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", [15, 16])
def test_fourier_derivative_grids(order, n):
    # the top mode is the Nyquist mode when n is even
    top = n // 2
    values = _wave(n, top)
    atol = 1e-12 * (TWO_PI * top) ** order
    at_nodes = fourier_derivative(values, order, period=1.0)
    assert np.abs(at_nodes - _wave(n, top, order)).max() <= atol
    assert np.array_equal(fourier_derivative(values, order, n, period=1.0), at_nodes)
    fine = fourier_derivative(values, order, 2 * n, period=1.0)
    assert np.abs(fine - _wave(2 * n, top, order)).max() <= atol
    with pytest.raises(ValueError, match="n_out"):
        fourier_derivative(values, order, n - 1, period=1.0)
