"""Hypothesis strategies shared by the library's finite-values properties."""

from hypothesis import strategies as st


def magnitudes():
    """Log-uniform magnitudes from 1e-3 to 1e3 and from 1e-300 to 1e300."""
    return (st.floats(-3.0, 3.0) | st.floats(-300.0, 300.0)).map(lambda e: 10.0**e)


def signed():
    """Zero, or a magnitude of either sign."""
    return st.just(0.0) | st.tuples(magnitudes(), st.sampled_from([1.0, -1.0])).map(
        lambda mt: mt[0] * mt[1]
    )
