import os

# One BLAS thread for every in-process solve, set before numpy loads: the last
# digit of the oval eigensolve depends on the thread count (the oval goldens
# pin the one-thread digits), and two threads made the dense solves 3-4x
# slower on a loaded 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def lambda0():
    from catslab.geometry import solve_lambda0

    return solve_lambda0()
