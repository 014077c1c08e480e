import os

# One BLAS thread for every in-process solve, set before numpy loads: the last
# bits of the oval solve depend on the thread count.  Of 300 oval_corpus
# inputs, 142 gave a different full-precision lambda1 under two OpenBLAS
# threads than under one (at most 2.5e-15 relative, 24 of them within the 15
# printed digits; n_used the same), although the three oval goldens print the
# same under both.  Two threads also made the dense solves 3-4x slower on a
# loaded 2-core machine.
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
