"""numpy and scipy stay off the start-up path, and the lazy exports stay true.

``import catslab`` loads no submodule: each exported name imports its module
on first access (PEP 562).  So ``import catslab``, ``import catslab.cli`` and
the scalar modes (``lambda0``, ``ms``, ``threshold`` and ``threshold
--sweep``), which compute in closed form with ``math``, never load numpy.
Only the oval solve imports ``scipy.linalg``, at its first call, so every
other command starts without it: the Weierstrass area comparison finds its
neck without scipy too.  The pytest process has numpy and scipy loaded
already, so each check runs in a fresh interpreter.
"""

import functools
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

import catslab
from catslab import weierstrass as wz

SRC = pathlib.Path(catslab.__file__).resolve().parents[1]

# argv null: ``import catslab`` alone; [] also ``import catslab.cli``;
# otherwise ``catslab.cli.main(argv)``, which must return the given exit code
_CHILD = """
import contextlib, io, json, sys
import catslab
argv, code = json.loads(sys.argv[1])
if argv is not None:
    import catslab.cli
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert catslab.cli.main(argv) == code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""

_INPUTS = {
    "catenoid": {"scale": 1.0, "offset": 0.0},
    "pair": {"lower_length": 11.4, "upper_length": 11.4},
    "overflow_pair": {"lower_length": 0.01, "upper_length": 1.0},  # F overflows
    "bad_pair": {"lower_length": -1.0, "upper_length": 1.0},  # exits 3
    "annulus": json.loads(wz.to_json(wz.catenoid_data(1.0, 1 / math.e, math.e))),
    "ms": {"apex_height": 0.5},
    "oval": {"circle": [1]},
}


_AREA_CHILD = """
import json, math, sys
import numpy as np
from catslab import weierstrass as wz
from catslab.geometry import Slab
rng = np.random.default_rng(3)
for data in (wz.catenoid_data(1.0, 1 / math.e, math.e), wz.vertical_annulus_data(rng)):
    wz.area_comparison(data, Slab(-0.8, 0.8))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _child_modules(code: str, arg) -> list[str]:
    """The JSON list a fresh interpreter prints after ``code`` with ``arg``."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(arg)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@functools.cache
def _loaded(args: tuple | None, code: int = 0) -> list[str]:
    """Names of the numpy and scipy modules loaded after ``import catslab``
    (``args`` None), ``import catslab.cli`` (``args`` empty) or
    ``catslab.cli.main(args)``; ``@name`` in args stands for a file holding
    ``_INPUTS[name]``.  Cached: the numpy and the scipy checks of one command
    share its child."""
    with tempfile.TemporaryDirectory() as directory:
        argv = None if args is None else []
        for arg in args or ():
            if arg.startswith("@"):
                path = pathlib.Path(directory, f"{arg[1:]}.json")
                path.write_text(json.dumps(_INPUTS[arg[1:]]))
                arg = str(path)
            argv.append(arg)
        return _child_modules(_CHILD, [argv, code])


# each command that exits 0, as ``_loaded`` takes it
_RUNS = {
    "import_package": None,
    "import": (),
    "lambda0": ("lambda0",),
    "ms": ("ms", "--input", "@ms"),
    "threshold_pair": ("threshold", "--input", "@pair"),
    "threshold_sweep": ("threshold", "--sweep", "1:2:2"),
    "threshold_overflow_pair": ("threshold", "--input", "@overflow_pair"),
    "catenoid": ("catenoid", "--input", "@catenoid"),
    "annulus_input": ("annulus", "--input", "@annulus"),
    "annulus_trials": ("annulus", "--grid", "trials=1"),
}
_NUMPY = ["catenoid", "annulus_input", "annulus_trials"]
_SCALAR = [name for name in _RUNS if name not in _NUMPY]


@pytest.mark.parametrize(
    "args, code",
    [*((_RUNS[name], 0) for name in _SCALAR), (("threshold", "--input", "@bad_pair"), 3)],
    ids=[*_SCALAR, "threshold_exit_3"],
)
def test_command_never_loads_numpy(args, code):
    assert _loaded(args, code) == []


@pytest.mark.parametrize("args", list(_RUNS.values()), ids=list(_RUNS))
def test_command_never_loads_scipy(args):
    assert [m for m in _loaded(args) if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("args", [_RUNS[name] for name in _NUMPY], ids=_NUMPY)
def test_array_command_loads_numpy(args):
    assert "numpy" in _loaded(args)


@pytest.mark.parametrize("args", [("oval", "--input", "@oval")], ids=["oval"])
def test_solver_loads_scipy_linalg(args):
    assert "scipy.linalg" in _loaded(args)


def test_area_comparison_never_loads_scipy():
    assert _child_modules(_AREA_CHILD, []) == []


# every name the package exported when it imported each module eagerly
_EXPORTED = {
    "CANONICAL_SLAB", "CatenoidPiece", "ClosedCurve", "ConeTangency", "ConvergenceError",
    "DataInvalidError", "JacobiSpectrumResult", "LevelProfile", "MsSolution",
    "ResolutionError", "SampledAnnulus", "Slab", "SpanningResult", "WeierstrassData",
    "area_by_quadrature", "area_comparison", "area_in_slab", "boundary_length",
    "cat_ms", "catenoid_data", "convexity_check", "cpx_inequality_check",
    "dilation_jacobi_field", "f_omega", "immerse", "jacobi_nu1", "l_crit",
    "level_length", "level_profile", "lowest_eigenvalue", "lowest_jacobi_eigenvalue",
    "ms_piece_for_lower_length", "parameterize", "rayleigh_quotient",
    "reduce_to_canonical", "second_derivative_decomposition", "solve_lambda0",
    "spanning_catenoids", "tangent_cone_heights", "vertical_flux",
}


class TestExportTable:
    def test_names_are_the_exported_set(self):
        assert len(_EXPORTED) == 40
        assert set(catslab._MODULE_OF) == _EXPORTED == set(catslab.__all__)
        assert _EXPORTED <= set(dir(catslab))

    @pytest.mark.parametrize("name", sorted(_EXPORTED))
    def test_name_is_the_object_its_module_defines(self, name):
        module = importlib.import_module(f"catslab.{catslab._MODULE_OF[name]}")
        value = getattr(catslab, name)
        assert value is getattr(module, name)
        # defined there, not re-imported from elsewhere
        owner = value if callable(value) else type(value)
        assert owner.__module__ == module.__name__

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            catslab.not_a_name  # noqa: B018
        assert not hasattr(catslab, "TWO_PI")
