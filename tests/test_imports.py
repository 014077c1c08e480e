"""scipy stays off the start-up path.

Only the oval solve imports ``scipy.linalg``, at its first call, so every other
command starts without it: ``ms`` and ``threshold --sweep`` check their marginal
pieces in closed form, and the Weierstrass area comparison finds its neck
without scipy.  The pytest process has scipy loaded already, so each check runs
in a fresh interpreter.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import catslab
from catslab import weierstrass as wz

SRC = pathlib.Path(catslab.__file__).resolve().parents[1]

_CHILD = """
import contextlib, io, json, sys
import catslab, catslab.cli
args = json.loads(sys.argv[1])
if args:
    with contextlib.redirect_stdout(io.StringIO()):
        assert catslab.cli.main(args) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_INPUTS = {
    "catenoid": {"scale": 1.0, "offset": 0.0},
    "pair": {"lower_length": 11.4, "upper_length": 11.4},
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


def _child_scipy_modules(code: str, argv: list) -> list[str]:
    """Names of the scipy modules a fresh interpreter has loaded after ``code``."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _scipy_modules(args, tmp_path) -> list[str]:
    """Names of the scipy modules loaded after ``catslab.cli.main(args)``;
    ``@name`` in args stands for a file holding ``_INPUTS[name]``."""
    argv = []
    for arg in args:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(_INPUTS[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return _child_scipy_modules(_CHILD, argv)


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["lambda0"],
        ["catenoid", "--input", "@catenoid"],
        ["threshold", "--input", "@pair"],
        ["annulus", "--input", "@annulus"],
        ["annulus", "--grid", "trials=1"],
        ["ms", "--input", "@ms"],
        ["threshold", "--sweep", "1:2:2"],
    ],
    ids=["import", "lambda0", "catenoid", "threshold_pair", "annulus_input", "annulus_trials",
         "ms", "threshold_sweep"],
)
def test_command_never_loads_scipy(args, tmp_path):
    assert _scipy_modules(args, tmp_path) == []


@pytest.mark.parametrize("args", [["oval", "--input", "@oval"]], ids=["oval"])
def test_solver_loads_scipy_linalg(args, tmp_path):
    assert "scipy.linalg" in _scipy_modules(args, tmp_path)


def test_area_comparison_never_loads_scipy():
    assert _child_scipy_modules(_AREA_CHILD, []) == []
