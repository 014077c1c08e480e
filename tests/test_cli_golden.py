"""Byte-for-byte CLI stdout against recorded golden files.

Every exit-0 configuration of ``test_cli.py``, the two threshold sweeps and the
CSV projections of the nested lambda0 and catenoid payloads are run in-process
and their stdout compared with ``tests/golden/<name>.<format>``.
The oval solver's factorizations, solves and products run through BLAS, whose
last bits depend on its thread count: the three oval goldens print the same
under one and two OpenBLAS threads, but 24 of 300 oval_corpus inputs print a
different lambda1 (142 differ at full precision).  So the oval cases run in a
child process with one BLAS thread.  A change that moves a digit must say
which and why, then re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from catslab import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(cli.__file__).resolve().parents[1]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_CATENOID = {"version": 1, "g": [[1, 1.0, 0.0]], "h": [[-1, 1.0, 0.0]],
             "r_inner": 1 / math.e, "r_outer": math.e}
_U = 2 * np.pi * np.arange(64) / 64
_CIRCLE_POINTS = np.stack([2 * np.cos(_U), 2 * np.sin(_U), np.zeros(64)], axis=1).tolist()

# name -> (arguments, input document or None)
CASES = {
    "lambda0": (["lambda0"], None),
    "lambda0_csv": (["lambda0", "--format", "csv"], None),
    "catenoid_unit": (["catenoid"], {"scale": 1.0, "offset": 0.0, "slab": [-1, 1]}),
    "catenoid_unit_csv": (
        ["catenoid", "--format", "csv"], {"scale": 1.0, "offset": 0.0, "slab": [-1, 1]}
    ),
    "ms_low_apex": (["ms"], {"apex_height": -11.0}),
    "threshold_spanning": (
        ["threshold"], {"lower_length": 11.4, "upper_length": 11.4, "slab": [-1, 1]}
    ),
    "threshold_sweep_0.5_50_5": (
        ["threshold", "--sweep", "0.5:50:5", "--format", "csv"], None
    ),
    "threshold_sweep_1_20_4": (["threshold", "--sweep", "1:20:4"], None),
    "threshold_sweep_1_20_4_csv": (
        ["threshold", "--sweep", "1:20:4", "--format", "csv"], None
    ),
    "annulus_catenoid": (["annulus"], _CATENOID),
    "annulus_catenoid_levels9": (
        ["annulus", "--format", "csv", "--grid", "levels=9"], _CATENOID
    ),
    "annulus_trials2_seed5": (["annulus", "--grid", "trials=2", "--seed", "5"], None),
    "annulus_trials2_seed6": (["annulus", "--grid", "trials=2", "--seed", "6"], None),
    "oval_ellipse": (["oval"], {"ellipse": [2, 1], "n": 256}),
    "oval_points": (["oval"], {"points": _CIRCLE_POINTS}),
    "oval_circle": (["oval"], {"circle": [1]}),
}


def _golden_path(name: str) -> pathlib.Path:
    args = CASES[name][0]
    return GOLDEN / f"{name}.{'csv' if 'csv' in args else 'json'}"


def _stdout(name: str, tmp_dir: pathlib.Path) -> str:
    args, doc = CASES[name]
    if doc is not None:
        path = tmp_dir / f"{name}.input.json"
        path.write_text(json.dumps(doc))
        args = [args[0], "--input", str(path)] + args[1:]
    if args[0] == "oval":
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "catslab.cli", *args],
            env={**os.environ, **ONE_THREAD, "PYTHONPATH": pythonpath},
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CATSLAB_OUTPUT_DIR", raising=False)
    assert _stdout(name, tmp_path) == _golden_path(name).read_text()


def test_in_process_blas_runs_one_thread(tmp_path):
    # conftest.py pins one BLAS thread before numpy loads; the last bits of
    # lambda1 depend on the thread count on most curves (not on this one)
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps(CASES["oval_ellipse"][1]))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["oval", "--input", str(path)]) == 0
    assert json.loads(buf.getvalue())["lambda1"] == 0.421241717761226


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("CATSLAB_OUTPUT_DIR", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _golden_path(case).write_text(_stdout(case, pathlib.Path(tmp)))
            print(f"recorded {_golden_path(case).name}")
