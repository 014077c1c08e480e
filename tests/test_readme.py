"""The README's library example runs as printed.

The ```python block under "## Library example" runs in a fresh interpreter
with ``src`` on the path; it must exit 0 with empty stderr, and the printed
lines whose comments state a value must show it.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _library_example() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    code = _library_example()
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = dict(zip(prints, proc.stdout.splitlines(), strict=True))
    (nu1,) = (value for line, value in printed.items() if "jacobi_nu1" in line)
    assert float(nu1) <= 1e-12
    (flag,) = (value for line, value in printed.items() if "equality_flag" in line)
    assert flag == "True"
