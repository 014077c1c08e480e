"""Machine and static facts recorded beside every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess
import sys
import time

MODULES = ("geometry", "rootfind", "stability", "thresholds", "weierstrass", "ovals", "cli")

# Workers and CLI children run with one BLAS/OpenMP thread: with the default
# two OpenBLAS threads on a 2-core machine the dense oval eigensolve varied
# 339-561 ms per call against 230-257 ms single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def blas_facts() -> dict:
    """BLAS build info of numpy and the live thread count of every loaded
    OpenBLAS (call from a process that has imported numpy and scipy.linalg)."""
    import numpy as np

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {
        "numpy_blas": f"{build.get('name')} {build.get('version')}",
        "loaded_openblas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def src_lines(root: str) -> dict:
    out = {}
    for module in MODULES:
        with open(os.path.join(root, "src", "catslab", f"{module}.py")) as handle:
            out[module] = sum(1 for _ in handle)
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of ``catslab``, of all scipy imports not nested in
    another scipy import, and of every direct child of ``catslab``."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(2)) * 1e-6, len(m.group(3)) // 2, m.group(4)))
    out = {"catslab_s": 0.0, "scipy_s": 0.0, "children": {}}
    stack: list[str] = []
    # children precede their parent, one indentation level deeper: walk
    # backwards so every entry sees its ancestors on the stack
    for cumulative, depth, name in reversed(rows):
        del stack[depth:]
        ancestors = stack[:depth]
        if name == "catslab" and not ancestors:
            out["catslab_s"] = cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            out["scipy_s"] += cumulative
        if ancestors == ["catslab"]:
            out["children"][name] = cumulative
        stack.append(name)
    return out


def importtime(root: str, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import catslab"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import catslab failed: {proc.stderr[-500:]}")
    return parse_importtime(proc.stderr)


def tier1_wall(root: str, env: dict, timeout: float = 120.0) -> dict:
    """Wall time of the repository's Tier-1 suite (ROADMAP command)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"wall_s": None, "summary": f"timed out after {timeout} s"}
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": tail[0]}
