"""Spans around calls into catslab's public functions, installed from outside.

``Tracer.install()`` wraps every public module-level function of the traced
modules and rebinds the wrapper at every binding site in the loaded
``catslab`` modules: the defining module, names re-imported by other modules
(``thresholds`` imports ``tangent_cone_heights``, ``geometry`` and
``stability`` import ``bracketed_root``) and the package ``__init__``.  Each
call appends a span (name, start, end, parent index, op id, failed) to an
in-memory list; ``aggregate()`` turns the span tree into calls, total and self
time per name.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "rootfind", "stability", "thresholds", "weierstrass", "ovals", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        special = _SPECIAL.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if special is not None:
                span_name, args, kwargs = special(tracer, args, kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, tracer.op_id, failed)
            if span_name == "ovals.lowest_eigenvalue":
                counters["ovals.lowest_eigenvalue.n_used_sum"] += result.n_used
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap the public functions of every layer at all their binding sites."""
        importlib.import_module("catslab")
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"catslab.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "catslab" or mod_name.startswith("catslab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- reduction --------------------------------------------------------

    def aggregate(self) -> dict:
        """{name: [calls, total_s, self_s, failed_out_of_layer]} from the spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent, _, failed) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
            if failed:
                layer = name.split(".", 1)[0]
                parent_layer = spans[parent][0].split(".", 1)[0] if parent >= 0 else None
                if parent_layer != layer:
                    row[3] += 1
        return out


def _jacobi(tracer, args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "shooting")
    return f"stability.lowest_jacobi_eigenvalue.{method}", args, kwargs


def _bracketed_root(tracer, args, kwargs):
    counters = tracer.counters
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        counters["rootfind.bracketed_root.f_evals"] += 1
        return f(x)

    return "rootfind.bracketed_root", (counted,) + tuple(args[1:]), kwargs


def _resample(tracer, args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    tracer.counters["ovals.resample_arclength.points"] += n if n is not None else len(args[0])
    return "ovals.resample_arclength", args, kwargs


_SPECIAL = {
    "stability.lowest_jacobi_eigenvalue": _jacobi,
    "rootfind.bracketed_root": _bracketed_root,
    "ovals.resample_arclength": _resample,
}


def merge(into: dict, other: dict):
    """Add one aggregate (as from ``Tracer.aggregate``) into another."""
    for name, row in other.items():
        mine = into.setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(row):
            mine[i] += value
