"""Command-line surface: deterministic JSON/CSV emission for every computation.

Each command runs one mode, a row of _KNOBS: ``threshold`` a pair document or
a --sweep, ``annulus`` a Weierstrass document or --grid trials=N random data.
A mode reads every flag and key of its row and refuses any other.

Exit codes: 0 success, 2 bad configuration (flags, tolerance/grid keys and
their bounds), 3 bad input data (missing/unparsable/invalid files, a document
value that is not a finite number), 4 numerical non-convergence, a failed
linear-algebra routine, a floating-point overflow or a non-finite result (a
residual dump goes to stderr), 5 out of memory.  Stdout and the stderr dumps
are strict JSON: no NaN or Infinity.

Numbers are emitted with 15 significant digits; output for a fixed
configuration and seed is byte-identical.  JSON is the canonical format and
CSV a projection ('.' decimal, ',' separator, mandatory header row).  When
--output is omitted, results go to stdout unless the CATSLAB_OUTPUT_DIR
environment variable names a default output directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

# the scalar modes need neither numpy nor the array modules, which the
# annulus and oval handlers import when they run
from . import geometry, stability, thresholds
from .errors import ConvergenceError, DataInvalidError, check_numbers

_SWEEP_MAX_ROWS = 100_000
_OVAL_N = (256, 1 << 16)  # an oval document's "n": default and maximum


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    format: str = "json"
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    sweep: tuple[float, float, int] | None = None
    mode: str = field(init=False)

    def __post_init__(self):
        if self.command not in _KNOBS or " " in self.command:  # "threshold --sweep" is a mode
            raise ValueError(f"unknown command {self.command!r}")
        self.mode = self.command  # the _KNOBS row; --sweep and --grid trials select one
        if self.command == "threshold" and self.sweep is not None:
            self.mode = "threshold --sweep"
        elif self.command == "annulus" and "trials" in self.grid:
            self.mode = "annulus trials"
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        row = _KNOBS[self.mode]
        for flag, settings in _FLAGS.items():
            if getattr(self, settings["dest"]) is not None and flag not in row["flags"]:
                raise ValueError(f"{self.mode} takes no {flag}")
        for kind, given in (("tol", self.tolerances), ("grid", self.grid)):
            for key, value in given.items():
                if key not in row[kind]:
                    raise ValueError(f"unknown {kind} key {key!r} for {self.mode}")
                _, lo, hi = row[kind][key]
                if not lo <= value <= hi:
                    raise ValueError(f"{kind} {key} must be in [{lo}, {hi}], got {value}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _round15(obj):
    """Recursively re-round floats to 15 significant digits for emission."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, (int, str)) or obj is None:  # bool is an int
        return obj
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    raise TypeError(f"cannot emit value of type {type(obj)}")


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            out[name] = json.dumps(value)
        else:
            out[name] = value
    return out


def _strict(obj):
    """Non-finite floats as strings ("inf", "nan"), so a dump stays strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return obj


def _render(payload: dict, rows: list | None, fmt: str) -> str:
    payload = _round15(payload)
    # the payload holds every CSV row too, so this refuses NaN/inf in both formats
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConvergenceError("result is not finite", payload) from exc
    if fmt == "json":
        return text
    records = [_flatten(_round15(r)) for r in rows] if rows else [_flatten(payload)]
    header: list[str] = []
    for rec in records:
        for key in rec:
            if key not in header:
                header.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: rec.get(k, "") for k in header})
    return buf.getvalue()


def _write_atomic(path: str, text: str):
    import tempfile  # it loads random and shutil, which no other path needs

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catslab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _load_input(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataInvalidError(f"cannot read input: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise DataInvalidError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataInvalidError("input must be a JSON object")
    check_numbers(doc, "input", finite=True)  # every document value is a number
    return doc


def _parse_slab(doc: dict) -> geometry.Slab:
    raw = doc.get("slab", [-1.0, 1.0])
    try:
        lo, hi = (float(v) for v in raw)
        return geometry.Slab(lo, hi)
    except (TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad slab specification {raw!r}: {exc}") from exc


def _require_keys(doc: dict, allowed: set, context: str):
    unknown = set(doc) - allowed
    if unknown:
        raise DataInvalidError(f"unknown keys in {context}: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# mode handlers: each takes its _KNOBS row's flags positionally and its --tol
# and --grid keys by keyword, and returns (payload, csv_rows or None)
# ---------------------------------------------------------------------------


def _run_lambda0():
    lam0 = geometry.solve_lambda0()
    res_sinh = abs(2.0 * lam0 / (1.0 - lam0 * lam0) - math.sinh(2.0 / lam0))
    res_tanh = abs(math.tanh(1.0 / lam0) - lam0)
    payload = {
        "lambda0": lam0,
        "residuals": {"sinh_relation": res_sinh, "tanh_relation": res_tanh},
        "tolerances": {"sinh_relation": 1e-12, "tanh_relation": 1e-10},
    }
    return payload, None


def _run_catenoid(doc, *, area_rtol):
    _require_keys(doc, {"scale", "offset", "slab"}, "catenoid input")
    try:
        piece = geometry.CatenoidPiece(
            float(doc["scale"]), float(doc.get("offset", 0.0)), _parse_slab(doc)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad catenoid input: {exc}") from exc
    area = geometry.area_in_slab(piece)
    if not math.isfinite(area):  # cosh((h - offset) / scale) overflows on the slab
        raise ConvergenceError(
            "closed-form area overflows", {"scale": piece.scale, "offset": piece.offset}
        )
    area_quad = geometry.area_by_quadrature(piece)
    rel = abs(area - area_quad) / area
    if not (rel <= area_rtol):
        raise ConvergenceError(
            "area quadrature disagrees with the closed form",
            {"relative_residual": rel, "tolerance": area_rtol},
        )
    neck = min(max(piece.offset, piece.slab.h_minus), piece.slab.h_plus)
    payload = {
        "scale": piece.scale,
        "offset": piece.offset,
        "slab": [piece.slab.h_minus, piece.slab.h_plus],
        "area": area,
        "area_quadrature": area_quad,
        "boundary_length": geometry.boundary_length(piece),
        "level_length_min": geometry.level_length(piece, neck),
        "vertical_flux": geometry.vertical_flux(piece.scale),
        "residuals": {"area_rel": rel},
        "tolerances": {"area_rtol": area_rtol},
    }
    return payload, None


def _run_ms(doc):
    _require_keys(doc, {"apex_height"}, "ms input")
    try:
        apex = float(doc["apex_height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad ms input: {exc}") from exc
    piece = stability.cat_ms(apex)
    t_minus, t_plus = piece.slab.h_minus, piece.slab.h_plus
    # t - coth(t) - apex is evaluated to about eps * max(1, |apex|)
    apex_size = max(1.0, abs(apex))
    payload = {
        "apex_height": apex,
        "t_plus": t_plus,
        "t_minus": t_minus,
        "slab": [t_minus, t_plus],
        "mu1": stability.jacobi_nu1(piece),
        "residuals": {
            "tangency_plus": abs(t_plus - 1.0 / math.tanh(t_plus) - apex) / apex_size,
            "tangency_minus": abs(t_minus - 1.0 / math.tanh(t_minus) - apex) / apex_size,
        },
        "tolerances": {"tangency": 1e-10},
    }
    return payload, None


def _run_threshold(doc, *, tangential_rtol):
    _require_keys(doc, {"lower_length", "upper_length", "slab"}, "threshold input")
    try:
        lower = float(doc["lower_length"])
        upper = float(doc["upper_length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad threshold input: {exc}") from exc
    slab = _parse_slab(doc)
    result = thresholds.spanning_catenoids(
        lower, upper, slab, tangential_rtol=tangential_rtol
    )
    # F overflows a double below lower lengths of about 0.0176; its log does not
    finite = math.isfinite(result.threshold_upper)
    threshold = ({"threshold_upper": result.threshold_upper} if finite
                 else {"log_threshold_upper": result.log_threshold_upper})
    payload = {
        "lower_length": lower,
        "upper_length": upper,
        "slab": [slab.h_minus, slab.h_plus],
        "count": len(result),
        "tangential": result.tangential,
        **threshold,
        "l_crit": thresholds.l_crit(slab),
        "solutions": [
            {"scale": lam, "offset": c} for lam, c in result.parameters
        ],
        "residuals": {
            "max_solution_rel": max(result.residuals) if result.residuals else 0.0
        },
        "tolerances": {"tangential_rtol": tangential_rtol},
    }
    return payload, None


def _sweep_grid(lo: float, hi: float, count: int) -> list[float]:
    """``count`` values from lo to hi with numpy.linspace's arithmetic, bit
    for bit: lo + i*step with step = (hi - lo)/(count - 1), the last value
    hi itself, and (i/(count - 1))*(hi - lo) where the step underflows."""
    if count < 2:
        return [lo] * count
    div, delta = count - 1, hi - lo
    step = delta / div
    grid = [lo + (i * step if step else i / div * delta) for i in range(div)]
    return grid + [hi]


def _run_threshold_sweep(sweep, doc):
    _require_keys(doc, {"slab"}, "threshold input")
    slab = _parse_slab(doc)
    lo, hi, count = sweep
    rows = []
    for L in _sweep_grid(lo, hi, count):
        ms = thresholds.ms_piece_for_lower_length(L, slab)
        mu1 = stability.jacobi_nu1(ms.unit_piece())
        rows.append(
            {
                "L_minus": L,
                "F": ms.upper_length,
                "lambda": ms.scale,
                "offset": ms.offset,
                "mu1_residual": abs(mu1),
            }
        )
    payload = {
        "slab": [slab.h_minus, slab.h_plus],
        "sweep": {"start": lo, "stop": hi, "count": count},
        "l_crit": thresholds.l_crit(slab),
        "table": rows,
        "tolerances": {"marginality": 1e-4},
    }
    return payload, rows


def _run_annulus(doc, *, quadrature_rtol, levels):
    from . import weierstrass

    data = weierstrass.from_document(doc)
    val = weierstrass.validate(data)
    profile = weierstrass.level_profile(data, levels, quadrature_rtol=quadrature_rtol)
    report = weierstrass.convexity_check(profile)
    rows = [
        {
            "t": float(profile.log_radii[i]),
            "height": float(profile.heights[i]),
            "length": float(profile.lengths[i]),
            "second_derivative": float(profile.second_derivative[i]),
        }
        for i in range(profile.log_radii.size)
    ]
    payload = {
        "flux": list(val.flux_vector),
        "f3": val.f3,
        "mu": val.mu,
        "winding": val.winding,
        "min_modulus_g": val.min_modulus_g,
        "residuals": val.period_residuals,
        "profile": {"table": rows, "skipped_levels": profile.skipped},
        "convexity": {
            "min_slack": report.min_slack,
            "min_slack_geometric": report.min_slack_geometric,
            "max_abs_slack": report.max_abs_slack,
            "equality_flag": report.equality_flag,
        },
        "tolerances": {
            "quadrature_rtol": quadrature_rtol,
            "period_rtol": weierstrass.PERIOD_RTOL,
        },
        "grid": {"levels": levels, "n_theta": profile.n_theta},
    }
    return payload, rows


def _run_annulus_trials(seed, *, quadrature_rtol, levels, trials):
    import numpy as np

    from . import weierstrass

    rng = np.random.default_rng(seed)
    rows = []
    for trial in range(trials):
        data = weierstrass.random_annulus_data(rng)
        profile = weierstrass.level_profile(data, levels, quadrature_rtol=quadrature_rtol)
        report = weierstrass.convexity_check(profile)
        rows.append(
            {
                "trial": trial,
                "min_slack": report.min_slack,
                "min_slack_geometric": report.min_slack_geometric,
                "equality": int(report.equality_flag),
            }
        )
    payload = {
        "seed": seed,
        "trials": trials,
        "table": rows,
        "summary": {"worst_min_slack": min(r["min_slack"] for r in rows)},
        "tolerances": {"slack_floor": -1e-7},
    }
    return payload, rows


def _run_oval(doc, *, rtol):
    import numpy as np

    from . import ovals

    _require_keys(doc, {"points", "ellipse", "circle", "n"}, "oval input")
    if "points" in doc and "n" in doc:
        raise DataInvalidError("'n' samples an ellipse or a circle; 'points' take none")
    n = doc.get("n", _OVAL_N[0])
    if not (isinstance(n, (int, float)) and float(n).is_integer() and n <= _OVAL_N[1]):
        raise DataInvalidError(f"'n' must be a whole number <= {_OVAL_N[1]}, got {n!r}")
    n = int(n)
    try:
        if "points" in doc:
            curve = ovals.ClosedCurve(np.asarray(doc["points"], dtype=float))
        elif "ellipse" in doc:
            a, b = (float(v) for v in doc["ellipse"])
            curve = ovals.ClosedCurve.ellipse(a, b, n)
        elif "circle" in doc:
            (r,) = (float(v) for v in doc["circle"])
            curve = ovals.ClosedCurve.circle(r, n)
        else:
            raise DataInvalidError("oval input needs 'points', 'ellipse' or 'circle'")
    except (TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad curve input: {exc}") from exc
    spectrum = ovals.lowest_eigenvalue(curve, rtol=rtol)
    payload = {
        "length": spectrum.length,
        "lambda1": spectrum.lambda1,
        "functional": spectrum.functional,
        "n_used": spectrum.n_used,
        "below_conjectured_constant": spectrum.below_conjectured_constant,
        "tolerances": {"rtol": rtol, "proven_constant": 0.5},
    }
    return payload, None


# One row per mode: its handler; the flags it takes besides --output, --format,
# --tol and --grid, in the handler's positional order, each with the value
# the handler gets when it is not given (None: the flag is required); and its
# --tol and --grid keys, which the handler takes by keyword, each (default,
# minimum, maximum).  A tolerance may be any positive finite float.  The
# quadratures pick their own node counts up to fixed caps, so a run's peak
# RSS is largest for annulus at levels=513 on a document that needs 2048
# angles: 184 MiB (catenoid takes 34 MiB, lambda0 31 MiB), on Python 3.11,
# numpy 2.4, x86-64 Linux.
_POSITIVE = (math.ulp(0.0), sys.float_info.max)
_ANNULUS_TOL = {"quadrature_rtol": (1e-8, *_POSITIVE)}
_ANNULUS_GRID = {"levels": (33, 5, 513)}
_KNOBS = {
    "lambda0": {"run": _run_lambda0, "flags": {}, "tol": {}, "grid": {}},
    "catenoid": {"run": _run_catenoid, "flags": {"--input": None},
                 "tol": {"area_rtol": (1e-8, *_POSITIVE)}, "grid": {}},
    "ms": {"run": _run_ms, "flags": {"--input": None}, "tol": {}, "grid": {}},
    "threshold": {"run": _run_threshold, "flags": {"--input": None},
                  "tol": {"tangential_rtol": (1e-6, *_POSITIVE)}, "grid": {}},
    # without --input the sweep is over the unit slab [-1, 1]
    "threshold --sweep": {"run": _run_threshold_sweep, "flags": {"--sweep": None, "--input": {}},
                          "tol": {}, "grid": {}},
    "annulus": {"run": _run_annulus, "flags": {"--input": None},
                "tol": _ANNULUS_TOL, "grid": _ANNULUS_GRID},
    # giving trials selects this mode, so its default is never read
    "annulus trials": {"run": _run_annulus_trials, "flags": {"--seed": 0},
                       "tol": _ANNULUS_TOL, "grid": {**_ANNULUS_GRID, "trials": (1, 1, 10_000)}},
    "oval": {"run": _run_oval, "flags": {"--input": None},
             "tol": {"rtol": (1e-8, *_POSITIVE)}, "grid": {}},
}
# argparse settings of the flags that only some modes take (dest: RunConfig field)
_FLAGS = {"--input": {"dest": "input_path"}, "--seed": {"dest": "seed", "type": int},
          "--sweep": {"dest": "sweep", "metavar": "A:B:N"}}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _parse_keyval(pairs, cast, what):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"{what} must look like KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = cast(value)
        except ValueError as exc:
            raise ValueError(f"bad {what} value in {pair!r}: {exc}") from exc
    return out


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--sweep must be A:B:N, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (2 <= count <= _SWEEP_MAX_ROWS and 0 < lo < hi < math.inf):
        raise ValueError(
            f"--sweep needs 0 < A < B < inf and 2 <= N <= {_SWEEP_MAX_ROWS}, got {text!r}"
        )
    return lo, hi, count


def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="catslab",
        description="catenoid-in-slab geometry, stability thresholds, minimal "
        "annuli from Weierstrass data, and the closed-curve curvature "
        "eigenvalue functional",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags_of: dict[str, dict] = {}  # per command: the flags of all its modes
    for mode, row in _KNOBS.items():
        flags_of.setdefault(mode.split()[0], {}).update(row["flags"])
    for command, flags in flags_of.items():
        p = sub.add_parser(command)
        p.add_argument("--output", dest="output_path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", action="append", metavar="KEY=VAL")
        p.add_argument("--grid", action="append", metavar="KEY=VAL")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    ns = vars(parser.parse_args(argv))
    return RunConfig(
        command=ns["command"],
        input_path=ns.get("input_path"),
        output_path=ns["output_path"],
        format=ns["format"],
        seed=ns.get("seed"),
        tolerances=_parse_keyval(ns["tol"], float, "--tol"),
        grid=_parse_keyval(ns["grid"], int, "--grid"),
        sweep=_parse_sweep(ns["sweep"]) if ns.get("sweep") is not None else None,
    )


def _arguments(config: RunConfig) -> tuple[list, dict]:
    """The mode handler's arguments: each flag of its row, given or defaulted
    (--input as the document it names), and each --tol and --grid key."""
    row = _KNOBS[config.mode]
    args = []
    for flag, default in row["flags"].items():
        value = getattr(config, _FLAGS[flag]["dest"])
        if value is None and default is None:
            raise DataInvalidError(f"{config.mode} requires {flag}")
        if flag == "--input" and value is not None:
            value = _load_input(value)
        args.append(default if value is None else value)
    knobs = {key: config.tolerances.get(key, spec[0]) for key, spec in row["tol"].items()}
    knobs.update({key: config.grid.get(key, spec[0]) for key, spec in row["grid"].items()})
    return args, knobs


def _linalg_errors() -> tuple:
    """numpy's LinAlgError where numpy is loaded: only then can it be raised.
    It subclasses ValueError, so it is caught before the exit-3 clause."""
    numpy = sys.modules.get("numpy")
    return () if numpy is None else (numpy.linalg.LinAlgError,)


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        args, knobs = _arguments(config)
        payload, rows = _KNOBS[config.mode]["run"](*args, **knobs)
        text = _render(payload, rows, config.format)
    except (ConvergenceError, *_linalg_errors()) as exc:
        residuals = _strict(_round15(getattr(exc, "residuals", {})))
        dump = {"error": str(exc), "residuals": residuals}
        print(json.dumps(dump, sort_keys=True, allow_nan=False), file=sys.stderr)
        return 4
    except (DataInvalidError, ValueError) as exc:
        print(f"error: bad input data: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(json.dumps({"error": f"out of memory: {exc}"}), file=sys.stderr)
        return 5

    out_path = config.output_path
    if out_path is None:
        default_dir = os.environ.get("CATSLAB_OUTPUT_DIR")
        if default_dir:
            out_path = os.path.join(default_dir, f"{config.command}.{config.format}")
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out_path, text)
    return 0


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse reports its own message
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
