"""Command-line surface: deterministic JSON/CSV emission for every computation.

Exit codes: 0 success, 2 bad configuration (flags, tolerance/grid keys and
their bounds), 3 bad input data (missing/unparsable/invalid files, non-finite
numbers), 4 numerical non-convergence or a non-finite result (a residual dump
goes to stderr).  Stdout and the dump are strict JSON: no NaN or Infinity.

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
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import geometry, ovals, stability, thresholds, weierstrass
from .errors import ConvergenceError, DataInvalidError

_COMMANDS = ("catenoid", "lambda0", "ms", "threshold", "annulus", "oval")

# permitted --tol keys per command
_TOL_KEYS = {
    "catenoid": {"area_rtol"},
    "lambda0": set(),
    "ms": set(),
    "threshold": {"tangential_rtol"},
    "annulus": {"quadrature_rtol", "period_rtol"},
    "oval": {"rtol"},
}
# (minimum, maximum) per --grid key; at the maxima the largest run peaks near
# 400 MiB (annulus levels x n_theta, catenoid n_height x n_theta)
_GRID_BOUNDS = {
    "catenoid": {"n_height": (2, 512), "n_theta": (4, 4096)},
    "lambda0": {},
    "ms": {"mesh": (16, 1 << 20)},
    "threshold": {"mesh": (16, 1 << 20)},
    "annulus": {"levels": (5, 513), "n_theta": (8, 2048), "trials": (1, 10_000)},
    "oval": {"n": (64, 1 << 16)},
}
_SWEEP_MAX_ROWS = 100_000


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    format: str = "json"
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    sweep: tuple[float, float, int] | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for key, value in self.tolerances.items():
            if key not in _TOL_KEYS[self.command]:
                raise ValueError(f"unknown tolerance key {key!r} for {self.command}")
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"tolerance {key} must be positive, got {value}")
        for key, value in self.grid.items():
            bounds = _GRID_BOUNDS[self.command]
            if key not in bounds:
                raise ValueError(f"unknown grid key {key!r} for {self.command}")
            lo, hi = bounds[key]
            if not lo <= value <= hi:
                raise ValueError(f"grid {key} must be in [{lo}, {hi}], got {value}")


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _round15(obj):
    """Recursively re-round floats to 15 significant digits for emission."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, bool) or isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, np.floating):
        return _round15(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round15(obj.tolist())
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


def _load_input(config: RunConfig, required: bool = True) -> dict | None:
    if config.input_path is None:
        if required:
            raise DataInvalidError(f"command {config.command} requires --input")
        return None
    try:
        with open(config.input_path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataInvalidError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataInvalidError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataInvalidError("input must be a JSON object")
    return doc


def _parse_slab(doc: dict, default=(-1.0, 1.0)) -> geometry.Slab:
    raw = doc.get("slab", list(default))
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
# command handlers: each returns (payload, csv_rows or None)
# ---------------------------------------------------------------------------


def _run_lambda0(config: RunConfig):
    lam0 = geometry.solve_lambda0()
    res_sinh = abs(2.0 * lam0 / (1.0 - lam0 * lam0) - math.sinh(2.0 / lam0))
    res_tanh = abs(math.tanh(1.0 / lam0) - lam0)
    payload = {
        "lambda0": lam0,
        "residuals": {"sinh_relation": res_sinh, "tanh_relation": res_tanh},
        "tolerances": {"sinh_relation": 1e-12, "tanh_relation": 1e-10},
    }
    return payload, None


def _run_catenoid(config: RunConfig):
    doc = _load_input(config)
    _require_keys(doc, {"scale", "offset", "slab"}, "catenoid input")
    try:
        piece = geometry.CatenoidPiece(
            float(doc["scale"]), float(doc.get("offset", 0.0)), _parse_slab(doc)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad catenoid input: {exc}") from exc
    area_rtol = config.tolerances.get("area_rtol", 1e-8)
    n_height = config.grid.get("n_height", 64)
    n_theta = config.grid.get("n_theta", 256)
    area = geometry.area_in_slab(piece)
    if not math.isfinite(area):  # cosh((h - offset) / scale) overflows on the slab
        raise ConvergenceError(
            "closed-form area overflows", {"scale": piece.scale, "offset": piece.offset}
        )
    area_quad = geometry.area_by_quadrature(piece, n_height, n_theta)
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
        "grid": {"n_height": n_height, "n_theta": n_theta},
    }
    return payload, None


def _run_ms(config: RunConfig):
    doc = _load_input(config)
    _require_keys(doc, {"apex_height"}, "ms input")
    try:
        apex = float(doc["apex_height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataInvalidError(f"bad ms input: {exc}") from exc
    mesh = config.grid.get("mesh", 4096)
    ct = stability.tangent_cone_heights(apex)
    piece = stability.cat_ms(apex)
    spectrum = stability.lowest_jacobi_eigenvalue(piece, mesh=mesh)
    res_plus = abs(ct.t_plus - 1.0 / math.tanh(ct.t_plus) - apex)
    res_minus = abs(ct.t_minus - 1.0 / math.tanh(ct.t_minus) - apex)
    payload = {
        "apex_height": apex,
        "t_plus": ct.t_plus,
        "t_minus": ct.t_minus,
        "slab": [ct.t_minus, ct.t_plus],
        "mu1": spectrum.lowest_eigenvalue,
        "mesh": mesh,
        "residuals": {
            "tangency_plus": res_plus,
            "tangency_minus": res_minus,
            "eigenfunction_endpoint": abs(float(spectrum.eigenfunction_samples[-1])),
        },
        "tolerances": {"tangency": 1e-10},
    }
    return payload, None


def _run_threshold(config: RunConfig):
    mesh = config.grid.get("mesh", 1024)
    tangential_rtol = config.tolerances.get("tangential_rtol", 1e-6)
    if config.sweep is not None:
        doc = _load_input(config, required=False) or {}
        _require_keys(doc, {"slab"}, "threshold input")
        slab = _parse_slab(doc)
        lo, hi, count = config.sweep
        rows = []
        for L in np.linspace(lo, hi, count):
            ms = thresholds.ms_piece_for_lower_length(float(L), slab)
            unit = ms.unit_piece()
            mu1 = stability.lowest_jacobi_eigenvalue(unit, mesh=mesh).lowest_eigenvalue
            rows.append(
                {
                    "L_minus": float(L),
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
            "grid": {"mesh": mesh},
            "tolerances": {"marginality": 1e-4},
        }
        return payload, rows

    doc = _load_input(config)
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
    payload = {
        "lower_length": lower,
        "upper_length": upper,
        "slab": [slab.h_minus, slab.h_plus],
        "count": len(result),
        "tangential": result.tangential,
        "threshold_upper": result.threshold_upper,
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


def _run_annulus(config: RunConfig):
    levels = config.grid.get("levels", 33)
    n_theta = config.grid.get("n_theta", 512)
    quadrature_rtol = config.tolerances.get("quadrature_rtol", 1e-8)
    period_rtol = config.tolerances.get("period_rtol", 1e-8)

    if "trials" in config.grid:
        rng = np.random.default_rng(config.seed)
        rows = []
        for trial in range(config.grid["trials"]):
            data = weierstrass.random_annulus_data(rng)
            profile = weierstrass.level_profile(
                data, levels, n_theta=n_theta, quadrature_rtol=quadrature_rtol
            )
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
            "seed": config.seed,
            "trials": config.grid["trials"],
            "table": rows,
            "summary": {"worst_min_slack": min(r["min_slack"] for r in rows)},
            "tolerances": {"slack_floor": -1e-7},
        }
        return payload, rows

    doc = _load_input(config)
    data = weierstrass.from_json(json.dumps(doc))
    val = weierstrass.validate(data, period_rtol=period_rtol)
    profile = weierstrass.level_profile(
        data, levels, n_theta=n_theta, quadrature_rtol=quadrature_rtol
    )
    report = weierstrass.convexity_check(profile)
    rows = [
        {
            "t": float(profile.log_radii[i]),
            "height": float(profile.heights[i]),
            "length": float(profile.lengths[i]),
            "second_derivative": (
                float(profile.second_derivative[i])
                if np.isfinite(profile.second_derivative[i])
                else ""
            ),
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
            "period_rtol": period_rtol,
        },
        "grid": {"levels": levels, "n_theta": n_theta},
    }
    return payload, rows


def _run_oval(config: RunConfig):
    doc = _load_input(config)
    _require_keys(doc, {"points", "ellipse", "circle", "n"}, "oval input")
    n = doc.get("n", config.grid.get("n", 256))
    n_max = _GRID_BOUNDS["oval"]["n"][1]
    if not (isinstance(n, (int, float)) and float(n).is_integer() and n <= n_max):
        raise DataInvalidError(f"'n' must be a whole number <= {n_max}, got {n!r}")
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
    rtol = config.tolerances.get("rtol", 1e-8)
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


_HANDLERS = {
    "lambda0": _run_lambda0,
    "catenoid": _run_catenoid,
    "ms": _run_ms,
    "threshold": _run_threshold,
    "annulus": _run_annulus,
    "oval": _run_oval,
}


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
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", dest="input_path")
        p.add_argument("--output", dest="output_path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", action="append", metavar="KEY=VAL")
        p.add_argument("--grid", action="append", metavar="KEY=VAL")
        p.add_argument("--sweep", metavar="A:B:N")
    ns = parser.parse_args(argv)
    return RunConfig(
        command=ns.command,
        input_path=ns.input_path,
        output_path=ns.output_path,
        format=ns.format,
        seed=ns.seed,
        tolerances=_parse_keyval(ns.tol, float, "--tol"),
        grid=_parse_keyval(ns.grid, int, "--grid"),
        sweep=_parse_sweep(ns.sweep) if ns.sweep else None,
    )


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    try:
        payload, rows = _HANDLERS[config.command](config)
        text = _render(payload, rows, config.format)
    except ConvergenceError as exc:
        dump = {"error": str(exc), "residuals": _strict(_round15(exc.residuals))}
        print(json.dumps(dump, sort_keys=True, allow_nan=False), file=sys.stderr)
        return 4
    except (DataInvalidError, ValueError) as exc:
        print(f"error: bad input data: {exc}", file=sys.stderr)
        return 3

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
