"""catslab benchmark: one seeded command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (it needs ``src/catslab``).  ``--trace 0``
launches fresh worker processes: three only measure set-up (interpreter start,
``import catslab`` and one warm-up op), the fourth also runs seeded ops in a
closed loop for ``--seconds``, then runs the workload's known-defect probes
untimed.  It prints the end-to-end metrics.  ``--trace
1`` runs a fixed list of seeded ops untraced and then traced, and prints the
per-layer metrics, the tracing overhead, and Tier-1 wall time as a fact.

An op fails when it raises, exits non-zero, prints anything but strict JSON
or fails its output check.  ``attempted`` and ``failed`` count the timed ops,
whose inputs keep clear of ``workloads.KNOWN_DEFECTS``; ``correct`` is false
when one of them returns a wrong answer (as opposed to a documented error or
exit code 2/3/4).  The probes' outcomes are reported in the record only.

The second-to-last stdout line is the full record (facts, failure tally with
reasons, fail_frac, op counts, tail percentile, known-defect probes); the last
line is the result object.  Both are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import facts  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, describe  # noqa: E402

SETUP_LAUNCHES = 4  # fresh interpreters per run; set-up is their median
WORKER_TIMEOUT = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_TIMED = {
    "stability": ("lowest_jacobi_eigenvalue.shooting", "lowest_jacobi_eigenvalue.fd",
                  "tangent_cone_heights"),
    "thresholds": ("ms_piece_for_lower_length", "spanning_catenoids"),
    "rootfind": ("bracketed_root",),
    "geometry": ("area_in_slab", "area_by_quadrature"),
    "weierstrass": ("random_annulus_data", "validate", "level_profile",
                    "vertical_annulus_data", "immerse",
                    "second_derivative_decomposition", "area_comparison"),
    "ovals": ("resample_arclength", "lowest_eigenvalue"),
}
CLI_COMMANDS = ("lambda0", "catenoid", "ms", "threshold", "annulus", "oval")


def _per_layer_spec() -> dict:
    """Per-layer metric name -> (unit, better)."""
    spec = {
        "import.catslab_s": ("s", "lower"),
        "import.scipy_s": ("s", "lower"),
        "cli.startup_s": ("s", "lower"),
    }
    for command in CLI_COMMANDS:
        spec[f"cli.{command}.wall_s"] = ("s", "lower")
    for module, functions in _TIMED.items():
        for function in functions:
            spec[f"{module}.{function}.calls"] = ("count", "lower")
            spec[f"{module}.{function}.self_s"] = ("s", "lower")
    spec["stability.failed"] = ("count", "lower")
    spec["rootfind.bracketed_root.f_evals"] = ("count", "lower")
    spec["ovals.resample_arclength.points"] = ("count", "lower")
    spec["ovals.lowest_eigenvalue.n_used_sum"] = ("count", "lower")
    spec["ovals.lowest_eigenvalue.failed"] = ("count", "lower")
    for module in facts.MODULES:
        spec[f"{module}.src_lines"] = ("lines", "lower")
    spec["trace.untraced_ops_per_s"] = ("1/s", "higher")
    spec["trace.traced_ops_per_s"] = ("1/s", "higher")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    return spec


PER_LAYER = _per_layer_spec()


class BenchError(RuntimeError):
    pass


def _environment(root: str, tmpdir: str) -> dict:
    env = dict(os.environ)
    env.update(facts.THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = tmpdir  # keeps every temporary file inside the checkout
    env.pop("CATSLAB_OUTPUT_DIR", None)  # CLI results must go to stdout
    return env


def launch(root, env, tmpdir, workload, seed, seconds, mode, spans=os.devnull):
    """Start one worker; returns (launch-to-READY seconds, result or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, "--tmpdir", tmpdir, "--spans", spans,
    ]
    err_path = os.path.join(tmpdir, f"worker-{mode}.err")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        # own session, so a timeout also ends the worker's CLI children
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err, text=True,
            start_new_session=True,
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    if ready.strip() != "READY" or proc.returncode != 0:
        with open(err_path) as err:
            raise BenchError(f"worker failed (exit {proc.returncode}): {err.read()[-2000:]}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def summarize(ops: list) -> dict:
    """End-to-end figures of one list of op records (seconds, status, reason,
    known defect, command)."""
    times = sorted(op[0] for op in ops)
    n = len(times)
    passed = sum(op[1] == "pass" for op in ops)
    beyond = min(10, n - 1)
    rank = n - beyond  # the tail value has ``beyond`` ops above it
    by_kind: dict[str, list] = {}
    for op in ops:
        by_kind.setdefault(op[4], []).append(op[0])
    return {
        "attempted": n,
        "passed": passed,
        "failed": n - passed,
        "fail_frac": (n - passed) / n,
        "op_seconds_sum": sum(times),
        "ops_per_s": passed / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "ops_beyond_tail": beyond,
        "failures": dict(Counter(
            f"{op[1]} {op[4]}{f' [known defect {op[3]}]' if op[3] else ''}: {op[2]}"
            for op in ops if op[1] != "pass"
        )),
        "unexpected_wrong": sum(op[1] == "wrong" and op[3] is None for op in ops),
        "by_kind": {
            kind: {"ops": len(t), "median_s": statistics.median(t), "sum_s": sum(t)}
            for kind, t in sorted(by_kind.items())
        },
    }


def measured_run(root, env, tmpdir, workload, seed, seconds):
    setups = [launch(root, env, tmpdir, workload, seed, seconds, "setup")[0]
              for _ in range(SETUP_LAUNCHES - 1)]
    setup, result = launch(root, env, tmpdir, workload, seed, seconds, "measure")
    setups.append(setup)
    summary = summarize(result["ops"])
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mib"],
    }
    probes = [
        {"defect": op[3], "command": op[4], "status": op[1], "reason": op[2], "seconds": op[0]}
        for op in result["probes"]
    ]
    record = {
        "summary": summary,
        "known_defect_probes": probes,
        "known_defects_failing": sum(p["status"] != "pass" for p in probes),
        "setup_samples_s": setups,
        "blas": result["blas"],
        "importtime": facts.importtime(root, env),
    }
    return metrics, record, summary


def per_layer_metrics(result: dict, imports: list, root: str) -> dict:
    """Per-layer metrics from a worker's trace result and -X importtime runs."""
    agg, counters = result["aggregate"], result["counters"]
    startup = result["cli_startup_s"]
    metrics = {
        "import.catslab_s": statistics.median(i["catslab_s"] for i in imports),
        "import.scipy_s": statistics.median(i["scipy_s"] for i in imports),
        "cli.startup_s": statistics.median(startup) if startup else 0.0,
    }
    for command in CLI_COMMANDS:
        walls = [op[0] for op in result["untraced"] if op[4] == command]
        metrics[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    for module, functions in _TIMED.items():
        for function in functions:
            calls, _, self_s, _ = agg.get(f"{module}.{function}", (0, 0.0, 0.0, 0))
            metrics[f"{module}.{function}.calls"] = calls
            metrics[f"{module}.{function}.self_s"] = self_s
    metrics["stability.failed"] = sum(r[3] for name, r in agg.items() if name.startswith("stability."))
    for name in ("rootfind.bracketed_root.f_evals", "ovals.resample_arclength.points",
                 "ovals.lowest_eigenvalue.n_used_sum"):
        metrics[name] = counters.get(name, 0)
    metrics["ovals.lowest_eigenvalue.failed"] = agg.get("ovals.lowest_eigenvalue", (0, 0, 0, 0))[3]
    for module, lines in facts.src_lines(root).items():
        metrics[f"{module}.src_lines"] = lines
    untraced = sum(op[0] for op in result["untraced"])
    traced = sum(op[0] for op in result["traced"])
    metrics["trace.untraced_ops_per_s"] = len(result["untraced"]) / untraced
    metrics["trace.traced_ops_per_s"] = len(result["traced"]) / traced
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def traced_run(root, env, tmpdir, workload, seed, spans_path):
    setup, result = launch(root, env, tmpdir, workload, seed, 0.0, "trace", spans_path)
    imports = [facts.importtime(root, env) for _ in range(3)]
    metrics = per_layer_metrics(result, imports, root)
    untraced, traced = summarize(result["untraced"]), summarize(result["traced"])
    record = {
        "untraced": untraced,
        "traced": traced,
        "setup_s": setup,
        "spans": result["spans"],
        "spans_file": os.path.relpath(spans_path, root),
        "aggregate": result["aggregate"],
        "blas": result["blas"],
        "importtime": imports,
        "tier1": facts.tier1_wall(root, env),
    }
    summary = dict(traced)
    summary["unexpected_wrong"] += untraced["unexpected_wrong"]
    return metrics, record, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "catslab", "__init__.py")):
        print("error: run from the catslab repository root (src/catslab not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    tmpdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    env = _environment(root, tmpdir)
    # bytecode in place before any timed import, as after an install
    compileall.compile_dir(os.path.join(root, "src", "catslab"), quiet=1)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans_{tag}.jsonl")
            metrics, record, summary = traced_run(root, env, tmpdir, args.workload, args.seed, spans_path)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, record, summary = measured_run(
                root, env, tmpdir, args.workload, args.seed, args.seconds
            )
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        definition=describe()[args.workload],
        known_defects=KNOWN_DEFECTS,
        fail_frac={"value": summary["fail_frac"], "unit": "ratio"},
        versions=facts.versions(),
        src_lines=facts.src_lines(root),
    )
    result = {
        "correct": summary["unexpected_wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, f"BENCH_{tag}.json"), "w") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
