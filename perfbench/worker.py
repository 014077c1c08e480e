"""The benchmark's single closed-loop client: one process, one op at a time.

Started fresh by ``run.py``.  It builds the workload (which imports catslab),
runs one untimed warm-up op on a fixed input and prints ``READY``; the parent
times launch-to-READY as set-up.  In ``measure`` mode it then runs seeded ops
back to back until ``--seconds`` have passed and then, untimed, the
workload's known-defect probes; in ``trace`` mode it runs the first
``trace_ops`` seeded ops untraced and then again traced.  The last line of
stdout is a JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings

import facts
from cli_shim import TRACE_MARK
from tracer import Tracer, merge
from workloads import WORKLOADS, Outcome


class Client:
    def __init__(self, workload: str, root: str, tmpdir: str):
        self.cls = WORKLOADS[workload]
        self.is_cli = workload == "cli_mix"
        if self.is_cli:
            self.workload = self.cls(root, tmpdir)
            self.documented = ()
        else:
            self.workload = self.cls()
            from catslab.errors import ConvergenceError

            # the library's documented failure modes
            self.documented = (ConvergenceError, ValueError)
        self.child_traces: list = []

    def op(self, inp: dict, defect: str | None = None) -> tuple:
        """Run one op; returns (seconds, status, reason, known defect, command).
        ``defect`` names the known defect a probe input targets."""
        wl = self.workload
        prepared = wl.prepare(inp)
        start = time.perf_counter()
        try:
            result = wl.run(prepared)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        seconds = time.perf_counter() - start
        if error is not None:
            kind = "refused" if isinstance(error, self.documented) else "wrong"
            outcome = Outcome(kind, f"{type(error).__name__}: {str(error)[:120]}")
        else:
            if self.is_cli:
                self._take_child_trace(result)
            try:
                outcome = wl.check(inp, result)
            except Exception as exc:
                outcome = Outcome("wrong", f"check raised {type(exc).__name__}: {exc}")
        command = prepared[0] if self.is_cli else inp["kind"]
        return seconds, outcome.status, outcome.reason, defect, command

    def _take_child_trace(self, proc):
        lines = proc.stderr.decode(errors="replace").splitlines()
        kept = [line for line in lines if not line.startswith(TRACE_MARK)]
        for line in lines:
            if line.startswith(TRACE_MARK):
                child = json.loads(line[len(TRACE_MARK):])
                # interpreter start, imports and argument parsing before main
                child["startup_s"] = child["main_entry_epoch"] - self.workload.launched_at
                self.child_traces.append(child)
        proc.stderr = "\n".join(kept).encode()


def run_ops(client: Client, seed: int, ks, tracer=None) -> list:
    records = []
    for k in ks:
        if tracer is not None:
            tracer.op_id = k
        records.append(client.op(client.cls.make_input(seed, k)))
    return records


def measure(client: Client, seed: int, seconds: float) -> list:
    records, start, k = [], time.perf_counter(), 0
    while k == 0 or time.perf_counter() - start < seconds:
        records += run_ops(client, seed, [k])
        k += 1
    return records


def trace(client: Client, seed: int, spans_path: str) -> dict:
    ks = range(client.cls.trace_ops)
    untraced = run_ops(client, seed, ks)
    tracer = Tracer()
    if client.is_cli:
        here = os.path.dirname(os.path.abspath(__file__))
        client.workload.command = [sys.executable, os.path.join(here, "cli_shim.py")]
        traced = []
        for k in ks:
            before = len(client.child_traces)
            traced += run_ops(client, seed, [k])
            if len(client.child_traces) > before:
                client.child_traces[-1]["op_id"] = k
        aggregate, counters, spans = {}, {}, []
        for child in client.child_traces:
            merge(aggregate, child["aggregate"])
            for name, value in child["counters"].items():
                counters[name] = counters.get(name, 0) + value
            spans += [s[:4] + [child["op_id"]] + s[5:] for s in child["spans"]]
        startup = [c["startup_s"] for c in client.child_traces]
    else:
        tracer.install()
        try:
            traced = run_ops(client, seed, ks, tracer)
        finally:
            tracer.uninstall()
        aggregate, counters, spans, startup = tracer.aggregate(), tracer.counters, tracer.spans, []
    with open(spans_path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(list(span)) + "\n")
    return {
        "untraced": untraced,
        "traced": traced,
        "aggregate": aggregate,
        "counters": dict(counters),
        "cli_startup_s": startup,
        "spans": len(spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")  # numpy overflow chatter on defect inputs

    client = Client(args.workload, os.getcwd(), args.tmpdir)
    client.op(client.cls.warmup_input())
    client.child_traces.clear()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        out = {"ops": measure(client, args.seed, args.seconds)}
    else:
        out = trace(client, args.seed, args.spans)
    who = resource.RUSAGE_CHILDREN if client.is_cli else resource.RUSAGE_SELF
    out["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
    if args.mode == "measure":
        out["probes"] = [client.op(inp, defect) for defect, inp in client.cls.defect_probes.items()]
    import scipy.linalg  # noqa: F401  (loaded so its BLAS shows in the facts)

    out["blas"] = facts.blas_facts()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
