"""Tests of the benchmark itself (not part of the repository's Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, strict_json  # noqa: E402

# defect probes overflow numpy on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def cli_env(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.chdir(ROOT)
    return str(tmp_path)


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    record = json.loads(record_line)["record"]
    assert record["fail_frac"]["unit"] == "ratio"
    assert record["versions"]["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_per_layer_metric(workload, cli_env, monkeypatch):
    client = worker.Client(workload, ROOT, cli_env)
    monkeypatch.setattr(client.cls, "trace_ops", 2)
    result = worker.trace(client, 3, os.path.join(cli_env, "spans.jsonl"))
    assert result["spans"] > 0
    metrics = run.per_layer_metrics(result, [{"catslab_s": 0.4, "scipy_s": 0.3}], ROOT)
    assert set(metrics) == set(run.PER_LAYER)
    called = {
        "cli_mix": "cli.startup_s",
        "slab_pieces": "thresholds.ms_piece_for_lower_length.calls",
        "annulus_sweep": "weierstrass.level_profile.calls",
        "oval_corpus": "ovals.resample_arclength.points",
    }[workload]
    assert metrics[called] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = WORKLOADS[workload].make_input
    first = [make(11, k) for k in range(48)]
    assert first == [make(11, k) for k in range(48)]
    assert first != [make(12, k) for k in range(48)]


def test_injected_wrong_result_counts_as_failure(monkeypatch, cli_env):
    client = worker.Client("slab_pieces", ROOT, cli_env)
    real = client.workload.stability.lowest_jacobi_eigenvalue

    def off_by_one(*args, **kwargs):
        res = real(*args, **kwargs)
        res.lowest_eigenvalue += 1.0
        return res

    monkeypatch.setattr(client.workload.stability, "lowest_jacobi_eigenvalue", off_by_one)
    ops = [client.op({"kind": "marginal", "apex": 0.5})]
    monkeypatch.undo()
    ops.append(client.op({"kind": "marginal", "apex": 0.5}))
    summary = run.summarize(ops)
    assert summary["failed"] == 1 and summary["fail_frac"] == 0.5
    assert summary["unexpected_wrong"] == 1


def test_injected_wrong_cli_stdout_counts_as_failure(cli_env):
    client = worker.Client("cli_mix", ROOT, cli_env)
    client.workload.command = [sys.executable, "-c", "print('{\"lambda0\": 0.5}')"]
    summary = run.summarize([client.op({"kind": "lambda0", "pair": 0, "rep": 0})])
    assert summary["fail_frac"] == 1.0 and summary["unexpected_wrong"] == 1


def test_known_defect_probes_fail_without_making_the_run_incorrect(cli_env):
    client = worker.Client("slab_pieces", ROOT, cli_env)
    ops = [client.op(inp, defect) for defect, inp in client.cls.defect_probes.items()]
    assert [op[3] for op in ops] == list(client.cls.defect_probes)
    assert all(op[1] != "pass" for op in ops)
    summary = run.summarize(ops)
    assert summary["failed"] == len(ops) and summary["unexpected_wrong"] == 0


def test_strict_json_rejects_non_finite_constants():
    assert strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            strict_json(text)


def test_importtime_parser():
    from facts import parse_importtime

    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |   scipy.linalg",
        "import time:        50 |        750 |   numpy",
        "import time:        10 |       1460 | catslab",
    ])
    out = parse_importtime(stderr)
    assert out["catslab_s"] == pytest.approx(1460e-6)
    assert out["scipy_s"] == pytest.approx(700e-6)
