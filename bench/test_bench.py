"""Smoke test of the benchmark itself: every workload at n <= 2 for one
cycle, timed and traced, plus the recorder and the no-sources exit.

Run from the repository root: python -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    record, result = parse(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= record["ops"] >= 1
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in metrics] == list(result["metrics"])
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        assert record["environment"]["nproc"] >= 1
        return
    assert values["trace.ops_per_s_ratio"] > 0
    if workload == "exact-pure":
        assert values["instrument.evolve.calls"] == 1.0
        assert values["instrument.evolve.density_calls"] == 0.0
        assert values["instrument.joint_expectation.calls"] == 0.0
    elif workload == "estimate":
        assert values["instrument.evolve.calls"] == 5.0
        assert values["sampling._joint_cells.calls"] == 1.0
    else:
        assert values["cli.import_s"] > 0 and values["cli.command_s"] > 0
        assert values["serialize.task_from_json.self_s"] > 0


def test_digest_repeats_and_follows_seed():
    first, _ = parse(bench("estimate", 0, seed=5))
    again, _ = parse(bench("estimate", 0, seed=5))
    other, _ = parse(bench("estimate", 0, seed=6))
    assert first["digest"] == again["digest"] != other["digest"]


def test_recorder_reports_missing_layer_as_zero(monkeypatch):
    import spans

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import wstate.tensor

    monkeypatch.setitem(spans.LAYERS, "tensor.no_such_layer", ("tensor", "no_such_layer"))
    rec = spans.Recorder()
    rec.install()
    try:
        wstate.tensor.spectral_norm([[3.0, 0.0], [0.0, 1.0]])
    finally:
        rec.remove()
    assert rec.stats["tensor.no_such_layer"]["calls"] == 0
    assert rec.stats["tensor.spectral_norm"]["calls"] == 1
    assert not hasattr(wstate.tensor.spectral_norm, "__wrapped__")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact-pure", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
