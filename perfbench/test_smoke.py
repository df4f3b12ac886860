"""Smoke test for the benchmark: short runs of every workload print every
metric named in BENCHMARK.json with its unit, and the correctness gate is
not vacuous.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 10)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def short_run(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_its_unit(short, capsys, workload, trace):
    out = short_run(capsys, workload, trace)
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        for name, unit in run.PRINTED_ONLY:
            assert any(line.split()[:1] == [name] and unit in line.split()
                       for line in out.splitlines())


@pytest.mark.parametrize("workload", ["spectral_n32", "measure_small"])
def test_call_counts_repeat_exactly(short, capsys, workload):
    counts = []
    for seed in (3, 4):
        metrics = last_json(short_run(capsys, workload, 1, seed))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith(".calls_per_op")})
    assert counts[0] == counts[1]
    assert counts[0]["measurement.QuantumState.calls_per_op"] > 0


def test_gate_counts_a_perturbed_probability(tmp_path):
    wl = workloads.WORKLOADS["measure_small"](5, tmp_path)
    wl.setup()
    wl.references()
    original = workloads.qm.measurement.outcome_probabilities
    calls = []

    def perturbed(*args, **kwargs):
        probs = original(*args, **kwargs)
        if not calls:
            probs = probs.copy()
            probs[0] += 1e-6
        calls.append(1)
        return probs

    undo = spans.rebind(original, perturbed)
    try:
        seg = run.measure(wl, 0, wl.cycle)
    finally:
        spans.restore(undo)
    assert len(calls) > 1
    assert seg.failed == 1
    values, _, _ = run.end_to_end(wl, seg, setup_s=1.0)
    assert values["fail_ratio"] == 1 / seg.ops
    assert values["accuracy_digits"] == pytest.approx(6.0, abs=1e-6)
    assert {name for name, _ in run.END_TO_END + run.PRINTED_ONLY} <= set(values)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
