"""The benchmark's own tests, on seconds-long variants of its workloads.

Run from the repository root:  python3 -m pytest -q benchmarks
"""

import json
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import crestwave as cw  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
from timing import Recorder  # noqa: E402
from workloads import WORKLOADS, run_gated  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pinned(workload, tmp_path):
    """The workload with its counts and fingerprint pinned from one run."""
    res = workload.run(0, Recorder(), tmp_path)
    pins = {"expected_steps": res.steps, "fingerprint": {k: res.fingerprint[k] for k in workload.fingerprint}}
    if "expected_records" in {f.name for f in fields(workload)}:
        pins["expected_records"] = res.records
    return replace(workload, **pins)


@pytest.fixture(params=["pair", "dispersion"])
def tiny(request, tmp_path):
    if request.param == "pair":
        w = replace(WORKLOADS["pair_eps05"], n=64, epsilon=0.3, sigma=1e-2, t_final=0.02,
                    min_steps=4, record_every=2)
    else:
        w = replace(WORKLOADS["dispersion_n256"], n=32)
    return _pinned(w, tmp_path)


@pytest.fixture
def quick_layers(monkeypatch):
    monkeypatch.setattr(layers, "SAMPLES", 1)
    monkeypatch.setattr(layers, "MIN_SAMPLE_S", 0.0)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_printed_with_units(tiny, capsys):
    result, notes, prov = run.timed_run(tiny, 0, 1)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    run.emit(result, notes, prov)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    units = _units("end_to_end")
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
        assert last["metrics"][name]["value"] > 0


def test_traced_metrics_printed_and_counts_repeat(tiny, quick_layers):
    first, _, _ = run.traced_run(tiny, 0)
    second, _, _ = run.traced_run(tiny, 0)
    assert first["correct"] and second["correct"]
    units = _units("per_layer")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [k for k, u in units.items() if u == "count"]
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_perturbed_fingerprint_fails(tiny, tmp_path):
    assert run_gated(tiny, 0, Recorder(), tmp_path).failure == ""
    key, value = next(iter(tiny.fingerprint.items()))
    bad = replace(tiny, fingerprint={**tiny.fingerprint, key: value * (1 + 1e-4)})
    assert "fingerprint" in run_gated(bad, 0, Recorder(), tmp_path).failure
    result, notes, _ = run.timed_run(bad, 0, 1)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    # other seeds rotate the velocity phase and are gated on invariants only
    res = run_gated(bad, 3, Recorder(), tmp_path)
    assert res.failure == "" and res.steps == tiny.expected_steps


def test_crestwave_error_carries_step_and_time(tmp_path, monkeypatch):
    w = replace(WORKLOADS["dispersion_n256"], n=32)
    real = cw.step_rk4
    calls = []

    def failing(state, cfg, dt):
        calls.append(dt)
        if len(calls) == 3:
            raise cw.HolomorphicityError("positive-mode mass above tolerance")
        return real(state, cfg, dt)

    monkeypatch.setattr(cw, "step_rk4", failing)
    failure = run_gated(w, 0, Recorder(), tmp_path).failure
    assert failure.startswith("HolomorphicityError at step 2, t = ")


def test_samples_scale_by_the_reference_kernel_around_them():
    rec = Recorder()
    kernel = iter([1.0, 3.0, 5.0])
    rec._kernel = lambda: next(kernel) * timing.REF_S
    for _ in range(2):
        # a sample of REF_EVERY_S or more is followed by a kernel pass
        rec.end("step", rec.begin("step") - timing.REF_EVERY_S)
    raw = rec.times["step"]
    assert rec.normalised("step") == pytest.approx([raw[0] / 2.0, raw[1] / 4.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(128) == 90.0
    assert run.tail_percentile(796) == 95.0
    assert run.tail_percentile(12712) == 99.9
    assert run.tail_percentile(5) == 50.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".ckpt-*"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pair_eps05", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
