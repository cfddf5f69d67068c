"""perf/layer_split.py, which times the layers of the steps and records of
one seed-0 run per workload: on small runs it keeps one sample per step and
per record, steps by the workload's step, times every layer of each sample,
and remove() puts every wrapped attribute back."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

import crestwave as cw
from crestwave import brackets, energies, evolution
from crestwave.spectral import SpectralGrid

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("layer_split", ROOT / "perf" / "layer_split.py")
layer_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_split)

# the attributes install() puts its timers in the place of
TARGETS = [(brackets.MonotoneMap, "preimage"), (SpectralGrid, "spread"),
           (energies, "_build_blocks"), (SpectralGrid, "sup_norm"), (SpectralGrid, "l2_norm"),
           (SpectralGrid, "hhalf_norm"),
           (evolution, "derive_states"), (evolution, "rk4"), (evolution, "_finish")]
SMALL = {w.name: w for w in (
    replace(layer_split.WORKLOADS["pair_eps05"], n=64, epsilon=0.5),
    replace(layer_split.WORKLOADS["dispersion_n256"], n=32, k=2, periods=1.0))}


def _profile_and_unwrap(workload):
    """profile(workload), checking that every wrapped attribute is back after it."""
    originals = [vars(owner)[name] for owner, name in TARGETS]
    samples = layer_split.profile(workload)
    assert [name for (owner, name), original in zip(TARGETS, originals)
            if vars(owner)[name] is not original] == []
    return samples


def _untimed(rows, layers):
    """The (sample, layer) pairs of rows whose layer is not timed above 0
    raw and scaled."""
    return [(i, layer) for i, (raw, scaled, _) in enumerate(rows) for layer in layers
            if not (raw[layer] > 0 and scaled[layer] > 0)]


@pytest.mark.parametrize("workload", SMALL.values(), ids=lambda w: w.name)
def test_one_run_gives_one_timed_sample_per_step_and_per_record(workload):
    n_steps = workload.setup(0)[3]
    # drive records at the start, every record_every steps and after the last
    every = getattr(workload, "record_every", None)
    records = 0 if every is None else 1 + sum(
        (i % every == 0 or i == n_steps) for i in range(1, n_steps + 1))
    samples = _profile_and_unwrap(workload)
    assert {phase: len(rows) for phase, rows in samples.items()} == {
        "step": n_steps, "record": records}
    assert all(faults >= 0 for rows in samples.values() for _, _, faults in rows)


def test_every_layer_of_a_record_is_timed_and_unwrapped_after():
    rows = _profile_and_unwrap(SMALL["pair_eps05"])["record"]
    assert rows
    assert _untimed(rows, layer_split.RECORD_LAYERS) == []


@pytest.mark.parametrize("name, step", [("dispersion_n256", "step_rk4"),
                                        ("pair_eps05", "co_step")])
def test_every_layer_of_a_step_is_timed_and_unwrapped_after(name, step, monkeypatch):
    # the run takes each of its steps by the workload's step
    calls = []
    original = getattr(cw, step)
    monkeypatch.setattr(cw, step, lambda *args: calls.append(args) or original(*args))
    workload = SMALL[name]
    rows = _profile_and_unwrap(workload)["step"]
    assert len(calls) == len(rows) == workload.setup(0)[3]
    assert _untimed(rows, layer_split.STEP_LAYERS) == []
    # the parts of a step are disjoint, so they take less than the step
    assert all(sum(raw[layer] for layer in layer_split.STEP_LAYERS[:-1]) < raw["step"]
               for raw, _, _ in rows)


def test_remove_puts_back_every_wrapped_attribute():
    originals = [vars(owner)[name] for owner, name in TARGETS]
    timers = layer_split.LayerTimers()
    timers.install()
    try:
        assert [name for (owner, name), original in zip(TARGETS, originals)
                if vars(owner)[name] is original] == []
    finally:
        timers.remove()
    assert [name for (owner, name), original in zip(TARGETS, originals)
            if vars(owner)[name] is not original] == []


def test_the_docstring_describes_every_layer_of_each_table_in_order():
    # the names between double backquotes, so no table goes undescribed
    described = layer_split.__doc__.split("``")[1::2]
    assert described == [*layer_split.RECORD_LAYERS, *layer_split.STEP_LAYERS]
