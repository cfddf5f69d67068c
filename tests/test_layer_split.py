"""perf/layer_split.py, which times the layers of a pair record and of a
step: on a small pair and state, every wrap target exists, every layer is
reached, and remove() puts every wrapped attribute back."""

import importlib.util
from dataclasses import replace

import pytest
from functools import partial
from pathlib import Path

import crestwave as cw
from crestwave import brackets, energies, evolution
from crestwave.spectral import SpectralGrid

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("layer_split", ROOT / "perf" / "layer_split.py")
layer_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_split)

# the attributes each wrap set puts its timers in the place of
RECORD_TARGETS = [(brackets.MonotoneMap, "preimage"), (SpectralGrid, "spread"),
                  (energies, "_build_blocks"), (energies, "_powers"),
                  (SpectralGrid, "sup_norm"), (SpectralGrid, "l2_norm"),
                  (SpectralGrid, "hhalf_norm")]
STEP_TARGETS = [(evolution, "derive_states"), (evolution, "rk4"), (evolution, "_finish")]


def _split_once(timers, wrap, targets, layers, run, per=1):
    """split of the one call run with wrap's timers on; checks that wrap
    replaced every target and that remove() put back each original."""
    originals = [vars(owner)[name] for owner, name in targets]
    wrap()
    try:
        assert [name for (owner, name), original in zip(targets, originals)
                if vars(owner)[name] is original] == []
        medians, faults = layer_split.split([run], layers, layer_split.ReferenceKernel(),
                                            timers, per)
    finally:
        timers.remove()
    assert [name for (owner, name), original in zip(targets, originals)
            if vars(owner)[name] is not original] == []
    assert list(medians) == list(layers)
    assert faults >= 0
    return medians


def test_every_layer_of_a_record_is_timed_and_unwrapped_after():
    p = replace(layer_split.WORKLOADS["pair_eps05"], n=64, epsilon=0.5).setup(0)[0]
    timers = layer_split.LayerTimers()
    medians = _split_once(timers, timers.wrap_record, RECORD_TARGETS,
                          layer_split.RECORD_LAYERS,
                          partial(layer_split.record, layer_split.fresh(p)))
    assert [layer for layer, (raw, scaled) in medians.items()
            if not (raw > 0 and scaled > 0)] == []


@pytest.mark.parametrize("name, step", layer_split.STEP_WORKLOADS)
def test_every_layer_of_a_step_is_timed_and_unwrapped_after(name, step):
    # a short run of each step workload; stage 1 is timed once per step,
    # so its time stays below the step's
    base = layer_split.WORKLOADS[name]
    if name.startswith("pair"):
        workload = replace(base, n=64, epsilon=0.5)
    else:
        workload = replace(base, n=32, k=2)
    timers = layer_split.LayerTimers()
    runs = list(layer_split.step_runs(workload, getattr(cw, step), timers))
    medians = _split_once(timers, timers.wrap_step, STEP_TARGETS, layer_split.STEP_LAYERS,
                          runs[0], layer_split.STEP_CHUNK)
    assert [layer for layer, (raw, scaled) in medians.items()
            if not (raw > 0 and scaled > 0)] == []
    assert sum(medians[layer][0] for layer in layer_split.STEP_LAYERS[:-1]) < medians["step"][0]


def test_the_docstring_describes_every_layer_of_each_table_in_order():
    # the names between double backquotes, so no table goes undescribed
    described = layer_split.__doc__.split("``")[1::2]
    assert described == [*layer_split.RECORD_LAYERS, *layer_split.STEP_LAYERS]
