"""Layer table: median ms per call of each layer at n = 256, 768, 2048.

The inputs match the baseline table in ROADMAP.md: crest data with
nu = 0.35 and eps = 0.1, sigma = 1e-3 on the stepping layers.  Each layer
gets one warm-up call, then `SAMPLES` timed samples; a sample times enough
back-to-back calls to last at least `MIN_SAMPLE_S`, so sub-millisecond
layers are not lost in clock resolution.  Times are raw wall clock, as in
the ROADMAP table.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import crestwave as cw

LAYERS = (
    "fft_pair",
    "compute_derived",
    "step_rk4",
    "co_step",
    "interpolate",
    "energy_sigma",
    "energy_delta",
    "f_delta_norm",
)
SIZES = (256, 768, 2048)
SAMPLES = 5
MIN_SAMPLE_S = 0.005


def metric_name(layer, n):
    return f"layer.{layer}.n{n}.ms_p50"


def _median_ms(call):
    t0 = time.perf_counter()
    call()
    batch = max(1, int(np.ceil(MIN_SAMPLE_S / max(time.perf_counter() - t0, 1e-9))))
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(batch):
            call()
        samples.append((time.perf_counter() - t0) / batch)
    return 1e3 * statistics.median(samples)


def _layer_calls(n):
    spec = cw.PairRunSpec(sigma=1e-3, epsilon=0.1, nu=0.35, velocity_amplitude=0.05j, n_points=n)
    pair = cw.pair.build_pair(spec)
    cfg = cw.StepperConfig(dt_safety=spec.dt_safety)
    state = pair.state_a
    grid = state.grid
    dt_single = 0.4 * cw.cfl_bound(state)
    dt_pair = 0.4 * min(cw.cfl_bound(pair.state_a), cw.cfl_bound(pair.state_b))
    # one shared step gives the energy layers non-identity maps
    stepped = cw.co_step(pair, cfg, dt_pair)
    der_a = cw.compute_derived(stepped.state_a)
    der_b = cw.compute_derived(stepped.state_b)
    points = stepped.map_tilde.values
    field = state.Zp
    return {
        "fft_pair": lambda: np.fft.ifft(np.fft.fft(field)),
        "compute_derived": lambda: cw.compute_derived(state),
        "step_rk4": lambda: cw.step_rk4(state, cfg, dt_single),
        "co_step": lambda: cw.co_step(pair, cfg, dt_pair),
        "interpolate": lambda: grid.interpolate(field, points),
        "energy_sigma": lambda: cw.energy_sigma(state),
        "energy_delta": lambda: cw.energy_delta(stepped),
        "f_delta_norm": lambda: cw.f_delta_norm(stepped, der_a, der_b),
    }


def layer_table(sizes=SIZES):
    """{metric name: median ms per call} for every layer and size."""
    out = {}
    for n in sizes:
        for layer, call in _layer_calls(n).items():
            out[metric_name(layer, n)] = _median_ms(call)
    return out
