"""Where a pair record's time goes, layer by layer.

Run from the repository root:

    python3 perf/record_split.py

For the seed-0 runs of the benchmark's two pair workloads (pair_eps05 and
pair_record_n2048 of benchmarks/workloads.py) it steps each run as the
benchmark does and keeps the pair of every record.  It then takes each
record again, REPEATS times, on a fresh copy of that pair whose states keep
nothing, and times the benchmark's record calls (compute_derived of both
states, energy_delta, f_delta_norm and energy_sigma of solution a) with
timers around the functions of each layer:

* ``htilde build``   the Newton solve of MonotoneMap.preimage that builds
                     htilde, with whatever spread it makes
* ``pull-back``      the gather of the fields of b at the values of htilde:
                     compose_map_apply where the record calls it, else the
                     pull that preimage returns with htilde
* ``blocks``         energies._build_blocks
* ``stacked norms``  the l2_norm, hhalf_norm and sup_norm calls of the grid
* ``record``         the whole record

It prints the median over records of each layer's time per record, raw and
scaled by the reference kernel of benchmarks/timing.py (timed before and
after every record) to its REF_S.  crestwave is imported from the src/
directory beside this one; benchmarks/ is only read.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import crestwave as cw  # noqa: E402
from crestwave import brackets, energies  # noqa: E402
from crestwave.spectral import SpectralGrid  # noqa: E402
from timing import REF_S, ReferenceKernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("pair_eps05", "pair_record_n2048")
LAYERS = ("htilde build", "pull-back", "blocks", "stacked norms", "record")
REPEATS = 5


def record_pairs(workload):
    """The pairs of every record of the workload's seed-0 run, in order."""
    pair, cfg, dt, n_steps = workload.setup(0)
    pairs = [pair]
    for step in range(n_steps):
        pair = cw.co_step(pair, cfg, dt)
        if (step + 1) % workload.record_every == 0 or step + 1 == n_steps:
            pairs.append(pair)
    return pairs


def fresh(pair):
    """pair with nothing kept: new states sharing its arrays, and its maps,
    which keep only their fields."""
    return cw.PairState(replace(pair.state_a), replace(pair.state_b), pair.k_a, pair.k_b)


def record(pair):
    """The benchmark's record calls."""
    cw.compute_derived(pair.state_a)
    cw.compute_derived(pair.state_b)
    cw.energy_delta(pair)
    cw.f_delta_norm(pair)
    cw.energy_sigma(pair.state_a)


class LayerTimers:
    """Timers around the functions of each layer; spent[layer] sums the
    seconds of the calls since the last reset."""

    def __init__(self):
        self.spent = dict.fromkeys(LAYERS, 0.0)
        self._undo = []

    def timed(self, layer, function):
        spent = self.spent

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0

        return wrapper

    def wrap(self, owner, name, layer, wrapper=None):
        original = getattr(owner, name)
        setattr(owner, name, wrapper or self.timed(layer, original))
        self._undo.append((owner, name, original))

    def install(self):
        preimage = brackets.MonotoneMap.preimage

        def timed_preimage(map_, y, *fields):
            t0 = time.perf_counter()
            out = preimage(map_, y, *fields)
            self.spent["htilde build"] += time.perf_counter() - t0
            # a solve that carries fields returns their pull with the points
            if isinstance(out, tuple):
                x, pull = out
                return x, self.timed("pull-back", pull)
            return out

        self.wrap(brackets.MonotoneMap, "preimage", None, timed_preimage)
        if hasattr(energies, "compose_map_apply"):
            self.wrap(energies, "compose_map_apply", "pull-back")
        self.wrap(energies, "_build_blocks", "blocks")
        for name in ("l2_norm", "hhalf_norm", "sup_norm"):
            self.wrap(SpectralGrid, name, "stacked norms")

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def reset(self):
        for layer in self.spent:
            self.spent[layer] = 0.0


def split(pairs, kernel, timers):
    """{layer: (raw, scaled) medians in ms} over REPEATS records of each of
    pairs, each on a fresh copy."""
    raw = {layer: [] for layer in LAYERS}
    scaled = {layer: [] for layer in LAYERS}
    before = kernel()
    for _ in range(REPEATS):
        for pair in pairs:
            p = fresh(pair)
            timers.reset()
            t0 = time.perf_counter()
            record(p)
            timers.spent["record"] = time.perf_counter() - t0
            after = kernel()
            scale = REF_S / (0.5 * (before + after))
            before = after
            for layer, seconds in timers.spent.items():
                raw[layer].append(seconds)
                scaled[layer].append(seconds * scale)
    return {layer: (1e3 * np.median(raw[layer]), 1e3 * np.median(scaled[layer]))
            for layer in LAYERS}


def main():
    kernel = ReferenceKernel()
    timers = LayerTimers()
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{REPEATS} repeats of every record; ms per record, raw and scaled to "
          f"a reference kernel time of {1e3 * REF_S:.2f} ms")
    print(f"{'workload':<20}{'layer':<16}{'raw ms':>9}{'scaled ms':>11}")
    for name in WORKLOAD_NAMES:
        pairs = record_pairs(WORKLOADS[name])
        for pair in pairs[:3]:
            record(fresh(pair))
        timers.install()
        try:
            medians = split(pairs, kernel, timers)
        finally:
            timers.remove()
        for layer, (raw_ms, scaled_ms) in medians.items():
            print(f"{name:<20}{layer:<16}{raw_ms:9.3f}{scaled_ms:11.3f}")


if __name__ == "__main__":
    main()
