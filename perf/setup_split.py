"""Where a pair set-up's time goes, layer by layer.

Run from the repository root:

    python3 perf/setup_split.py

For the seed-0 specs of the benchmark's two pair workloads (pair_eps05 and
pair_record_n2048 of benchmarks/workloads.py) it runs the workload's own
set-up REPEATS times, each building every object anew (grid, crest, pair),
with timers around the functions of each layer:

* ``grid``           the SpectralGrid constructor that build_pair calls
* ``crest_data``     the crest data of the spec
* ``mollify_data``   its Poisson mollification
* ``identity map``   InverseFlowMap.identity, the map of init_pair
* ``build_pair``     the whole pair build, the four layers above included
* ``cfl_bound a``    the step bound of solution a, the first cfl_bound call
* ``cfl_bound b``    the step bound of solution b, the second
* ``set-up``         the whole set-up, as the benchmark's setup phase times it

It prints the median over set-ups of each layer's time, raw and scaled by
the reference kernel of benchmarks/timing.py (timed before and after every
set-up) to its REF_S.  crestwave is imported from the src/ directory beside
this one; benchmarks/ is only read.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import crestwave as cw  # noqa: E402
from crestwave import brackets, pair  # noqa: E402
from timing import REF_S, ReferenceKernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("pair_eps05", "pair_record_n2048")
CFL_LAYERS = ("cfl_bound a", "cfl_bound b")
LAYERS = ("grid", "crest_data", "mollify_data", "identity map", "build_pair",
          *CFL_LAYERS, "set-up")
REPEATS = 200
WARMUP = 5


class LayerTimers:
    """Timers around the functions of each layer; spent[layer] sums the
    seconds of the calls since the last reset."""

    def __init__(self):
        self.spent = dict.fromkeys(LAYERS, 0.0)
        self._bounds = 0  # cfl_bound calls since the last reset
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

    def wrap(self, owner, name, wrapper):
        # the class attribute itself, so a classmethod is put back as one
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def install(self):
        self.wrap(pair, "SpectralGrid", self.timed("grid", pair.SpectralGrid))
        self.wrap(pair, "crest_data", self.timed("crest_data", pair.crest_data))
        self.wrap(pair, "mollify_data", self.timed("mollify_data", pair.mollify_data))
        self.wrap(pair, "build_pair", self.timed("build_pair", pair.build_pair))
        # defined on MonotoneMap, whose classmethod InverseFlowMap inherits
        identity = brackets.MonotoneMap.identity.__func__
        self.wrap(brackets.MonotoneMap, "identity",
                  classmethod(self.timed("identity map", identity)))
        cfl_bound = cw.cfl_bound

        def timed_bound(state):
            layer = CFL_LAYERS[self._bounds]
            self._bounds += 1
            return self.timed(layer, cfl_bound)(state)

        self.wrap(cw, "cfl_bound", timed_bound)

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def reset(self):
        self._bounds = 0
        for layer in self.spent:
            self.spent[layer] = 0.0


def split(workload, kernel, timers):
    """{layer: (raw, scaled) medians in ms} over REPEATS seed-0 set-ups."""
    raw = {layer: [] for layer in LAYERS}
    scaled = {layer: [] for layer in LAYERS}
    before = kernel()
    for _ in range(REPEATS):
        timers.reset()
        t0 = time.perf_counter()
        workload.setup(0)
        timers.spent["set-up"] = time.perf_counter() - t0
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
          f"{REPEATS} set-ups of each workload; ms per set-up, raw and scaled to "
          f"a reference kernel time of {1e3 * REF_S:.2f} ms")
    print(f"{'workload':<20}{'layer':<16}{'raw ms':>9}{'scaled ms':>11}")
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        for _ in range(WARMUP):
            workload.setup(0)
        timers.install()
        try:
            medians = split(workload, kernel, timers)
        finally:
            timers.remove()
        for layer, (raw_ms, scaled_ms) in medians.items():
            print(f"{name:<20}{layer:<16}{raw_ms:9.3f}{scaled_ms:11.3f}")


if __name__ == "__main__":
    main()
