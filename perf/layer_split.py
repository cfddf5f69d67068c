"""Where a pair record's and a step's time go, layer by layer.

Run from the repository root:

    python3 perf/layer_split.py

For the seed-0 runs of the benchmark's two pair workloads (pair_eps05 and
pair_record_n2048 of benchmarks/workloads.py) it prints a record table,
with timers around the functions of each layer.  The record table steps
the run through evolution.drive and keeps the pair of every record.  It
then makes the benchmark's record calls on each again (gate.record),
RECORD_REPEATS times, on a fresh copy of that pair whose states keep
nothing: compute_derived of both states, energy_delta, f_delta_norm with
those derived fields and energy_sigma of solution a.

* ``htilde build``   the Newton solve of MonotoneMap.preimage that builds
                     htilde, with the spread of the fields it carries
* ``spread``         within htilde build, SpectralGrid.spread: the rfft and
                     the irfft that refine the 24 rows of the solve (the
                     deviation and Jacobian of k_b and the 22 rows of b)
                     to the fine grid
* ``pull-back``      the gather of the fields of b at the values of htilde,
                     the pull that preimage returns with htilde
* ``blocks``         energies._build_blocks
* ``powers``         the powers of Z_ap of the families, the calls of the
                     functions that energies._powers returns
* ``sup norm``       the sup_norm calls of the grid
* ``l2 + hhalf``     the l2_norm and hhalf_norm calls of the grid
* ``record``         the whole record

The step table takes the steps of a seed-0 run, step_rk4 of
dispersion_n256 (n = 256) and co_step of pair_eps05 (n = 768), from its
own set-up: WARMUP steps untimed, then STEP_CHUNKS runs of STEP_CHUNK steps.

* ``stage-1 derive``    the derive_states call of evolution.advance, which
                        derives the state or pair the step starts from
* ``later stages``      the three right-hand-side calls of evolution.rk4
* ``finish``            evolution._finish
* ``post-step guards``  from the end of the finish to the end of the step:
                        the post-step checks of advance, the new states
                        and, for a pair, the new maps with their check
* ``step``              the whole step

It prints each layer's median time per record or step, raw and scaled to
REF_S by the reference kernel of benchmarks/timing.py, timed before and
after each run, and the minor page faults per record or step
(resource.getrusage, the runs alone).  crestwave is imported from src/;
benchmarks/ is only read.
"""

from __future__ import annotations

import platform
import resource
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "perf"))

import crestwave as cw  # noqa: E402
from crestwave import brackets, energies, evolution  # noqa: E402
from crestwave.evolution import drive  # noqa: E402
from crestwave.spectral import SpectralGrid  # noqa: E402
from gate import record  # noqa: E402
from timing import REF_S, ReferenceKernel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("pair_eps05", "pair_record_n2048")
RECORD_LAYERS = ("htilde build", "spread", "pull-back", "blocks", "powers", "sup norm",
                 "l2 + hhalf", "record")
STEP_LAYERS = ("stage-1 derive", "later stages", "finish", "post-step guards", "step")
STEP_WORKLOADS = (("dispersion_n256", "step_rk4"), ("pair_eps05", "co_step"))
WARMUP = 5
RECORD_REPEATS = 5
STEP_CHUNK = 20
STEP_CHUNKS = 15


def record_pairs(workload):
    """The pairs of every record of the workload's seed-0 run, in order."""
    pairs = []
    start, cfg, dt, n_steps = workload.setup(0)
    drive(start, cw.co_step, cfg, dt, n_steps, pairs.append, workload.record_every)
    return pairs


def step_runs(workload, step, timers):
    """STEP_CHUNKS runs of STEP_CHUNK steps each of the workload's seed-0
    run, by timers.step, after WARMUP steps by step alone."""
    x, cfg, dt, _ = workload.setup(0)
    for _ in range(WARMUP):
        x = step(x, cfg, dt)
    current = [x]

    def run():
        for _ in range(STEP_CHUNK):
            current[0] = timers.step(step, current[0], cfg, dt)

    return (run for _ in range(STEP_CHUNKS))


def fresh(p):
    """p with nothing kept: new states sharing its arrays, and its maps,
    which keep only their fields."""
    return cw.PairState(replace(p.state_a), replace(p.state_b), p.k_a, p.k_b)


class LayerTimers:
    """Timers around the functions of each layer of the record or of the
    step; spent[layer] sums the seconds of the calls since the last
    reset.  A wrap target that no longer exists raises KeyError."""

    def __init__(self):
        self.spent = dict.fromkeys(RECORD_LAYERS + STEP_LAYERS, 0.0)
        self._undo = []
        # when the finish of the step that timers.step runs ended
        self._finish_end = 0.0

    def timed(self, layer, function):
        spent = self.spent

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0

        return wrapper

    def wrap(self, owner, name, make):
        """Put make(original) in the place of owner's own attribute name."""
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def wrap_record(self):
        def timed_preimage(preimage):
            # every record builds htilde with the fields it pulls back
            build = self.timed("htilde build", preimage)

            def solve(map_, y, fields):
                x, pull = build(map_, y, fields)
                return x, self.timed("pull-back", pull)

            return solve

        self.wrap(brackets.MonotoneMap, "preimage", timed_preimage)
        self.wrap(SpectralGrid, "spread", partial(self.timed, "spread"))
        self.wrap(energies, "_build_blocks", partial(self.timed, "blocks"))
        # the powers are formed where the function _powers returns is called
        self.wrap(energies, "_powers",
                  lambda powers: lambda B: self.timed("powers", powers(B)))
        self.wrap(SpectralGrid, "sup_norm", partial(self.timed, "sup norm"))
        for name in ("l2_norm", "hhalf_norm"):
            self.wrap(SpectralGrid, name, partial(self.timed, "l2 + hhalf"))

    def wrap_step(self):
        def later_stages(rk4):
            return lambda y0, rhs, dt, k1: rk4(y0, self.timed("later stages", rhs), dt, k1)

        def finish(_finish):
            timed = self.timed("finish", _finish)

            def wrapper(*args):
                try:
                    return timed(*args)
                finally:
                    self._finish_end = time.perf_counter()

            return wrapper

        self.wrap(evolution, "derive_states", partial(self.timed, "stage-1 derive"))
        self.wrap(evolution, "rk4", later_stages)
        self.wrap(evolution, "_finish", finish)

    def step(self, step, x, cfg, dt):
        """step(x, cfg, dt), the time from the end of its finish to its end
        added to "post-step guards"."""
        x = step(x, cfg, dt)
        self.spent["post-step guards"] += time.perf_counter() - self._finish_end
        return x

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def reset(self):
        for layer in self.spent:
            self.spent[layer] = 0.0


def split(runs, layers, kernel, timers, per=1):
    """({layer: (raw, scaled) medians in ms}, minor faults) over the calls of
    runs, each of per units (records or steps) and timed whole as
    layers[-1]; the times are per unit and scaled by the kernel timed
    before and after each call, and the faults are the mean per unit."""
    raw = {layer: [] for layer in layers}
    scaled = {layer: [] for layer in layers}
    faults = calls = 0
    before = kernel()
    for run in runs:
        timers.reset()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        run()
        timers.spent[layers[-1]] = time.perf_counter() - t0
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        calls += 1
        after = kernel()
        scale = REF_S / (0.5 * (before + after)) / per
        before = after
        for layer in layers:
            raw[layer].append(timers.spent[layer] / per)
            scaled[layer].append(timers.spent[layer] * scale)
    medians = {layer: (1e3 * np.median(raw[layer]), 1e3 * np.median(scaled[layer]))
               for layer in layers}
    return medians, faults / (calls * per)


def table(name, wrap, runs, layers, kernel, timers, per=1):
    """Print the rows of split(runs, layers, ...) with wrap's timers on."""
    wrap()
    try:
        medians, faults = split(runs, layers, kernel, timers, per)
    finally:
        timers.remove()
    for layer, (raw_ms, scaled_ms) in medians.items():
        print(f"{name:<20}{layer:<18}{raw_ms:9.4f}{scaled_ms:11.4f}")
    print(f"{name:<20}{'minor faults':<18}{faults:9.1f}")


def main():
    kernel = ReferenceKernel()
    timers = LayerTimers()
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{RECORD_REPEATS} repeats of every record of each pair workload, "
          f"{STEP_CHUNKS * STEP_CHUNK} steps of each step workload; ms per record or step, "
          f"raw and scaled to a reference kernel time of {1e3 * REF_S:.2f} ms")
    print(f"{'workload':<20}{'layer':<18}{'raw ms':>9}{'scaled ms':>11}")
    for name in WORKLOAD_NAMES:
        pairs = record_pairs(WORKLOADS[name])
        for p in pairs[:3]:
            record(fresh(p))
        records = (partial(record, fresh(p)) for _ in range(RECORD_REPEATS) for p in pairs)
        table(name, timers.wrap_record, records, RECORD_LAYERS, kernel, timers)
    for name, step in STEP_WORKLOADS:
        runs = step_runs(WORKLOADS[name], getattr(cw, step), timers)
        table(name, timers.wrap_step, runs, STEP_LAYERS, kernel, timers, STEP_CHUNK)


if __name__ == "__main__":
    main()
