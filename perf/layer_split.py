"""Where the time of the benchmark's seed-0 runs goes, layer by layer.

Run from the repository root:

    python3 perf/layer_split.py

It makes one seed-0 run of each workload of benchmarks/workloads.py as the
benchmark does: workload.setup(0), then evolution.drive with the
workload's step, co_step for the pairs and step_rk4 for dispersion_n256,
and for the pairs the benchmark's record calls (gate.record) at the
workload's record cadence.  Timers around the functions of each layer stay
in place for the whole run, and the layer times and the minor page faults
(resource.getrusage) of each step and each record are read as it ends.
For each pair workload it prints a record table:

* ``htilde build``   the Newton solve of MonotoneMap.preimage that builds
                     htilde, with the spread of the fields it carries
* ``spread``         within htilde build, SpectralGrid.spread: the rfft and
                     the irfft that refine the 24 rows of the solve (the
                     deviation and Jacobian of k_b and the 22 rows of b)
                     to the fine grid
* ``pull-back``      the gather of the fields of b at the values of htilde,
                     the pull that preimage returns with htilde
* ``blocks``         energies._build_blocks, with the powers of Z_ap
* ``seed grid``      SpectralGrid._sup_seeds within the sup_norm calls of
                     the grid: the one inverse transform that shifts the
                     rows onto the seed grid, and the search for its peaks
* ``polish``         the rest of the sup_norm calls: the coefficient
                     transform, the Newton polish of the seeds and the
                     grid maxima
* ``l2 + hhalf``     the l2_norm and hhalf_norm calls of the grid
* ``record``         the whole record

and for every workload a step table:

* ``stage 1``           evolution._first_stage, the first right-hand side
                        of the step: from the fields that a record or
                        cfl_bound keeps on the states the step starts
                        from, or else one derive of their stacked rows,
                        which keeps nothing on them
* ``later stages``      the three right-hand-side calls of evolution.rk4
* ``finish``            evolution._finish
* ``post-step guards``  from the end of the finish to the end of the step:
                        the post-step checks of advance, the new states
                        and, for a pair, the new maps with their check
* ``step``              the whole step

Each row is a layer's median over the run's records or steps, in ms per
record or step, raw and scaled by the benchmark's rule: a timing.Recorder
times the steps and the records, and a reference kernel pass after every
REF_EVERY_S of them, and each unit's layers take that unit's
normalised / raw ratio.  The whole record and the whole step so read as
record_ms_p50 and step_ms_p50 of benchmarks/run.py.  The last row gives
the median and the mean minor faults per unit: the mean is dominated by
the first two records of a run, which grow the heap, and the median is
what a record or a step faults after them.  crestwave is imported from
src/; benchmarks/ is only read.
"""

from __future__ import annotations

import platform
import resource
import sys
import time
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
from gate import PAIR_WORKLOADS, record  # noqa: E402
from timing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RECORD_LAYERS = ("htilde build", "spread", "pull-back", "blocks", "seed grid", "polish",
                 "l2 + hhalf", "record")
STEP_LAYERS = ("stage 1", "later stages", "finish", "post-step guards", "step")


class LayerTimers:
    """Timers around the functions of each layer of the record and of the
    step, put in place by install() and back by remove(); spent[layer] sums
    the seconds of the calls since profile last zeroed it, at the start of
    a step or record.  A wrap target that no longer exists raises KeyError."""

    def __init__(self):
        self.spent = dict.fromkeys(RECORD_LAYERS + STEP_LAYERS, 0.0)
        self._undo = []
        # when the last finish of a step ended
        self.finish_end = 0.0

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

    def install(self):
        def timed_preimage(preimage):
            # every record builds htilde with the fields it pulls back
            build = self.timed("htilde build", preimage)

            def solve(map_, y, fields):
                x, pull = build(map_, y, fields)
                return x, self.timed("pull-back", pull)

            return solve

        def polish(sup_norm):
            timed = self.timed("polish", sup_norm)

            def wrapper(*args):
                seeds = self.spent["seed grid"]
                try:
                    return timed(*args)
                finally:
                    # the seed grid inside the call is its own layer
                    self.spent["polish"] -= self.spent["seed grid"] - seeds

            return wrapper

        def later_stages(rk4):
            return lambda y0, rhs, dt, k1: rk4(y0, self.timed("later stages", rhs), dt, k1)

        def finish(_finish):
            timed = self.timed("finish", _finish)

            def wrapper(*args):
                try:
                    return timed(*args)
                finally:
                    self.finish_end = time.perf_counter()

            return wrapper

        self.wrap(brackets.MonotoneMap, "preimage", timed_preimage)
        self.wrap(SpectralGrid, "spread", partial(self.timed, "spread"))
        self.wrap(energies, "_build_blocks", partial(self.timed, "blocks"))
        self.wrap(SpectralGrid, "_sup_seeds", partial(self.timed, "seed grid"))
        self.wrap(SpectralGrid, "sup_norm", polish)
        for name in ("l2_norm", "hhalf_norm"):
            self.wrap(SpectralGrid, name, partial(self.timed, "l2 + hhalf"))
        self.wrap(evolution, "_first_stage", partial(self.timed, "stage 1"))
        self.wrap(evolution, "rk4", later_stages)
        self.wrap(evolution, "_finish", finish)

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def profile(workload):
    """The samples of one seed-0 run of workload, {"step": rows, "record":
    rows} with one row per step or record of the run, in run order: its
    {layer: seconds} raw, the same scaled by the unit's normalised / raw
    ratio of timing.Recorder, and its minor faults.  A workload of
    PAIR_WORKLOADS steps by co_step and records by gate.record, any other
    steps by step_rk4 and records nothing."""
    x, cfg, dt, n_steps = workload.setup(0)
    timers, rec = LayerTimers(), Recorder()
    spent, units = timers.spent, {"step": [], "record": []}

    def unit(phase, call, *args):
        for layer in spent:
            spent[layer] = 0.0
        t0 = rec.begin(phase)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = call(*args)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        t1 = rec.end(phase, t0)
        spent[phase] = t1 - t0
        if phase == "step":
            spent["post-step guards"] = t1 - timers.finish_end
        units[phase].append((dict(spent), faults))
        return out

    if workload.name in PAIR_WORKLOADS:
        step, recorded, every = cw.co_step, partial(unit, "record", record), workload.record_every
    else:
        step, recorded, every = cw.step_rk4, lambda _: None, n_steps
    timers.install()
    try:
        drive(x, partial(unit, "step", step), cfg, dt, n_steps, recorded, every)
    finally:
        timers.remove()
    rec.close()
    return {phase: [(raw, {layer: t * s / whole for layer, t in raw.items()}, faults)
                    for (raw, faults), s, whole
                    in zip(rows, rec.normalised(phase), rec.times[phase])]
            for phase, rows in units.items()}


def table(name, rows, layers):
    """Print each layer's raw and scaled medians over rows in ms, then the
    median and the mean minor faults."""
    for layer in layers:
        raw_ms, scaled_ms = (1e3 * np.median([row[i][layer] for row in rows]) for i in (0, 1))
        print(f"{name:<20}{layer:<18}{raw_ms:9.4f}{scaled_ms:11.4f}")
    faults = [row[2] for row in rows]
    print(f"{name:<20}{'minor faults':<18}{np.median(faults):9.1f}{np.mean(faults):11.1f}")


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}; one seed-0 run of each workload; median ms per record or "
          f"step, raw and scaled as benchmarks/run.py scales them; minor faults median, mean")
    print(f"{'workload':<20}{'layer':<18}{'raw ms':>9}{'scaled ms':>11}")
    for name, workload in WORKLOADS.items():
        samples = profile(workload)
        if samples["record"]:
            table(name, samples["record"], RECORD_LAYERS)
        table(name, samples["step"], STEP_LAYERS)


if __name__ == "__main__":
    main()
