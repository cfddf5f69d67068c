"""Phase timing, and scaling of wall times to a reference machine speed.

The machine the benchmark was written on (2 shared cores) runs the same
`co_step` anywhere from 15 to 30 ms, in swings that last from a second to
a whole run, so raw medians of two runs can differ by a third.  A fixed
pure-numpy kernel (`ReferenceKernel`: FFT, multiplier and elementwise
work, no crestwave code) slows down with the machine and not with
crestwave.  The recorder times that kernel after every `REF_EVERY_S` of
measured work, and `normalised()` scales each
sample by REF_S / (mean kernel time just before and just after it).  A
scaled time reads as the time the sample takes when the kernel takes
REF_S, its time on that machine when uncontended.  Over ten runs the
quartile spread of the scaled step medians was 2-3%, against 11-22% for
the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

REF_N = 768
REF_ITERS = 20
REF_S = 0.6e-3
REF_EVERY_S = 0.02
PHASES = ("setup", "step", "record", "checkpoint", "analysis")


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x0 = rng.standard_normal(REF_N) + 1j * rng.standard_normal(REF_N)
        self.symbol = np.exp(-np.abs(np.fft.fftfreq(REF_N, 1.0 / REF_N)) / REF_N)

    def __call__(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        x = self.x0
        for _ in range(REF_ITERS):
            x = np.fft.ifft(self.symbol * np.fft.fft(x)) * self.x0 + 1.0
        return time.perf_counter() - t0


class Recorder:
    """Collects per-phase wall times and times the reference kernel between
    them; with a tracer, also opens a phase span around each phase.

    `begin` returns the start time that `end` needs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {phase: [] for phase in PHASES}
        self._kernel = ReferenceKernel()
        self._ref = []  # kernel times, in order
        self._at = {phase: [] for phase in PHASES}  # kernel passes before each sample
        self._since_ref = 0.0

    def begin(self, phase):
        if not self._ref:
            self._ref.append(self._kernel())
        if self.tracer is not None:
            self.tracer.open_phase(phase)
        return time.perf_counter()

    def end(self, phase, t0):
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.close_phase()
        self.times[phase].append(t1 - t0)
        self._at[phase].append(len(self._ref))
        self._since_ref += t1 - t0
        if self._since_ref >= REF_EVERY_S:
            self.close()
        return t1

    def close(self):
        """Time the kernel once more, so the last samples have one after them."""
        self._ref.append(self._kernel())
        self._since_ref = 0.0

    def normalised(self, phase):
        """Samples of `phase` scaled to the reference speed; needs `close()`
        after the last sample."""
        ref = self._ref
        return [
            t * REF_S / (0.5 * (ref[k - 1] + ref[k]))
            for t, k in zip(self.times[phase], self._at[phase])
        ]

    def reference_p50(self):
        return float(np.median(self._ref))
