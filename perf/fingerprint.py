"""Byte-level fingerprint of the benchmark's seed-0 runs.

Run from the repository root:

    python3 perf/fingerprint.py

It runs the three workloads of benchmarks/workloads.py as the benchmark
does, from their own set-up and with their step and record calls, and
feeds a SHA-256 with the bytes of every state's Zdev, Zp and Zt, both maps'
deviation and jac, htilde at each record, and every record component, in
run order.  It prints one digest per workload and then the digest of all
three.  Two trees that print the same last line ran every workload to the
same bits, so a change meant to keep every number can be checked with one
command on each tree.  crestwave is imported from the src/ directory
beside this one; the workloads module is only read.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import crestwave as cw  # noqa: E402
from crestwave.evolution import drive  # noqa: E402


def _feed(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def _feed_state(h, state):
    _feed(h, state.Zdev, state.Zp, state.Zt)


def _feed_report(h, report):
    for name, value in report.components.items():
        h.update(name.encode())
        _feed(h, np.float64(value))


def feed_pair_run(h, pair, cfg, dt, n_steps, record_every):
    """Step pair through evolution.drive by n_steps co_steps of dt and feed
    h with both states and both maps after every step, and with htilde and
    the components of E_delta, F_delta and E_sigma(a) at each record: at
    the start, every record_every steps and after the last, the calls of
    the benchmark's pair record in its order.  Returns the last pair."""

    def record(p):
        der_a, der_b = cw.compute_derived(p.state_a), cw.compute_derived(p.state_b)
        _feed_report(h, cw.energy_delta(p))
        _feed_report(h, cw.f_delta_norm(p, der_a, der_b))
        _feed_report(h, cw.energy_sigma(p.state_a))
        _feed(h, p.map_tilde.deviation, p.map_tilde.jac)

    def feed(p):
        _feed_state(h, p.state_a)
        _feed_state(h, p.state_b)
        _feed(h, p.k_a.deviation, p.k_a.jac, p.k_b.deviation, p.k_b.jac)
        return p

    def step(p, cfg, dt):
        return feed(cw.co_step(p, cfg, dt))

    return drive(feed(pair), step, cfg, dt, n_steps, record, record_every)


def feed_dispersion_run(h, state, cfg, dt, n_steps, k):
    """Step state through evolution.drive by n_steps step_rk4s of dt and
    feed h with the state and the benchmark's record, the real part of mode
    -k of conj(Z_t), after every step, so drive records nothing.  Returns
    the last state."""

    def step(s, cfg, dt):
        s = cw.step_rk4(s, cfg, dt)
        _feed_state(h, s)
        _feed(h, np.float64(s.grid.coeffs(np.conj(s.Zt))[-k].real))
        return s

    _feed_state(h, state)
    return drive(state, step, cfg, dt, n_steps, lambda s: None, n_steps)


def workload_digests(seed=0):
    """{workload name: SHA-256 hex digest} of every benchmark workload at
    seed, and "all": the digest of every workload's bytes in turn."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS, DispersionWorkload

    total = hashlib.sha256()
    out = {}
    for name, workload in WORKLOADS.items():
        h = hashlib.sha256()
        if isinstance(workload, DispersionWorkload):
            feed_dispersion_run(h, *workload.setup(seed), workload.k)
        else:
            feed_pair_run(h, *workload.setup(seed), workload.record_every)
        out[name] = h.hexdigest()
        total.update(h.digest())
    out["all"] = total.hexdigest()
    return out


def main():
    for name, digest in workload_digests().items():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
