"""The gate of a change's numbers: the bytes and the record totals of the
benchmark's seed-0 runs.

Run from the repository root:

    python3 perf/gate.py                               # digests, then compare with REFERENCE
    python3 perf/gate.py --write FILE --label COMMIT   # write a reference; both or neither

It runs each workload of benchmarks/workloads.py once at seed 0 as the
benchmark does, from its own set-up and with its step and record calls.

Bytes.  Each run feeds a SHA-256 with every state's Zdev, Zp and Zt, both
maps' deviation and jac, htilde at each record, and every record
component, in run order.  It prints one digest per workload, then the
digest of all three: two trees that print the same last one ran every
workload to the same bits.

Rounding.  The pair runs keep, at every record, the totals of E_delta,
F_delta and E_sigma(a).  Their envelopes are the largest relative moves
over all records of the same runs, with the same dt, with Re Z_t, and
separately Im Z_t, raised one ulp at every node at t = 0 in both
solutions.  A reference holds a tree's totals and envelopes.  The script
prints each total's largest relative move from the reference's beside the
two envelopes, and exits with status 1 if a total moves more than the
larger one.  A change that removes a rounding defect can exceed the gate
legitimately, and says which defect it removes.

REFERENCE was written from a `git archive` of the commit it names; the
envelopes depend on numpy's transforms and the machine's floating point,
so the reference records both, and the script exits with status 2, naming
the reference's value and this tree's, when either differs.  crestwave is
imported from the src/ directory beside this one; benchmarks/ is only
read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import crestwave as cw  # noqa: E402
from crestwave.evolution import drive  # noqa: E402
from crestwave.pair import twin_pair  # noqa: E402
from workloads import WORKLOADS, PairWorkload  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "envelope_reference.json"
PAIR_WORKLOADS = {name: w for name, w in WORKLOADS.items() if isinstance(w, PairWorkload)}
TOTALS = ("E_delta", "F_delta", "E_sigma_a")
BUMPS = ("re", "im")


def _feed(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


def _feed_state(h, state):
    _feed(h, state.Zdev, state.Zp, state.Zt)


def record(p):
    """The benchmark's record calls on the pair p, in its order: the
    reports of E_delta, F_delta and E_sigma(a)."""
    der_a, der_b = cw.compute_derived(p.state_a), cw.compute_derived(p.state_b)
    return cw.energy_delta(p), cw.f_delta_norm(p, der_a, der_b), cw.energy_sigma(p.state_a)


def pair_run(h, pair, cfg, dt, n_steps, record_every):
    """{total: [value at each record]} of pair stepped through
    evolution.drive by n_steps co_steps of dt, with the benchmark's record
    at the start, every record_every steps and after the last.  A hash h
    (None for none) is fed both states and both maps at the start and after
    every step, and every component of the records and htilde at each
    record."""
    totals = {name: [] for name in TOTALS}

    def feed(p):
        if h is not None:
            _feed_state(h, p.state_a)
            _feed_state(h, p.state_b)
            _feed(h, p.k_a.deviation, p.k_a.jac, p.k_b.deviation, p.k_b.jac)
        return p

    def recorded(p):
        reports = record(p)
        for name, report in zip(TOTALS, reports):
            totals[name].append(report.total)
        if h is not None:
            for report in reports:
                for name, value in report.components.items():
                    h.update(name.encode())
                    _feed(h, np.float64(value))
            _feed(h, p.map_tilde.deviation, p.map_tilde.jac)

    def step(p, cfg, dt):
        return feed(cw.co_step(p, cfg, dt))

    drive(feed(pair), step, cfg, dt, n_steps, recorded, record_every)
    return totals


def dispersion_run(h, state, cfg, dt, n_steps, k):
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


def workload_digests():
    """({workload name: SHA-256 hex digest}, {pair workload name:
    pair_run totals}) of one seed-0 run of every benchmark workload; the
    digests end with "all", the digest of every workload's bytes in
    turn."""
    total = hashlib.sha256()
    digests, totals = {}, {}
    for name, workload in WORKLOADS.items():
        h = hashlib.sha256()
        if name in PAIR_WORKLOADS:
            totals[name] = pair_run(h, *workload.setup(0), workload.record_every)
        else:
            dispersion_run(h, *workload.setup(0), workload.k)
        digests[name] = h.hexdigest()
        total.update(h.digest())
    digests["all"] = total.hexdigest()
    return digests, totals


def record_totals(workload, bump=None):
    """pair_run totals of the workload's seed-0 run, unhashed; bump ("re"
    or "im") raises that part of Z_t of both solutions one ulp at every
    node at t = 0, with the dt of the unraised run: b is rebuilt as the
    zero-tension twin of the raised a."""
    pair, cfg, dt, n_steps = workload.setup(0)
    if bump is not None:
        Zt = pair.state_a.Zt.copy()
        values = Zt.real if bump == "re" else Zt.imag
        values[...] = np.nextafter(values, np.inf)
        pair = twin_pair(replace(pair.state_a, Zt=Zt))
    return pair_run(None, pair, cfg, dt, n_steps, workload.record_every)


def largest_move(values, base):
    """The largest relative move |v - b| / |b| of values from base over
    all records; a move from 0 is infinite, no move is 0."""
    if len(values) != len(base):
        raise ValueError(f"{len(values)} records against {len(base)} in the reference")
    moves = [0.0 if v == b else abs(v - b) / abs(b) if b else float("inf")
             for v, b in zip(values, base)]
    return max(moves)


def reference(workloads):
    """{workload name: {"totals": record_totals, "envelopes": {bump: {total:
    largest move}}}} of the workloads, {name: workload}."""
    out = {}
    for name, workload in workloads.items():
        totals = record_totals(workload)
        envelopes = {}
        for bump in BUMPS:
            bumped = record_totals(workload, bump)
            envelopes[bump] = {t: largest_move(bumped[t], totals[t]) for t in TOTALS}
        out[name] = {"totals": totals, "envelopes": envelopes}
    return out


def compare(ref, totals):
    """Rows (workload, total, move, Re envelope, Im envelope, within) of the
    totals, {workload name: record_totals}, against the reference ref;
    within is whether the move is at most the larger envelope."""
    rows = []
    for name, own in totals.items():
        base, env = ref[name]["totals"], ref[name]["envelopes"]
        for t in TOTALS:
            move = largest_move(own[t], base[t])
            re, im = env["re"][t], env["im"][t]
            rows.append((name, t, move, re, im, move <= max(re, im)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--write", metavar="FILE",
                        help="write this tree's totals and envelopes to FILE instead")
    parser.add_argument("--label", help="the commit the written reference is of")
    args = parser.parse_args(argv)
    # a reference names the commit it is of
    if bool(args.write) != bool(args.label):
        parser.error("--write FILE and --label COMMIT go together")
    if args.write:
        out = {"commit": args.label, "python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "workloads": reference(PAIR_WORKLOADS)}
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
        return 0
    digests, totals = workload_digests()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    ref = json.loads(REFERENCE.read_text())
    here = {"numpy": np.__version__, "machine": platform.machine()}
    foreign = [f"{key} {ref.get(key)} in the reference, {value} here"
               for key, value in here.items() if ref.get(key) != value]
    if foreign:
        print(f"the envelopes of {REFERENCE.name} do not apply: {'; '.join(foreign)}",
              file=sys.stderr)
        return 2
    print(f"reference {ref['commit']} (numpy {ref['numpy']}, {ref['machine']})")
    print(f"{'workload':<20}{'total':<11}{'move':>10}{'Re env':>10}{'Im env':>10}  gate")
    rows = compare(ref["workloads"], totals)
    for name, t, move, re, im, within in rows:
        print(f"{name:<20}{t:<11}{move:10.2e}{re:10.2e}{im:10.2e}  {'ok' if within else 'ABOVE'}")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
