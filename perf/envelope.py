"""The rounding gate: how far the seed-0 record totals of the benchmark's
pair workloads move from a reference, against the one-ulp envelopes.

Run from the repository root:

    python3 perf/envelope.py                               # compare with REFERENCE
    python3 perf/envelope.py --write FILE --label COMMIT   # write a reference

For pair_eps05 and pair_record_n2048 of benchmarks/workloads.py it steps
the seed-0 run as the benchmark does and keeps, at every record, the totals
of E_delta, F_delta and E_sigma(a).  Their envelopes are the same runs with
Re Z_t, and separately Im Z_t, raised one ulp at every node at t = 0, in
both solutions (solution b is rebuilt as the zero-tension twin of the
raised a), with the same dt: the largest relative move of each total over
all records.

A reference holds a tree's totals and envelopes.  The comparison prints,
for each workload and total, the largest relative move over all records
of this tree's totals from the reference's, and the two envelopes.  The
gate: each total moves at most the larger of its two envelopes.  It exits
with status 1 if a total moves more.  A change that removes a rounding
defect can exceed the gate legitimately, and says which defect it removes.

REFERENCE was written from a `git archive` of the commit it names, with
this script copied into it; the envelopes depend on numpy's transforms and
the machine's floating point, so the reference records both.  crestwave is
imported from the src/ directory beside this one; benchmarks/ is only
read.
"""

from __future__ import annotations

import argparse
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
from workloads import WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "envelope_reference.json"
WORKLOAD_NAMES = ("pair_eps05", "pair_record_n2048")
TOTALS = ("E_delta", "F_delta", "E_sigma_a")
BUMPS = ("re", "im")


def raised(pair, part):
    """pair with the part ("re" or "im") of Z_t of both solutions raised one
    ulp at every node: b is the zero-tension twin of the raised a."""
    a = pair.state_a
    Zt = a.Zt.copy()
    values = getattr(Zt, "real" if part == "re" else "imag")
    values[...] = np.nextafter(values, np.inf)
    return twin_pair(replace(a, Zt=Zt))


def record_totals(workload, bump=None):
    """{total: [value at each record]} of the workload's seed-0 run, with
    the benchmark's record calls at its records; bump ("re" or "im") raises
    that part of Z_t one ulp at t = 0 (raised), with the dt of the unraised
    run."""
    pair, cfg, dt, n_steps = workload.setup(0)
    if bump is not None:
        pair = raised(pair, bump)
    totals = {name: [] for name in TOTALS}

    def record(p):
        der_a, der_b = cw.compute_derived(p.state_a), cw.compute_derived(p.state_b)
        totals["E_delta"].append(cw.energy_delta(p).total)
        totals["F_delta"].append(cw.f_delta_norm(p, der_a, der_b).total)
        totals["E_sigma_a"].append(cw.energy_sigma(p.state_a).total)

    drive(pair, cw.co_step, cfg, dt, n_steps, record, workload.record_every)
    return totals


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
    parser.add_argument("--label", default="", help="the commit the written reference is of")
    args = parser.parse_args(argv)
    workloads = {name: WORKLOADS[name] for name in WORKLOAD_NAMES}
    if args.write:
        out = {"commit": args.label, "python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "workloads": reference(workloads)}
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
        return 0
    ref = json.loads(REFERENCE.read_text())
    print(f"reference {ref['commit']} (numpy {ref['numpy']}), this tree numpy {np.__version__}")
    print(f"{'workload':<20}{'total':<11}{'move':>10}{'Re env':>10}{'Im env':>10}  gate")
    rows = compare(ref["workloads"], {name: record_totals(w) for name, w in workloads.items()})
    for name, t, move, re, im, within in rows:
        print(f"{name:<20}{t:<11}{move:10.2e}{re:10.2e}{im:10.2e}  {'ok' if within else 'ABOVE'}")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
