"""crestwave benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload pair_eps05 --seed 0 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off, repeating
the workload once per 15 s of `--seconds` (at least once).  Times are
scaled to a reference machine speed (see timing.py); the raw wall-clock
medians are printed next to them.  `--trace 1` runs the workload twice
untraced and twice traced, reports per-layer metrics from the traced spans
(times scaled the same way) and the tracing overhead against the untraced
runs, and times the layer table (layers.py, raw wall clock).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit and give the provenance of the run.  A run that
misses its fingerprint gate or raises a CrestwaveError counts as failed.

crestwave is imported from the `src/` directory beside this one and from
nowhere else; without it the benchmark exits with code 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# one repetition of each workload takes 10 to 19 s on the 2-core machine
# the benchmark was written on; the repetition count depends only on
# --seconds, so two commits always run the same work
REP_SECONDS = 15.0
SETUP_BATCH = 25
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# (metric, traced function, statistic, phase); ms and calls are divided by
# the phase's step or record count, or by the call count for set-up and
# checkpoint phases
SPAN_METRICS = (
    ("spectral.multiply_symbol.calls_per_step", "spectral.SpectralGrid.multiply_symbol", "calls", "step"),
    ("spectral.multiply_symbol.ms_per_step", "spectral.SpectralGrid.multiply_symbol", "ms", "step"),
    ("spectral.interpolate.calls_per_step", "spectral.SpectralGrid.interpolate", "calls", "step"),
    ("spectral.interpolate.ms_per_step", "spectral.SpectralGrid.interpolate", "ms", "step"),
    ("spectral.interpolate.calls_per_record", "spectral.SpectralGrid.interpolate", "calls", "record"),
    ("spectral.interpolate.ms_per_record", "spectral.SpectralGrid.interpolate", "ms", "record"),
    ("spectral.sup_norm.ms_per_record", "spectral.SpectralGrid.sup_norm", "ms", "record"),
    ("evolution.compute_derived.calls_per_step", "evolution.compute_derived", "calls", "step"),
    ("evolution.compute_derived.ms_per_step", "evolution.compute_derived", "ms", "step"),
    ("evolution.rhs_eulerian.ms_per_step", "evolution.rhs_eulerian", "ms", "step"),
    ("evolution.step_rk4.self_ms_per_step", "evolution.step_rk4", "self_ms", "step"),
    ("brackets.inverse.calls_per_step", "brackets.MonotoneMap.inverse", "calls", "step"),
    ("brackets.inverse.ms_per_step", "brackets.MonotoneMap.inverse", "ms", "step"),
    ("brackets.inverse.calls_per_record", "brackets.MonotoneMap.inverse", "calls", "record"),
    ("brackets.compose_maps.ms_per_step", "brackets.compose_maps", "ms", "step"),
    ("pair.co_step.self_ms_per_step", "pair.co_step", "self_ms", "step"),
    ("pair.build_pair.ms", "pair.build_pair", "ms", "setup"),
    ("energies.energy_delta.ms_per_record", "energies.energy_delta", "ms", "record"),
    ("energies.f_delta_norm.ms_per_record", "energies.f_delta_norm", "ms", "record"),
    ("energies.energy_sigma.ms_per_record", "energies.energy_sigma", "ms", "record"),
    ("energies.energy_aux.ms_per_record", "energies.energy_aux", "ms", "record"),
    ("initial_data.crest_data.ms", "initial_data.crest_data", "ms", "setup"),
    ("initial_data.mollify_data.ms", "initial_data.mollify_data", "ms", "setup"),
    ("checkpoint.save.ms", "checkpoint.save_checkpoint", "ms", "checkpoint"),
    ("checkpoint.load.ms", "checkpoint.load_checkpoint", "ms", "checkpoint"),
)


def bootstrap():
    """Pin numpy to one thread and import crestwave from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import crestwave
    except ImportError as exc:
        problem = f"cannot import crestwave from {src}: {exc}"
    else:
        if Path(crestwave.__file__).resolve().is_relative_to(src):
            return
        problem = f"crestwave imported from {crestwave.__file__}, not from {src}"
    print(f"benchmark: {problem}", file=sys.stderr)
    sys.exit(2)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def provenance(workload, seed, reps, steps, records):
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "n": workload.n,
        "steps_per_rep": steps,
        "records_per_rep": records,
        "repeats": reps,
    }


def tail_percentile(n_samples):
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n_samples * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seed, seconds):
    """End-to-end metrics with tracing off; returns (result, notes, provenance).

    Times are scaled to the reference speed (see timing.py); the notes give
    the raw wall-clock medians next to them.
    """
    import resource

    import numpy as np

    from timing import PHASES, REF_S, Recorder
    from workloads import run_gated

    reps = max(1, round(seconds / REP_SECONDS))
    setup_recs = []

    def setups():
        # a recorder of its own brackets the batch with reference-kernel passes
        rec = Recorder()
        for _ in range(SETUP_BATCH):
            t0 = rec.begin("setup")
            workload.setup(seed)
            rec.end("setup", t0)
        rec.close()
        setup_recs.append(rec)

    setups()
    failures, recs = [], []
    for _ in range(reps):
        rec = Recorder()
        res = run_gated(workload, seed, rec, BENCH_DIR)
        rec.close()
        setups()
        if res.failure:
            failures.append(res.failure)
        else:
            good = res
            recs.append(rec)

    notes = [f"failed_fraction = {len(failures)}/{reps}"] + [f"failure: {f}" for f in failures]
    if not recs:
        return _result(reps, failures, {}), notes, None

    def pooled(phase, scaled=True, recorders=recs):
        return [
            t for r in recorders for t in (r.normalised(phase) if scaled else r.times[phase])
        ]

    setup_s = pooled("setup", recorders=setup_recs + recs)
    steps, records = pooled("step"), pooled("record")
    run_s = [sum(sum(r.normalised(ph)) for ph in PHASES if ph != "setup") for r in recs]
    tail = tail_percentile(len(steps))
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "run_s": _metric(statistics.median(run_s), "s"),
        "steps_per_s": _metric(len(steps) / sum(steps), "1/s"),
        "step_ms_p50": _metric(1e3 * statistics.median(steps), "ms"),
        "step_ms_p90": _metric(1e3 * float(np.percentile(steps, 90)), "ms"),
        "record_ms_p50": _metric(1e3 * statistics.median(records), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_steps = pooled("step", scaled=False)
    notes += [
        f"step_ms_tail = {1e3 * float(np.percentile(steps, tail)):.6g} ms (not bound): "
        f"p{tail:g} of {len(steps)} steps, the highest percentile with "
        f"{TAIL_MIN_BEYOND}+ samples beyond it",
        f"setup_s is the median of {len(setup_s)} set-ups; run_s the median of {len(run_s)} runs",
        "raw wall clock: "
        f"step_ms_p50 = {1e3 * statistics.median(raw_steps):.6g} ms, "
        f"record_ms_p50 = {1e3 * statistics.median(pooled('record', scaled=False)):.6g} ms, "
        f"setup_s = {statistics.median(pooled('setup', False, setup_recs + recs)):.6g} s, "
        f"reference kernel p50 = {1e3 * recs[0].reference_p50():.4g} ms "
        f"(scaled to {1e3 * REF_S:.4g} ms)",
    ]
    return _result(reps, failures, metrics), notes, provenance(
        workload, seed, reps, good.steps, good.records
    )


def traced_run(workload, seed):
    """Per-layer metrics from two traced repetitions; returns (result, notes,
    provenance)."""
    from contextlib import nullcontext

    from layers import layer_table
    from timing import PHASES, REF_S, Recorder
    from tracer import MODULES, PHASE_PREFIX, Tracer
    from workloads import run_gated

    # untraced, traced, traced, untraced, timed at the reference speed: a
    # drift in machine speed cancels out of the overhead ratio
    tracer = Tracer()
    scaled = {False: 0.0, True: 0.0}
    results, kernel_s = [], []
    for traced in (False, True, True, False):
        rec = Recorder(tracer if traced else None)
        with tracer.installed() if traced else nullcontext():
            res = run_gated(workload, seed, rec, BENCH_DIR)
        rec.close()
        if not res.failure:
            scaled[traced] += sum(sum(rec.normalised(phase)) for phase in PHASES)
        if traced:
            kernel_s.append(rec.reference_p50())
        results.append(res)
    failures = [r.failure for r in results if r.failure]
    if failures:
        return _result(len(results), failures, {}), [f"failure: {f}" for f in failures], None

    table = tracer.summary()
    res = results[-1]
    per = {"step": 2 * res.steps, "record": 2 * res.records}
    # span times are scaled to the reference speed like the end-to-end times
    ms = 1e3 * REF_S / statistics.median(kernel_s)

    def stat(fn, what, phase):
        calls, incl, self_s = table.get((fn, phase), (0, 0.0, 0.0))
        value = {"calls": calls, "ms": ms * incl, "self_ms": ms * self_s}[what]
        return value / (per.get(phase) or max(calls, 1))

    metrics = {}
    for name, fn, what, phase in SPAN_METRICS:
        metrics[name] = _metric(stat(fn, what, phase), "count" if what == "calls" else "ms")
    metrics["spectral.interpolate.dense_mb_per_call"] = _metric(
        16 * workload.n * 16 / 1e6, "MB"
    )
    metrics["checkpoint.bytes"] = _metric(res.checkpoint_bytes, "bytes")
    metrics["trace.overhead_frac"] = _metric(scaled[True] / scaled[False] - 1.0, "ratio")
    for mod in MODULES:
        rows = [v for (fn, _), v in table.items() if fn.startswith(mod + ".")]
        metrics[f"module.{mod}.calls"] = _metric(sum(r[0] for r in rows), "count")
        metrics[f"module.{mod}.self_ms"] = _metric(ms * sum(r[2] for r in rows), "ms")
    bench_self = sum(v[2] for (fn, _), v in table.items() if fn.startswith(PHASE_PREFIX))
    metrics["bench.self_ms"] = _metric(ms * bench_self, "ms")
    for name, ms in layer_table().items():
        metrics[name] = _metric(ms, "ms")

    notes = [
        f"traced {tracer.span_count()} spans in 2 runs taking {scaled[True]:.3f} s at the "
        f"reference speed; 2 untraced runs took {scaled[False]:.3f} s",
    ]
    return _result(len(results), [], metrics), notes, provenance(
        workload, seed, len(results), res.steps, res.records
    )


def _result(attempted, failures, metrics):
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def emit(result, notes, prov):
    """Print the notes, the provenance, one line per metric and, last, the
    result as one JSON object."""
    for line in notes:
        print(line)
    if prov is not None:
        print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None):
    bootstrap()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trace:
        emit(*traced_run(workload, args.seed))
    else:
        emit(*timed_run(workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
