"""Command-line harness: single runs, pair runs, parameter sweeps.

Subcommands
-----------
simulate         one solution to t_final with energy time series
pair             co-evolve a (sigma, 0) pair from identical data
sweep            grid of pair runs over study.sigma_list x epsilon_list
crest-scaling    curvature of mollified crests across epsilon at t = 0
validate-config  parse and validate a config file

Exit codes: 0 ok, 2 config, 3 CFL, 4 degeneracy, 5 holomorphicity,
6 partial study (some sweep runs failed).

Cost note: the explicit stepper resolves the capillary dispersion at the
grid Nyquist mode, so the step count per unit time grows like
sqrt(k_max + sigma k_max^3); budget sigma * n_points^3 accordingly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import parse_config
from .energies import state_energies
from .errors import (
    CFLViolationError,
    ConfigError,
    CrestwaveError,
    DegenerateJacobianError,
    HolomorphicityError,
    MonotonicityError,
)
from .evolution import (
    StepperConfig,
    cfl_bound,
    compute_derived,
    drive,
    flat_state,
    plan_steps,
    step_rk4,
)
from .initial_data import CrestSpec, crest_data
from .pair import (
    PairRunResult,
    PairRunSpec,
    drive_pair,
    fit_loglog,
    run_convergence_study,
    twin_pair,
)
from .spectral import SpectralGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_DEGENERACY = 4
EXIT_HOLOMORPHICITY = 5
EXIT_PARTIAL = 6


def write_csv(path, kind, header, rows):
    """The package's one CSV writer, which makes the directory of path: the
    schema line naming kind, the header line, then one line per row of text
    cells."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# crestwave-csv v1 {kind}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_reports_csv(path, reports):
    """One CSV per family: header `time,<columns>,total`, then one row per
    report at full precision.  The reports must all be of one family and
    carry its columns in order, so the header is the family's term table;
    this is checked before the file is opened, so a refused list writes
    nothing."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to write")
    family, columns = reports[0].family, reports[0].columns
    for r in reports:
        if r.family != family or tuple(r.components) != columns:
            raise ValueError(f"a {family} CSV takes {family} reports with its columns only, "
                             f"not the {r.family} report at t = {r.time:.6g}")
    write_csv(path, f"family={family}", ("time", *columns, "total"),
              (["%.17g" % v for v in (r.time, *r.components.values(), r.total)] for r in reports))


def _write_report(outdir, name, args, **report):
    """Write the JSON report `name` of a command, after its CSVs have made
    outdir: the fields of report with the subcommand and --seed of args."""
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump({"command": args.command, "seed": args.seed, **report}, fh,
                  indent=2, sort_keys=True)


def build_initial_state(cfg):
    """Initial WaveState from the [grid]/[data]/[physics] blocks; a
    checkpoint that cannot be loaded, whose grid is not the [grid] grid, or
    whose time is not below physics.t_final, the end time of the run,
    raises ConfigError."""
    g = cfg.grid
    grid = SpectralGrid(g.n_points, g.length, g.dealias)
    d = cfg.data
    if d.kind == "flat":
        state = flat_state(grid, cfg.physics.sigma)
    elif d.kind == "crest":
        state = crest_data(_crest_spec(d), grid, sigma=cfg.physics.sigma, epsilon=d.epsilon)
    else:
        try:
            state = load_checkpoint(d.checkpoint)
        except (OSError, ValueError) as exc:
            raise ConfigError([f"data.checkpoint {d.checkpoint!r}: {exc}"]) from None
        if state.grid != grid:
            raise ConfigError(
                [f"data.checkpoint {d.checkpoint!r}: {state.grid!r} differs from [grid] {grid!r}"]
            )
        if not state.time < cfg.physics.t_final:
            raise ConfigError([f"data.checkpoint {d.checkpoint!r}: its time {state.time!r} is not "
                               f"below physics.t_final = {cfg.physics.t_final!r}"])
        state = replace(state, sigma=cfg.physics.sigma)
    return state


def _crest_spec(d):
    """The CrestSpec of the crest keys of [data] block d, the one place they
    are mapped: a single run and every pair run build their crest from it."""
    return CrestSpec(
        nu=d.nu,
        regularization_delta=d.delta,
        velocity_amplitude=complex(d.vel_amp_re, d.vel_amp_im),
        velocity_mode=d.vel_mode,
    )


def cmd_simulate(cfg, outdir, args):
    state = build_initial_state(cfg)
    stepper = StepperConfig(cfg.stepper.dt_safety)
    # a checkpoint's run goes on from its time to t_final
    dt, n_steps = plan_steps(
        cfl_bound(state), cfg.physics.t_final - state.time, stepper, 1, cfg.stepper.max_steps
    )
    # by default, zero-surface-tension runs record the higher-order and
    # auxiliary energies alongside
    default = ["sigma", "high", "aux"] if cfg.physics.sigma == 0.0 else ["sigma"]
    families = list(cfg.output.families) or default
    series = {f: [] for f in families}

    def record(st):
        for f, report in zip(families, state_energies(st, families)):
            series[f].append(report)

    state = drive(state, step_rk4, stepper, dt, n_steps, record, cfg.output.record_interval)

    for f in families:
        write_reports_csv(os.path.join(outdir, f"energy_{f}.csv"), series[f])
    save_checkpoint(os.path.join(outdir, "final.ckpt"), state)
    _write_report(
        outdir, "run_report.json", args,
        n_steps=n_steps,
        dt=dt,
        t_final=state.time,
        families=families,
        final_energy={f: series[f][-1].to_json_dict() for f in families},
    )
    return EXIT_OK


def cmd_pair(cfg, outdir, args):
    spec = _pair_spec(cfg, cfg.physics.sigma, cfg.data.epsilon)
    result = PairRunResult(spec)
    drive_pair(twin_pair(build_initial_state(cfg)), result)

    write_reports_csv(os.path.join(outdir, "energy_delta.csv"), result.delta_reports)
    write_reports_csv(os.path.join(outdir, "energy_f_delta.csv"), result.f_delta_reports)
    write_reports_csv(os.path.join(outdir, "energy_sigma_a.csv"), result.sigma_a_reports)
    _write_report(
        outdir, "pair_report.json", args,
        sigma=spec.sigma,
        n_steps=result.n_steps,
        dt=result.dt,
        e_delta_initial=result.e_delta_initial,
        e_delta_sup=result.e_delta_sup,
        growth_ratio=result.growth_ratio if result.e_delta_initial > 0 else None,
        f_delta_sup=result.f_delta_sup,
    )
    return EXIT_OK


def _pair_spec(cfg, sigma, epsilon):
    """PairRunSpec of one (sigma, epsilon) point of the config."""
    g = cfg.grid
    return PairRunSpec(
        sigma=sigma,
        epsilon=epsilon,
        **vars(_crest_spec(cfg.data)),
        n_points=g.n_points,
        length=g.length,
        dealias=g.dealias,
        t_final=cfg.physics.t_final,
        dt_safety=cfg.stepper.dt_safety,
        min_steps=cfg.study.min_steps,
        max_steps=cfg.stepper.max_steps,
        record_every=cfg.output.record_interval,
    )


def _study_specs(cfg):
    su = cfg.study
    if su.couple == "eps32":
        pairs = [(float(e) ** 1.5, float(e)) for e in su.epsilon_list]
    else:
        sigmas = su.sigma_list or (cfg.physics.sigma,)
        epsilons = su.epsilon_list or (cfg.data.epsilon,)
        pairs = [(float(s), float(e)) for s in sigmas for e in epsilons]
    return [_pair_spec(cfg, s, e) for s, e in pairs]


def cmd_sweep(cfg, outdir, args):
    violations = []
    if cfg.data.kind != "crest":
        # every sweep run builds its pair from the crest of [data]
        violations.append(f"sweep takes data.kind = crest only, got {cfg.data.kind!r}")
    if cfg.study.couple == "eps32" and not cfg.study.epsilon_list:
        violations.append("sweep with study.couple = eps32 needs a study.epsilon_list")
    if cfg.study.couple == "eps32" and cfg.study.sigma_list:
        # eps32 takes each sigma as eps^(3/2), so a sigma_list would be dropped
        violations.append("sweep with study.couple = eps32 takes no study.sigma_list")
    if violations:
        raise ConfigError(violations)
    specs = _study_specs(cfg)
    result = run_convergence_study(specs, jobs=args.jobs or cfg.study.jobs)

    # each run's tag names its CSVs and, for a failed run, its failure
    tags = [f"run_{idx:03d}_sigma{run.spec.sigma:.3e}_eps{run.spec.epsilon:.3e}"
            for idx, run in enumerate(result.runs)]
    long_rows = []
    for idx, (tag, run) in enumerate(zip(tags, result.runs)):
        if run.delta_reports:
            write_reports_csv(os.path.join(outdir, tag + "_delta.csv"), run.delta_reports)
            write_reports_csv(os.path.join(outdir, tag + "_f_delta.csv"), run.f_delta_reports)
        for fam, reports in (("delta", run.delta_reports), ("f_delta", run.f_delta_reports)):
            for rep in reports:
                for comp, val in rep.components.items():
                    long_rows.append([str(x) for x in (idx, run.spec.sigma, run.spec.epsilon,
                                                       rep.time, fam, comp, val)])
    write_csv(os.path.join(outdir, "study_long.csv"), "study-long",
              ("run", "sigma", "epsilon", "time", "family", "component", "value"), long_rows)

    # one row per run; the error message keeps its commas as semicolons
    write_csv(
        os.path.join(outdir, "study_summary.csv"), "study-summary",
        ("sigma", "epsilon", "ok", "error", "n_steps", "dt",
         "e_delta_initial", "e_delta_sup", "growth_ratio", "f_delta_sup"),
        ([str(v).replace(",", ";") for v in (
            r.spec.sigma, r.spec.epsilon, int(r.ok), r.error, r.n_steps, r.dt,
            r.e_delta_initial, r.e_delta_sup, r.growth_ratio, r.f_delta_sup)]
         for r in result.runs),
    )

    n_failed = sum(1 for r in result.runs if not r.ok)
    _write_report(
        outdir, "study_fits.json", args,
        # the fits of the study, by their StudyResult field names
        **{f.name: getattr(result, f.name) for f in fields(result) if f.name != "runs"},
        n_runs=len(result.runs),
        n_failed=n_failed,
        failures={tag: r.error for tag, r in zip(tags, result.runs) if not r.ok},
    )
    return EXIT_PARTIAL if n_failed else EXIT_OK


def cmd_crest_scaling(cfg, outdir, args):
    d = cfg.data
    eps_list = tuple(cfg.study.epsilon_list) or (0.2, 0.1, 0.05, 0.025)
    rows = []
    for eps in eps_list:
        # the crest of [data], whatever its kind, mollified at eps
        st = build_initial_state(replace(cfg, data=replace(d, kind="crest", epsilon=eps)))
        rows.append((eps, float(np.max(np.abs(compute_derived(st).Theta.real)))))
    slope = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
    write_csv(os.path.join(outdir, "crest_scaling.csv"), "crest-scaling",
              ("epsilon", "curvature_sup"), (["%.17g" % v for v in row] for row in rows))
    _write_report(outdir, "crest_scaling.json", args,
                  nu=d.nu, slope=slope, target=-d.nu, rows=rows)
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "pair": cmd_pair,
    "sweep": cmd_sweep,
    "crest-scaling": cmd_crest_scaling,
}

# (error kind, stderr label, exit code) of a failed run; the first kind that
# matches wins, so the base class comes last.  A ConfigError (a checkpoint
# that cannot be loaded or has another grid, a sweep of data other than
# crest, an eps32 sweep without epsilons or with sigmas) prints its
# violations instead.
FAILURES = (
    (CFLViolationError, "CFL failure", EXIT_CFL),
    (DegenerateJacobianError, "degeneracy failure", EXIT_DEGENERACY),
    (HolomorphicityError, "holomorphicity failure", EXIT_HOLOMORPHICITY),
    (MonotonicityError, "degeneracy failure (map)", EXIT_DEGENERACY),
    (CrestwaveError, "run failure", 1),
)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="crestwave",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default=None, help="output directory (overrides [output])")
        p.add_argument("--seed", type=int, default=0, help="recorded in outputs")
        if name == "sweep":
            p.add_argument("--jobs", type=_jobs, default=None, help="parallel sweep runs")
    return ap


def _jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _config_failure(exc):
    for v in exc.violations:
        print(f"config error: {v}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        return _config_failure(exc)

    if args.command == "validate-config":
        print("config ok")
        return EXIT_OK

    outdir = args.out or cfg.output.directory
    try:
        return COMMANDS[args.command](cfg, outdir, args)
    except ConfigError as exc:
        return _config_failure(exc)
    except CrestwaveError as exc:
        label, code = next((lab, code) for kind, lab, code in FAILURES if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
