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
from dataclasses import replace

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import parse_config
from .energies import energy_aux, energy_high, energy_sigma, write_reports_csv
from .errors import (
    CFLViolationError,
    ConfigError,
    CrestwaveError,
    DegenerateJacobianError,
    HolomorphicityError,
    MonotonicityError,
)
from .evolution import StepperConfig, cfl_bound, compute_derived, flat_state, plan_steps, step_rk4
from .initial_data import CrestSpec, crest_data, mollify_data
from .pair import PairRunResult, PairRunSpec, drive_pair, init_pair, run_convergence_study
from .spectral import SpectralGrid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_DEGENERACY = 4
EXIT_HOLOMORPHICITY = 5
EXIT_PARTIAL = 6

_FAMILY_FUNCS = {"sigma": energy_sigma, "high": energy_high, "aux": energy_aux}


def _stepper(cfg):
    s = cfg.stepper
    return StepperConfig(
        dt_safety=s.dt_safety,
        filter_on=s.filter_on,
        project_each_step=s.project_each_step,
        holo_tolerance=s.holo_tolerance,
    )


def build_initial_state(cfg):
    """Initial WaveState from the [grid]/[data]/[physics] blocks."""
    g = cfg.grid
    grid = SpectralGrid(g.n_points, g.length, g.dealias)
    d = cfg.data
    if d.kind == "flat":
        state = flat_state(grid, cfg.physics.sigma)
    elif d.kind == "crest":
        spec = CrestSpec(
            nu=d.nu,
            regularization_delta=d.delta,
            velocity_amplitude=complex(d.vel_amp_re, d.vel_amp_im),
            velocity_mode=d.vel_mode,
        )
        state = crest_data(spec, grid, sigma=cfg.physics.sigma)
        if d.epsilon > 0:
            state = mollify_data(state, d.epsilon)
    else:
        state = load_checkpoint(d.checkpoint)
        state = replace(state, sigma=cfg.physics.sigma)
    return state


def cmd_simulate(cfg, outdir, seed):
    state = build_initial_state(cfg)
    stepper = _stepper(cfg)
    dt, n_steps = plan_steps(
        cfl_bound(state), cfg.physics.t_final, stepper.dt_safety, 1, cfg.stepper.max_steps
    )
    families = [f for f in cfg.output.families if f in _FAMILY_FUNCS] or ["sigma"]
    if families == ["sigma"] and cfg.physics.sigma == 0.0:
        # zero-surface-tension runs record the higher-order and auxiliary
        # energies alongside by default
        families = ["sigma", "high", "aux"]
    series = {f: [] for f in families}

    def record(st):
        for f in families:
            series[f].append(_FAMILY_FUNCS[f](st))

    record(state)
    for i in range(n_steps):
        state = step_rk4(state, stepper, dt)
        if (i + 1) % cfg.output.record_interval == 0 or i + 1 == n_steps:
            record(state)

    os.makedirs(outdir, exist_ok=True)
    for f in families:
        write_reports_csv(os.path.join(outdir, f"energy_{f}.csv"), series[f])
    save_checkpoint(os.path.join(outdir, "final.ckpt"), state)
    report = {
        "command": "simulate",
        "seed": seed,
        "n_steps": n_steps,
        "dt": dt,
        "t_final": state.time,
        "families": families,
        "final_energy": {f: series[f][-1].to_json_dict() for f in families},
    }
    with open(os.path.join(outdir, "run_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return EXIT_OK


def cmd_pair(cfg, outdir, seed):
    spec = _pair_spec(cfg, cfg.physics.sigma, cfg.data.epsilon)
    base = build_initial_state(cfg)
    pair = init_pair(replace(base, sigma=spec.sigma), replace(base, sigma=0.0))
    result = PairRunResult(spec)
    drive_pair(pair, _stepper(cfg), result)

    os.makedirs(outdir, exist_ok=True)
    write_reports_csv(os.path.join(outdir, "energy_delta.csv"), result.delta_reports)
    write_reports_csv(os.path.join(outdir, "energy_f_delta.csv"), result.f_delta_reports)
    write_reports_csv(os.path.join(outdir, "energy_sigma_a.csv"), result.sigma_a_reports)
    report = {
        "command": "pair",
        "seed": seed,
        "sigma": spec.sigma,
        "n_steps": result.n_steps,
        "dt": result.dt,
        "e_delta_initial": result.e_delta_initial,
        "e_delta_sup": result.e_delta_sup,
        "growth_ratio": result.growth_ratio if result.e_delta_initial > 0 else None,
        "f_delta_sup": result.f_delta_sup,
    }
    with open(os.path.join(outdir, "pair_report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return EXIT_OK


def _pair_spec(cfg, sigma, epsilon):
    """PairRunSpec of one (sigma, epsilon) point of the config."""
    d, g = cfg.data, cfg.grid
    return PairRunSpec(
        sigma=sigma,
        epsilon=epsilon,
        nu=d.nu,
        regularization_delta=d.delta,
        velocity_amplitude=complex(d.vel_amp_re, d.vel_amp_im),
        velocity_mode=d.vel_mode,
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


def cmd_sweep(cfg, outdir, seed, jobs):
    specs = _study_specs(cfg)
    result = run_convergence_study(specs, stepper=_stepper(cfg), jobs=jobs)
    os.makedirs(outdir, exist_ok=True)

    long_rows = []
    for idx, run in enumerate(result.runs):
        tag = f"run_{idx:03d}_sigma{run.spec.sigma:.3e}_eps{run.spec.epsilon:.3e}"
        if run.delta_reports:
            write_reports_csv(os.path.join(outdir, tag + "_delta.csv"), run.delta_reports)
            write_reports_csv(os.path.join(outdir, tag + "_f_delta.csv"), run.f_delta_reports)
        for fam, reports in (("delta", run.delta_reports), ("f_delta", run.f_delta_reports)):
            for rep in reports:
                for comp, val in rep.components.items():
                    long_rows.append(
                        (idx, run.spec.sigma, run.spec.epsilon, rep.time, fam, comp, val)
                    )

    with open(os.path.join(outdir, "study_long.csv"), "w") as fh:
        fh.write("# crestwave-csv v1 study-long\n")
        fh.write("run,sigma,epsilon,time,family,component,value\n")
        for row in long_rows:
            fh.write(",".join(str(x) for x in row) + "\n")

    with open(os.path.join(outdir, "study_summary.csv"), "w") as fh:
        fh.write("# crestwave-csv v1 study-summary\n")
        cols = (
            "sigma,epsilon,ok,error,n_steps,dt,e_delta_initial,e_delta_sup,"
            "growth_ratio,f_delta_sup"
        )
        fh.write(cols + "\n")
        for row in result.summary_rows():
            fh.write(
                ",".join(str(row[c]).replace(",", ";") for c in cols.split(",")) + "\n"
            )

    fits = {
        "command": "sweep",
        "seed": seed,
        "slope_e0_vs_sigma": result.slope_e0_vs_sigma,
        "slope_e0_vs_scaling": result.slope_e0_vs_scaling,
        "slope_supf_vs_sigma": result.slope_supf_vs_sigma,
        "e0_max_over_min": result.e0_max_over_min,
        "growth_ratio_max": result.growth_ratio_max,
        "growth_uniformity": result.growth_uniformity,
        "n_runs": len(result.runs),
        "n_failed": sum(1 for r in result.runs if not r.ok),
        "failures": {
            f"sigma={r.spec.sigma:g},eps={r.spec.epsilon:g}": r.error
            for r in result.runs
            if not r.ok
        },
    }
    with open(os.path.join(outdir, "study_fits.json"), "w") as fh:
        json.dump(fits, fh, indent=2, sort_keys=True)
    return EXIT_PARTIAL if fits["n_failed"] else EXIT_OK


def cmd_crest_scaling(cfg, outdir, seed):
    d, g = cfg.data, cfg.grid
    grid = SpectralGrid(g.n_points, g.length, g.dealias)
    spec = CrestSpec(
        nu=d.nu,
        regularization_delta=d.delta,
        velocity_amplitude=complex(d.vel_amp_re, d.vel_amp_im),
        velocity_mode=d.vel_mode,
    )
    base = crest_data(spec, grid)
    eps_list = tuple(cfg.study.epsilon_list) or (0.2, 0.1, 0.05, 0.025)
    rows = []
    for eps in eps_list:
        st = mollify_data(base, eps)
        der = compute_derived(st)
        rows.append((eps, float(np.max(np.abs(der.Theta.real)))))
    slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[1] for r in rows]), 1)[0])
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "crest_scaling.csv"), "w") as fh:
        fh.write("# crestwave-csv v1 crest-scaling\n")
        fh.write("epsilon,curvature_sup\n")
        for eps, kap in rows:
            fh.write(f"{eps:.17g},{kap:.17g}\n")
    with open(os.path.join(outdir, "crest_scaling.json"), "w") as fh:
        json.dump(
            {"command": "crest-scaling", "seed": seed, "nu": d.nu, "slope": slope,
             "target": -d.nu, "rows": rows},
            fh,
            indent=2,
            sort_keys=True,
        )
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="crestwave",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate", "pair", "sweep", "crest-scaling", "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--out", default=None, help="output directory (overrides [output])")
        p.add_argument("--jobs", type=int, default=None, help="parallel sweep runs")
        p.add_argument("--seed", type=int, default=0, help="recorded in outputs")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print("config ok")
        return EXIT_OK

    outdir = args.out or cfg.output.directory
    jobs = args.jobs or cfg.study.jobs
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, args.seed)
        if args.command == "pair":
            return cmd_pair(cfg, outdir, args.seed)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, args.seed, jobs)
        if args.command == "crest-scaling":
            return cmd_crest_scaling(cfg, outdir, args.seed)
    except CFLViolationError as exc:
        print(f"CFL failure: {exc}", file=sys.stderr)
        return EXIT_CFL
    except DegenerateJacobianError as exc:
        print(f"degeneracy failure: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except (HolomorphicityError,) as exc:
        print(f"holomorphicity failure: {exc}", file=sys.stderr)
        return EXIT_HOLOMORPHICITY
    except MonotonicityError as exc:
        print(f"degeneracy failure (map): {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except CrestwaveError as exc:
        print(f"run failure: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
