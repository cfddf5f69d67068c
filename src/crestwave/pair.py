"""Co-evolution of a surface-tension solution (a) and a zero-surface-tension
solution (b), with Lagrangian flow maps and all difference quantities.

Both solutions share one grid and one time step (the stiffer sigma-CFL
governs), are advanced together inside a single RK4 so the flow maps see
stage-consistent drift fields, and the composed map htilde = h_b o h_a^{-1}
is recomputed from its definition after every step.  Differences are always
Delta(f) = f_a - f_b o htilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .brackets import MonotoneMap, compose_maps, lagrangian_jacobian
from .energies import energy_delta, energy_sigma, f_delta_norm
from .errors import CFLViolationError, CrestwaveError
from .evolution import (
    StepperConfig,
    WaveState,
    cfl_bound,
    compute_derived,
    finish_step,
    plan_steps,
    rhs_eulerian,
    rk4,
)
from .initial_data import CrestSpec, crest_data, mollify_data
from .spectral import SpectralGrid


@dataclass(frozen=True)
class PairState:
    state_a: WaveState
    state_b: WaveState
    map_a: MonotoneMap
    map_b: MonotoneMap
    map_tilde: MonotoneMap

    @property
    def time(self):
        return self.state_a.time


def init_pair(state_a, state_b):
    """Pair two solutions at t = 0 with identity Lagrangian maps."""
    if state_a.grid != state_b.grid:
        raise ValueError("pair members must share one grid")
    if state_b.sigma != 0.0:
        raise ValueError(f"solution b must have zero surface tension, got {state_b.sigma}")
    if state_a.time != state_b.time:
        raise ValueError("pair members must carry equal times")
    ident = MonotoneMap.identity(state_a.grid)
    return PairState(state_a, state_b, ident, ident, MonotoneMap.identity(state_a.grid))


@dataclass
class PairStepDiagnostics:
    time: float
    dt: float
    htilde_jac_min: float
    htilde_jac_max: float
    htilde_route_gap: float
    holo_residuals: tuple


def _as_solution(tag, fn, *args):
    """fn(*args), with a CrestwaveError tagged by the solution it came from."""
    try:
        return fn(*args)
    except CrestwaveError as exc:
        exc.args = (f"[solution {tag}] " + (str(exc.args[0]) if exc.args else ""),) + exc.args[1:]
        raise


def co_step(pair, cfg, dt, monitor=None):
    """Advance both solutions and both flow maps by one shared RK4 step.

    The RK4 state is the 8-tuple of both solutions' fields and both map
    deviations, so the maps see stage-consistent drift fields.
    """
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    da = _as_solution("a", compute_derived, a)
    db = _as_solution("b", compute_derived, b)
    bound = min(cfl_bound(a, da), cfl_bound(b, db))
    if dt > cfg.dt_safety * bound * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds {cfg.dt_safety:.2f} * pair bound = {cfg.dt_safety * bound:.3e}"
        )

    def member_rhs(state0, y, der):
        st = replace(state0, Zdev=y[0], Zp=y[1], Zt=y[2])
        if der is None:
            der = compute_derived(st)
        return (*rhs_eulerian(st, der), grid.interpolate_real(der.b, grid.nodes + y[3]))

    def rhs(y, da=None, db=None):
        ka = _as_solution("a", member_rhs, a, y[:4], da)
        return ka + _as_solution("b", member_rhs, b, y[4:], db)

    def member_finish(state0, y):
        new, residuals = finish_step(state0, cfg, dt, *y[:3])
        return new, MonotoneMap(grid, y[3]), residuals

    y0 = (a.Zdev, a.Zp, a.Zt, pair.map_a.deviation, b.Zdev, b.Zp, b.Zt, pair.map_b.deviation)
    y = rk4(y0, rhs, dt, rhs(y0, da, db))
    state_a, map_a, res_a = _as_solution("a", member_finish, a, y[:4])
    state_b, map_b, res_b = _as_solution("b", member_finish, b, y[4:])

    inv_a = map_a.inverse()
    map_tilde = compose_maps(map_b, inv_a)
    out = PairState(state_a, state_b, map_a, map_b, map_tilde)

    if monitor is not None:
        jac = map_tilde.jacobian()
        # independent route for htilde_ap: the Jacobian ratio composed with
        # the inverse of h_a
        ratio = grid.interpolate_real(map_b.jacobian(), inv_a.values) / grid.interpolate_real(
            map_a.jacobian(), inv_a.values
        )
        monitor(
            PairStepDiagnostics(
                time=out.time,
                dt=dt,
                htilde_jac_min=float(jac.min()),
                htilde_jac_max=float(jac.max()),
                htilde_route_gap=float(np.max(np.abs(jac - ratio))),
                holo_residuals=res_a + res_b,
            )
        )
    return out


# -- difference fields ---------------------------------------------------------


def _dt_theta(state, derived):
    """Material derivative of Theta from the closed pointwise formula."""
    grid = state.grid
    abs_Zp = np.abs(state.Zp)
    DbarZtbar = grid.deriv(np.conj(state.Zt)) / np.conj(state.Zp)
    u = grid.deriv(DbarZtbar) / abs_Zp + 1j * derived.Theta.real * DbarZtbar
    dTheta = grid.deriv(derived.Theta)
    c = derived.b * grid.hilbert(dTheta) - grid.hilbert(derived.b * dTheta)
    return 1j * u - 1j * (u - grid.hilbert(u)).real + 1j * c.imag


_SELECTORS = {
    "Zt": lambda grid, st, der, mp: st.Zt,
    "Ztbar": lambda grid, st, der, mp: np.conj(st.Zt),
    "Ztap": lambda grid, st, der, mp: der.Ztap,
    "Ztapbar": lambda grid, st, der, mp: np.conj(der.Ztap),
    "one_over_Zp": lambda grid, st, der, mp: 1.0 / st.Zp,
    "dap_one_over_Zp": lambda grid, st, der, mp: grid.deriv(1.0 / st.Zp),
    "invZp_dap_invZp": lambda grid, st, der, mp: (1.0 / st.Zp) * grid.deriv(1.0 / st.Zp),
    "invZp2_dap_Ztapbar": lambda grid, st, der, mp: st.Zp ** -2 * grid.deriv(np.conj(der.Ztap)),
    "omega": lambda grid, st, der, mp: der.omega,
    "A1": lambda grid, st, der, mp: der.A1 + 0j,
    "b_ap": lambda grid, st, der, mp: der.b_ap + 0j,
    "Theta": lambda grid, st, der, mp: der.Theta,
    "DtTheta": lambda grid, st, der, mp: _dt_theta(st, der),
    "Ztt": lambda grid, st, der, mp: der.Ztt,
    "Zttbar": lambda grid, st, der, mp: np.conj(der.Ztt),
    "DapZt": lambda grid, st, der, mp: der.Ztap / st.Zp,
    "h_alpha": lambda grid, st, der, mp: lagrangian_jacobian(mp) + 0j,
}


def delta_field(pair, quantity, derived_a=None, derived_b=None):
    """Delta(f) = f_a - f_b o htilde for a named difference quantity."""
    try:
        fn = _SELECTORS[quantity]
    except KeyError:
        raise ValueError(f"unknown difference selector {quantity!r}") from None
    grid = pair.state_a.grid
    der_a = derived_a if derived_a is not None else compute_derived(pair.state_a)
    der_b = derived_b if derived_b is not None else compute_derived(pair.state_b)
    fa = fn(grid, pair.state_a, der_a, pair.map_a)
    fb = fn(grid, pair.state_b, der_b, pair.map_b)
    return fa - grid.interpolate(fb, pair.map_tilde.values)


def delta_selectors():
    return tuple(_SELECTORS)


# -- convergence studies --------------------------------------------------------


@dataclass
class PairRunSpec:
    """One co-evolution run of the study grid."""

    sigma: float
    epsilon: float
    nu: float = 0.35
    regularization_delta: float = 0.0
    velocity_amplitude: complex = 0.0
    velocity_mode: int = -1
    n_points: int = 512
    length: float = 2.0 * np.pi
    dealias: float = 2.0 / 3.0
    t_final: float = 0.25
    dt_safety: float = 0.5
    min_steps: int = 64
    max_steps: int = 20000
    record_every: int = 8


@dataclass
class PairRunResult:
    spec: PairRunSpec
    ok: bool = False
    error: str = ""
    n_steps: int = 0
    dt: float = 0.0
    delta_reports: list = field(default_factory=list)
    f_delta_reports: list = field(default_factory=list)
    sigma_a_reports: list = field(default_factory=list)

    @property
    def e_delta_initial(self):
        return self.delta_reports[0].total if self.delta_reports else np.nan

    @property
    def e_delta_sup(self):
        return max(r.total for r in self.delta_reports) if self.delta_reports else np.nan

    @property
    def growth_ratio(self):
        e0 = self.e_delta_initial
        return self.e_delta_sup / e0 if e0 > 0 else np.nan

    @property
    def f_delta_sup(self):
        return max(r.total for r in self.f_delta_reports) if self.f_delta_reports else np.nan


def build_pair(spec):
    """Mollified-crest pair with identical data, sigma on solution a only."""
    grid = SpectralGrid(spec.n_points, spec.length, spec.dealias)
    cs = CrestSpec(
        nu=spec.nu,
        regularization_delta=spec.regularization_delta,
        velocity_amplitude=spec.velocity_amplitude,
        velocity_mode=spec.velocity_mode,
    )
    base = crest_data(cs, grid)
    if spec.epsilon > 0:
        base = mollify_data(base, spec.epsilon)
    state_a = replace(base, sigma=float(spec.sigma))
    state_b = replace(base, sigma=0.0)
    return init_pair(state_a, state_b)


def drive_pair(pair, stepper, result):
    """Co-evolve a built pair to t_final, filling `result`.

    t_final, min_steps, max_steps and record_every come from result.spec;
    dt is fixed by plan_steps from the pair's bound at the start.  E_delta,
    F_delta and E_sigma of solution a are appended to `result` at the start,
    every record_every steps and at the end.  A CrestwaveError propagates;
    what was recorded before it stays in `result`.
    """
    spec = result.spec
    bound = min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    result.dt, n_steps = plan_steps(
        bound, spec.t_final, stepper.dt_safety, spec.min_steps, spec.max_steps
    )

    def snapshot(p):
        der_a = compute_derived(p.state_a)
        der_b = compute_derived(p.state_b)
        result.delta_reports.append(energy_delta(p))
        result.f_delta_reports.append(f_delta_norm(p, der_a, der_b))
        result.sigma_a_reports.append(energy_sigma(p.state_a))

    snapshot(pair)
    for i in range(n_steps):
        pair = co_step(pair, stepper, result.dt)
        if (i + 1) % spec.record_every == 0 or i + 1 == n_steps:
            snapshot(pair)
    result.n_steps = n_steps
    result.ok = True


def run_pair_once(spec, stepper=None):
    """Run one pair to t_final, recording difference energies on the way.

    Failures are captured in the result rather than raised so studies can
    continue.
    """
    stepper = stepper or StepperConfig(dt_safety=spec.dt_safety)
    result = PairRunResult(spec)
    try:
        drive_pair(build_pair(spec), stepper, result)
    except CrestwaveError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _fit_loglog(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    good = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    if good.sum() < 2 or np.ptp(np.log(x[good])) == 0:
        return None
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


@dataclass
class StudyResult:
    runs: list
    slope_e0_vs_sigma: float | None = None
    slope_e0_vs_scaling: float | None = None  # against sigma / eps^{3/2}
    slope_supf_vs_sigma: float | None = None
    e0_max_over_min: float | None = None
    growth_ratio_max: float | None = None
    growth_uniformity: float | None = None  # max/min growth ratio across runs

    def summary_rows(self):
        rows = []
        for r in self.runs:
            rows.append(
                {
                    "sigma": r.spec.sigma,
                    "epsilon": r.spec.epsilon,
                    "ok": int(r.ok),
                    "error": r.error,
                    "n_steps": r.n_steps,
                    "dt": r.dt,
                    "e_delta_initial": r.e_delta_initial,
                    "e_delta_sup": r.e_delta_sup,
                    "growth_ratio": r.growth_ratio,
                    "f_delta_sup": r.f_delta_sup,
                }
            )
        return rows


def run_convergence_study(specs, stepper=None, jobs=1):
    """Run a list of PairRunSpec, merge deterministically by (sigma, epsilon)
    and fit the scaling diagnostics of the sweep."""
    specs = sorted(specs, key=lambda s: (s.sigma, s.epsilon))
    run = partial(run_pair_once, stepper=stepper)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(run, specs))
    else:
        runs = [run(s) for s in specs]
    runs.sort(key=lambda r: (r.spec.sigma, r.spec.epsilon))

    ok = [r for r in runs if r.ok]
    out = StudyResult(runs=runs)
    sigmas = [r.spec.sigma for r in ok]
    if ok:
        out.slope_e0_vs_sigma = _fit_loglog(sigmas, [r.e_delta_initial for r in ok])
        out.slope_e0_vs_scaling = _fit_loglog(
            [r.spec.sigma / r.spec.epsilon ** 1.5 for r in ok],
            [r.e_delta_initial for r in ok],
        )
        out.slope_supf_vs_sigma = _fit_loglog(sigmas, [r.f_delta_sup for r in ok])
        e0 = np.array([r.e_delta_initial for r in ok])
        if np.all(e0 > 0):
            out.e0_max_over_min = float(e0.max() / e0.min())
        growth = np.array([r.growth_ratio for r in ok])
        if np.all(np.isfinite(growth)):
            out.growth_ratio_max = float(growth.max())
            if growth.min() > 0:
                out.growth_uniformity = float(growth.max() / growth.min())
    return out
