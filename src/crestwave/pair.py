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
    continue_angle,
    rhs_eulerian,
    _finish_fields,
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


def _tagged(tag, exc):
    exc.args = (f"[solution {tag}] " + (str(exc.args[0]) if exc.args else ""),) + exc.args[1:]
    return exc


def co_step(pair, cfg, dt, monitor=None):
    """Advance both solutions and both flow maps by one shared RK4 step."""
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    try:
        da = compute_derived(a)
    except CrestwaveError as exc:
        raise _tagged("a", exc)
    try:
        db = compute_derived(b)
    except CrestwaveError as exc:
        raise _tagged("b", exc)
    bound = min(cfl_bound(a, da), cfl_bound(b, db))
    if dt > cfg.dt_safety * bound * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds {cfg.dt_safety:.2f} * pair bound = {cfg.dt_safety * bound:.3e}"
        )

    def one_rhs(tag, state0, fields, map_dev, derived=None):
        Zdev, Zp, Zt = fields
        st = replace(state0, Zdev=Zdev, Zp=Zp, Zt=Zt)
        try:
            der = derived if derived is not None else compute_derived(st)
            dZdev, dZp, dZt = rhs_eulerian(st, der)
        except CrestwaveError as exc:
            raise _tagged(tag, exc)
        dmap = grid.interpolate_real(der.b, grid.nodes + map_dev)
        return (dZdev, dZp, dZt, dmap)

    def full_rhs(ya, yb, first=False):
        ra = one_rhs("a", a, ya[:3], ya[3], da if first else None)
        rb = one_rhs("b", b, yb[:3], yb[3], db if first else None)
        return ra, rb

    ya0 = (a.Zdev, a.Zp, a.Zt, pair.map_a.deviation)
    yb0 = (b.Zdev, b.Zp, b.Zt, pair.map_b.deviation)

    def advance(y0, k, factor):
        return tuple(y + factor * dt * ki for y, ki in zip(y0, k))

    ka1, kb1 = full_rhs(ya0, yb0, first=True)
    ka2, kb2 = full_rhs(advance(ya0, ka1, 0.5), advance(yb0, kb1, 0.5))
    ka3, kb3 = full_rhs(advance(ya0, ka2, 0.5), advance(yb0, kb2, 0.5))
    ka4, kb4 = full_rhs(advance(ya0, ka3, 1.0), advance(yb0, kb3, 1.0))

    def combine(y0, k1, k2, k3, k4):
        return tuple(
            y + (dt / 6.0) * (p + 2.0 * q + 2.0 * r + s)
            for y, p, q, r, s in zip(y0, k1, k2, k3, k4)
        )

    ya = combine(ya0, ka1, ka2, ka3, ka4)
    yb = combine(yb0, kb1, kb2, kb3, kb4)

    residuals = []
    new_states = []
    for tag, st0, y in (("a", a, ya), ("b", b, yb)):
        try:
            Zdev, Zp, Zt, r1, r2 = _finish_fields(grid, cfg, *y[:3])
        except CrestwaveError as exc:
            raise _tagged(tag, exc)
        g_new = continue_angle(Zp, st0.g)
        new_states.append(WaveState(grid, Zdev, Zp, Zt, st0.sigma, st0.time + dt, g_new))
        residuals.extend([r1, r2])
    try:
        map_a = MonotoneMap(grid, ya[3])
    except CrestwaveError as exc:
        raise _tagged("a", exc)
    try:
        map_b = MonotoneMap(grid, yb[3])
    except CrestwaveError as exc:
        raise _tagged("b", exc)

    inv_a = map_a.inverse()
    map_tilde = compose_maps(map_b, inv_a)
    out = PairState(new_states[0], new_states[1], map_a, map_b, map_tilde)

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
                holo_residuals=tuple(residuals),
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
    t_final: float = 0.25
    dt_safety: float = 0.5
    min_steps: int = 64
    max_steps: int = 20000
    record_every: int = 8


@dataclass
class PairRunResult:
    spec: PairRunSpec
    ok: bool
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
    grid = SpectralGrid(spec.n_points, spec.length)
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


def run_pair_once(spec, stepper=None, record=None):
    """Run one pair to t_final, recording difference energies on the way.

    `record` may add extra families per snapshot; failures are captured in
    the result rather than raised so studies can continue.
    """
    stepper = stepper or StepperConfig(dt_safety=spec.dt_safety)
    result = PairRunResult(spec=spec, ok=False)
    try:
        pair = build_pair(spec)
        bound = min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
        dt = min(stepper.dt_safety * bound, spec.t_final / spec.min_steps)
        n_steps = int(np.ceil(spec.t_final / dt - 1e-12))
        if n_steps > spec.max_steps:
            raise CFLViolationError(
                f"{n_steps} steps needed at dt = {dt:.3e}, above max_steps = {spec.max_steps}"
            )
        dt = spec.t_final / n_steps
        result.dt = dt

        def snapshot(p):
            der_a = compute_derived(p.state_a)
            der_b = compute_derived(p.state_b)
            result.delta_reports.append(energy_delta(p))
            result.f_delta_reports.append(f_delta_norm(p, der_a, der_b))
            result.sigma_a_reports.append(energy_sigma(p.state_a))
            if record is not None:
                record(p, der_a, der_b)

        snapshot(pair)
        for i in range(n_steps):
            pair = co_step(pair, stepper, dt)
            if (i + 1) % spec.record_every == 0 or i + 1 == n_steps:
                snapshot(pair)
        result.n_steps = n_steps
        result.ok = True
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
