"""Co-evolution of a surface-tension solution (a) and a zero-surface-tension
solution (b), with Lagrangian flow maps, the pair run driver and
convergence studies.

Both solutions share one grid and one time step (the stiffer sigma-CFL
governs).  The flow map h of a solution (Lagrangian label -> conformal
label, h_t = b o h) is held as its inverse k = h^{-1}, which obeys the
transport equation k_t + b k_ap = 0 on the uniform grid.  A pair step is
evolution.advance, the RK4 step of step_rk4, on the two-row stack of the
solutions, with k_a and k_b transported by each row's drift b, so the maps
see stage-consistent drift fields and the step interpolates nothing;
htilde = h_b o h_a^{-1} = k_b^{-1} o k_a is built where a record first
reads it, by solving k_b(x) = k_a(alpha), and the fields of b that the
record pulls back through htilde ride along that solve.  Differences are
always Delta(f) = f_a - f_b o htilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .brackets import InverseFlowMap, MonotoneMap
from .energies import energy_delta, energy_sigma, f_delta_norm
from .errors import SOLUTION_TAGS, CrestwaveError, MonotonicityError
from .evolution import (
    StepperConfig, WaveState, advance, cfl_bound, derive_states, drive, plan_steps,
    zero_tension_twin,
)
from .initial_data import CrestSpec, crest_data
from .spectral import DEFAULT_DEALIAS_FRACTION, DEFAULT_LENGTH, SpectralGrid


@dataclass(frozen=True, eq=False)
class PairState:
    """Two solutions and the inverses k_a = h_a^{-1} and k_b = h_b^{-1} of
    their flow maps.  What is computed from a pair is kept in its instance
    dict: htilde, as map_tilde, and the components of its record pass,
    which energy_delta and f_delta_norm share."""

    state_a: WaveState
    state_b: WaveState
    k_a: InverseFlowMap
    k_b: InverseFlowMap

    @property
    def time(self):
        return self.state_a.time

    @cached_property
    def map_tilde(self):
        """htilde = h_b o h_a^{-1} = k_b^{-1} o k_a, built on the first read
        and kept: htilde(alpha) is the point x with k_b(x) = k_a(alpha), one
        Newton solve of k_b.preimage at the values of k_a, so no inverse map
        is built.  A MonotonicityError of the solve or of the map starts
        with "[htilde] "."""
        return self._pull_back(())[0]

    def _pull_back(self, fields):
        """htilde, kept as map_tilde, and fields, real rows on the grid,
        pulled back through it: compose_map_apply of their stack in
        tests/oracles.py, bit for bit.  The fields ride along the Newton
        solve that builds htilde, one spread of both, and their gather at
        the values of htilde, which are those of the solve's last check,
        takes its kernel weights; a pair that already keeps htilde solves it
        again and keeps its own."""
        grid, k_a, k_b = self.k_a.grid, self.k_a, self.k_b

        def build():
            x, pull = k_b.preimage(k_a.values, fields)
            return MonotoneMap(grid, x - grid.nodes), pull

        htilde, pull = _tagged("[htilde] ", build)
        htilde = vars(self).setdefault("map_tilde", htilde)
        return htilde, pull(htilde.values)


def _tagged(tag, build):
    """build(), with tag in front of the message of its MonotonicityError."""
    try:
        return build()
    except MonotonicityError as exc:
        raise MonotonicityError(tag + str(exc)) from None


def init_pair(state_a, state_b):
    """Pair two solutions at t = 0 with identity Lagrangian maps."""
    if state_a.grid != state_b.grid:
        raise ValueError("pair members must share one grid")
    if state_b.sigma != 0.0:
        raise ValueError(f"solution b must have zero surface tension, got {state_b.sigma}")
    if state_a.time != state_b.time:
        raise ValueError("pair members must carry equal times")
    ident = InverseFlowMap.identity(state_a.grid)
    return PairState(state_a, state_b, ident, ident)


def twin_pair(base):
    """The pair, at the time of base, of base and its zero-surface-tension twin
    (evolution.zero_tension_twin), with identity Lagrangian maps, derived:
    b keeps a's sigma-free fields and forms only its own Ztt.  base below
    the |Z_ap| floor raises the DegenerateJacobianError of its derive,
    tagged with solution a."""
    return init_pair(base, zero_tension_twin(base, SOLUTION_TAGS[0]))


def co_step(pair, cfg, dt):
    """Advance both solutions and both flow maps by one shared RK4 step.

    The two solutions and k_a, k_b are one two-row stack of
    evolution.advance, so the maps see stage-consistent drift fields; no
    interpolation, no inverse and no composition is made.  Each new map
    takes the Jacobian 1 + D k_dev that the step's finish gives it as its
    data.  A new map whose h_ap leaves [JACOBIAN_FLOOR, 1 / JACOBIAN_FLOOR]
    raises the MonotonicityError of InverseFlowMap, tagged with its
    solution.
    """
    states, (deviations, jacobians) = advance(
        (pair.state_a, pair.state_b), cfg, dt, (pair.k_a, pair.k_b), SOLUTION_TAGS
    )
    grid = pair.state_a.grid
    maps = [
        _tagged(tag, partial(InverseFlowMap, grid, dev, jac))
        for tag, dev, jac in zip(SOLUTION_TAGS, deviations, jacobians)
    ]
    return PairState(*states, *maps)


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
    length: float = DEFAULT_LENGTH
    dealias: float = DEFAULT_DEALIAS_FRACTION
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
    """Mollified-crest pair with identical data, sigma on solution a only,
    derived (twin_pair); the crest is the CrestSpec of spec's fields of the
    same names, mollified at spec.epsilon in crest_data's spectrum."""
    grid = SpectralGrid(spec.n_points, spec.length, spec.dealias)
    crest = CrestSpec(**{f.name: getattr(spec, f.name) for f in fields(CrestSpec)})
    return twin_pair(crest_data(crest, grid, sigma=spec.sigma, epsilon=spec.epsilon))


def drive_pair(pair, result):
    """Co-evolve a built pair from its time to t_final, filling `result`.

    dt_safety, t_final, min_steps, max_steps and record_every come from
    result.spec; dt is fixed by plan_steps for t_final - pair.time from the
    pair's bound at the start, after one derive_states of both members,
    whose error names its solution.  A pair whose time is not below a
    positive t_final raises ValueError with both times.  The steps run
    through evolution.drive, which appends E_delta, F_delta and E_sigma of
    solution a to `result` at the start, every record_every steps and at the
    end; a CrestwaveError propagates with its step and time, and what was
    recorded before it stays in `result`.
    """
    spec = result.spec
    # a t_final that is not positive is plan_steps' error; written so that a
    # NaN time fails too
    if spec.t_final > 0.0 and not pair.time < spec.t_final:
        raise ValueError(f"the pair's time {pair.time!r} is not below t_final = {spec.t_final!r}")
    stepper = StepperConfig(spec.dt_safety)
    derive_states((pair.state_a, pair.state_b), SOLUTION_TAGS)
    bound = min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    result.dt, n_steps = plan_steps(bound, spec.t_final - pair.time, stepper, spec.min_steps,
                                    spec.max_steps)

    def snapshot(p):
        result.delta_reports.append(energy_delta(p))
        result.f_delta_reports.append(f_delta_norm(p))
        result.sigma_a_reports.append(energy_sigma(p.state_a))

    drive(pair, co_step, stepper, result.dt, n_steps, snapshot, spec.record_every)
    result.n_steps = n_steps
    result.ok = True


def run_pair_once(spec):
    """Run one pair to t_final, recording difference energies on the way.

    Failures are captured in the result rather than raised so studies can
    continue; a spec that admits no run, such as a negative sigma or a
    t_final that is not positive, raises ValueError.
    """
    result = PairRunResult(spec)
    try:
        drive_pair(build_pair(spec), result)
    except CrestwaveError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def fit_loglog(x, y):
    """Least-squares slope of log y against log x over the points where
    both are positive and finite; None with fewer than two distinct x."""
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


def run_convergence_study(specs, jobs=1):
    """Run a list of PairRunSpec sorted by (sigma, epsilon), an order that
    pool.map keeps as the serial loop does, and fit the scaling diagnostics
    of the sweep.  A pool starts all its workers at once, so it gets at
    most one per spec, and one worker is the serial loop."""
    specs = sorted(specs, key=lambda s: (s.sigma, s.epsilon))
    workers = min(jobs, len(specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run_pair_once, specs))
    else:
        runs = [run_pair_once(s) for s in specs]

    ok = [r for r in runs if r.ok]
    out = StudyResult(runs=runs)
    sigmas = [r.spec.sigma for r in ok]
    if ok:
        out.slope_e0_vs_sigma = fit_loglog(sigmas, [r.e_delta_initial for r in ok])
        # epsilon = 0 has no scaling abscissa: NaN, which fit_loglog drops
        out.slope_e0_vs_scaling = fit_loglog(
            [r.spec.sigma / r.spec.epsilon ** 1.5 if r.spec.epsilon > 0 else np.nan for r in ok],
            [r.e_delta_initial for r in ok],
        )
        out.slope_supf_vs_sigma = fit_loglog(sigmas, [r.f_delta_sup for r in ok])
        e0 = np.array([r.e_delta_initial for r in ok])
        if np.all(e0 > 0):
            out.e0_max_over_min = float(e0.max() / e0.min())
        growth = np.array([r.growth_ratio for r in ok])
        if np.all(np.isfinite(growth)):
            out.growth_ratio_max = float(growth.max())
            if growth.min() > 0:
                out.growth_uniformity = float(growth.max() / growth.min())
    return out
