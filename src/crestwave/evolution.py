"""Evolution core for the conformal-frame water-wave system.

State variables are the interface deviation Z - a', the spatial derivative
Z_ap and the boundary velocity Z_t on a fixed periodic conformal grid, with
surface tension sigma >= 0.  The right-hand side is

    dt Z    = Z_t - b Z_ap
    dt Z_ap = d_a (Z_t - b Z_ap)
    dt Zbar_t = -b d_a Zbar_t + i - i A1 / Z_ap
                + (sigma / Z_ap) d_a (I + H) Im( (1/Z_ap) d_a omega )

with b = Re (I - H)(Z_t / Z_ap), A1 = 1 - Im [Z_t, H] d_a Zbar_t and
omega = Z_ap / |Z_ap|.  Setting sigma = 0 recovers the pure gravity system
exactly.  Holomorphicity (Fourier support k <= 0 of Z_ap - 1 and Zbar_t) is
enforced by projection after each step, with the removed mass logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CFLViolationError, DegenerateJacobianError, HolomorphicityError
from .spectral import SpectralGrid

TWO_PI = 2.0 * np.pi
ABS_ZP_FLOOR = 1e-8
A1_FLOOR_TOL = 1e-8


def seed_angle(grid, Zp, ref_index=None):
    """Unwrapped branch of arg(Z_ap), anchored near zero far from features.

    The reference node defaults to the point where |Z_ap - 1| is smallest
    (for localized crest data this is the node farthest from the crest).
    """
    raw = np.angle(Zp)
    if ref_index is None:
        ref_index = int(np.argmin(np.abs(Zp - 1.0)))
    rolled = np.unwrap(np.roll(raw, -ref_index))
    g = np.roll(rolled, ref_index)
    g = g - TWO_PI * np.round(g[ref_index] / TWO_PI)
    return g


def continue_angle(Zp, g_prev):
    """Branch of arg(Z_ap) continuous in time against the previous step."""
    raw = np.angle(Zp)
    return raw + TWO_PI * np.round((g_prev - raw) / TWO_PI)


@dataclass(frozen=True)
class WaveState:
    """Immutable snapshot of one solution.

    Zdev holds Z - a' (periodic part of the interface), Zp holds Z_ap,
    Zt the complex velocity Z_t; g is the tracked branch of arg(Z_ap).
    """

    grid: SpectralGrid
    Zdev: np.ndarray = field(repr=False)
    Zp: np.ndarray = field(repr=False)
    Zt: np.ndarray = field(repr=False)
    sigma: float
    time: float
    g: np.ndarray = field(repr=False)

    @property
    def Z(self):
        return self.grid.nodes + self.Zdev

    def log_Zp(self):
        """Continuous branch of log Z_ap used for fractional powers."""
        return np.log(np.abs(self.Zp)) + 1j * self.g

    def Zp_power(self, p):
        return np.exp(p * self.log_Zp())


def make_state(grid, Zdev, Zp, Zt, sigma, time=0.0, g=None):
    Zdev = np.asarray(Zdev, dtype=np.complex128)
    Zp = np.asarray(Zp, dtype=np.complex128)
    Zt = np.asarray(Zt, dtype=np.complex128)
    g = seed_angle(grid, Zp) if g is None else np.asarray(g, dtype=np.float64)
    for name, arr in (("Zdev", Zdev), ("Zp", Zp), ("Zt", Zt), ("g", g)):
        if arr.shape != (grid.n,):
            raise ValueError(f"{name} must have shape ({grid.n},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    if sigma < 0:
        raise ValueError(f"surface tension must be >= 0, got {sigma}")
    return WaveState(grid, Zdev, Zp, Zt, float(sigma), float(time), g)


def flat_state(grid, sigma=0.0):
    n = grid.n
    return make_state(grid, np.zeros(n, complex), np.ones(n, complex), np.zeros(n, complex), sigma)


@dataclass
class DerivedFields:
    """Derived quantities of one state.

    The right-hand-side set (b, A1, omega, Ztap, Ztt) is computed by
    compute_derived; b_ap, Theta and the A1/Theta route gaps are
    diagnostics, computed on first read.
    """

    grid: SpectralGrid
    Zp: np.ndarray
    Zt: np.ndarray
    b: np.ndarray
    A1: np.ndarray
    omega: np.ndarray
    Ztt: np.ndarray
    Ztap: np.ndarray
    min_abs_Zp: float

    @cached_property
    def b_ap(self):
        return self.grid.deriv(self.b).real

    @cached_property
    def Theta(self):
        """Weighted-derivative form i q - i Re (I - H) q, q = omega d_a (1/Z_ap)."""
        q = self.omega * self.grid.deriv(1.0 / self.Zp)
        return 1j * q - 1j * (q - self.grid.hilbert(q)).real

    @cached_property
    def a1_route_gap(self):
        """A1 from the commutator form against the (I + H)-form."""
        prod = self.Zt * np.conj(self.Ztap)
        re_prod = prod.real
        A1_alt = 1.0 + 1j * prod - 1j * (re_prod + self.grid.hilbert(re_prod))
        return float(np.max(np.abs(self.A1 - A1_alt)))

    @cached_property
    def theta_route_gap(self):
        """Theta against -i (I + H) D_a omega."""
        dap_omega = (1.0 / self.Zp) * self.grid.deriv(self.omega)
        Theta_alt = -1j * (dap_omega + self.grid.hilbert(dap_omega))
        return float(np.max(np.abs(self.Theta - Theta_alt)))


def compute_derived(state, check=True):
    """The right-hand-side fields of the system for one state; the
    diagnostics of DerivedFields follow on demand."""
    grid = state.grid
    Zp, Zt, sigma = state.Zp, state.Zt, state.sigma
    abs_Zp = np.abs(Zp)
    min_abs = float(abs_Zp.min())
    if check and min_abs < ABS_ZP_FLOOR:
        raise DegenerateJacobianError(f"min |Z_ap| = {min_abs:.3e} below {ABS_ZP_FLOOR:.0e}")
    inv_Zp = 1.0 / Zp
    Ztap = grid.deriv(Zt)
    Ztbar_ap = np.conj(Ztap)

    ratio = Zt * inv_Zp
    b = (ratio - grid.hilbert(ratio)).real

    prod = Zt * Ztbar_ap
    A1 = 1.0 - (Zt * grid.hilbert(Ztbar_ap) - grid.hilbert(prod)).imag

    omega = Zp / abs_Zp
    if sigma != 0.0:
        curv_im = (inv_Zp * grid.deriv(omega)).imag
        capillary = sigma * inv_Zp * grid.deriv(curv_im + grid.hilbert(curv_im))
    else:
        capillary = 0.0
    Ztt = np.conj(1j - 1j * A1 * inv_Zp + capillary)

    return DerivedFields(grid, Zp, Zt, b, A1, omega, Ztt, Ztap, min_abs)


def curvature_field(derived):
    """Interface curvature in conformal coordinates, Re Theta."""
    return derived.Theta.real


def curvature_geometric(state):
    """Differential-geometry route Im(d_a Z_ap conj(Z_ap)) / |Z_ap|^3,
    used as an independent cross-check of curvature_field."""
    grid = state.grid
    num = (grid.deriv(state.Zp) * np.conj(state.Zp)).imag
    return num / np.abs(state.Zp) ** 3


def rhs_eulerian(state, derived=None):
    """Time derivatives (dt Zdev, dt Z_ap, dt Z_t) on the fixed grid."""
    grid = state.grid
    d = derived if derived is not None else compute_derived(state)
    flux = state.Zt - d.b * state.Zp
    dZdev = flux
    # dt Z_ap = d_a (dt Z); this form keeps mean(Z_ap) and the d_a Z = Z_ap
    # consistency exact instead of only up to aliasing
    dZp = grid.deriv(flux)
    dZt = -d.b * d.Ztap + d.Ztt
    return dZdev, dZp, dZt


@dataclass
class StepperConfig:
    dt_safety: float = 0.5
    filter_on: bool = True
    project_each_step: bool = True
    holo_tolerance: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")
        if not self.holo_tolerance > 0:
            raise ValueError("holo_tolerance must be positive")


@dataclass
class StepDiagnostics:
    time: float
    dt: float
    holo_residual_Zp: float
    holo_residual_Ztbar: float
    min_abs_Zp: float
    a1_min: float
    a1_route_gap: float


def cfl_bound(state, derived=None):
    """Raw step-size bound min( dx / max|b| , (k_max + sigma k_max^3)^{-1/2} ).

    Multiply by StepperConfig.dt_safety for the admissible step.  The
    dispersive part is the linear capillary-gravity frequency at the grid
    Nyquist wavenumber, so the cost of resolving surface tension scales
    like sigma^{1/2} N^{3/2}.
    """
    grid = state.grid
    d = derived if derived is not None else compute_derived(state)
    k_max = (TWO_PI / grid.length) * (grid.n // 2)
    disp = 1.0 / np.sqrt(k_max + state.sigma * k_max ** 3)
    bmax = float(np.max(np.abs(d.b)))
    adv = grid.dx / bmax if bmax > 0 else np.inf
    return float(min(adv, disp))


def plan_steps(bound, t_final, dt_safety, min_steps, max_steps):
    """Fixed step (dt, n_steps) covering t_final exactly.

    dt is the smaller of dt_safety * bound and t_final / min_steps, rounded
    down to divide t_final; raises CFLViolationError above max_steps.
    """
    dt = min(dt_safety * bound, t_final / min_steps)
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    if n_steps > max_steps:
        raise CFLViolationError(
            f"{n_steps} steps needed at dt = {dt:.3e} for t_final = {t_final}, "
            f"above max_steps = {max_steps}"
        )
    return t_final / n_steps, n_steps


def rk4(y0, rhs, dt, k1):
    """One classical RK4 step of the tuple of arrays y0; rhs maps a tuple
    of fields to the tuple of their time derivatives and k1 = rhs(y0)."""
    k2 = rhs(tuple(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = rhs(tuple(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = rhs(tuple(y + dt * k for y, k in zip(y0, k3)))
    return tuple(
        y + (dt / 6.0) * (a + 2.0 * b_ + 2.0 * c + e)
        for y, a, b_, c, e in zip(y0, k1, k2, k3, k4)
    )


def finish_step(state, cfg, dt, Zdev, Zp, Zt):
    """Post-step filtering, holomorphic projection and guards.

    Returns the state at time + dt and the removed positive-mode masses of
    Z_ap - 1 and Zbar_t; raises on a degenerate Z_ap or on projected mass
    above holo_tolerance times the size of the state.
    """
    grid = state.grid
    if cfg.filter_on:
        Zdev = grid.dealias(Zdev)
        Zp = grid.dealias(Zp)
        Zt = grid.dealias(Zt)
    res_Zp = res_Zt = 0.0
    if cfg.project_each_step:
        dev_p = Zp - 1.0
        res_Zp = grid.positive_mode_mass(dev_p)
        Zp = 1.0 + grid.zero_positive_modes(dev_p)
        Ztbar = np.conj(Zt)
        res_Zt = grid.positive_mode_mass(Ztbar)
        Zt = np.conj(grid.zero_positive_modes(Ztbar))
    min_abs = float(np.min(np.abs(Zp)))
    if min_abs < ABS_ZP_FLOOR:
        raise DegenerateJacobianError(f"post-step min |Z_ap| = {min_abs:.3e}")
    scale = max(1.0, grid.l2_norm(Zp - 1.0) + grid.l2_norm(np.conj(Zt)))
    if max(res_Zp, res_Zt) > cfg.holo_tolerance * scale:
        raise HolomorphicityError(
            f"projected positive-mode mass {max(res_Zp, res_Zt):.3e} above tolerance"
        )
    g_new = continue_angle(Zp, state.g)
    out = WaveState(grid, Zdev, Zp, Zt, state.sigma, state.time + dt, g_new)
    return out, (res_Zp, res_Zt)


def step_rk4(state, cfg, dt, monitor=None):
    """One classical RK4 step; raises CFLViolationError when dt exceeds
    dt_safety times the stability bound of the current state."""
    d0 = compute_derived(state)
    bound = cfl_bound(state, d0)
    if dt > cfg.dt_safety * bound * (1.0 + 1e-12):
        raise CFLViolationError(
            f"dt = {dt:.3e} exceeds {cfg.dt_safety:.2f} * bound = {cfg.dt_safety * bound:.3e}"
        )

    def stage(fields):
        Zdev, Zp, Zt = fields
        return rhs_eulerian(replace(state, Zdev=Zdev, Zp=Zp, Zt=Zt))

    new = rk4((state.Zdev, state.Zp, state.Zt), stage, dt, rhs_eulerian(state, d0))
    out, (res_Zp, res_Zt) = finish_step(state, cfg, dt, *new)
    if monitor is not None:
        d1 = compute_derived(out, check=False)
        monitor(
            StepDiagnostics(
                time=out.time,
                dt=dt,
                holo_residual_Zp=res_Zp,
                holo_residual_Ztbar=res_Zt,
                min_abs_Zp=d1.min_abs_Zp,
                a1_min=float(d1.A1.min()),
                a1_route_gap=d1.a1_route_gap,
            )
        )
    return out


@dataclass
class StateDiagnostics:
    min_abs_Zp: float
    holo_residual_Zp: float
    holo_residual_Ztbar: float
    dZ_consistency: float
    a1_min: float
    passed: bool


def validate_state(state, tol=1e-8):
    """Pure diagnostic: degeneracy margin, holomorphicity residuals,
    consistency of the redundant Z evolution, and the Taylor-sign floor."""
    grid = state.grid
    res_Zp = grid.positive_mode_mass(state.Zp - 1.0)
    res_Zt = grid.positive_mode_mass(np.conj(state.Zt))
    cons = float(np.max(np.abs(grid.deriv(state.Zdev) - (state.Zp - 1.0))))
    d = compute_derived(state, check=False)
    scale = max(1.0, grid.l2_norm(state.Zp - 1.0) + grid.l2_norm(state.Zt))
    passed = (
        d.min_abs_Zp >= ABS_ZP_FLOOR
        and max(res_Zp, res_Zt) <= tol * scale
        and cons <= max(tol, tol * scale)
        and float(d.A1.min()) >= 1.0 - A1_FLOOR_TOL
    )
    return StateDiagnostics(
        min_abs_Zp=d.min_abs_Zp,
        holo_residual_Zp=res_Zp,
        holo_residual_Ztbar=res_Zt,
        dZ_consistency=cons,
        a1_min=float(d.A1.min()),
        passed=bool(passed),
    )


def refine_state(state, n_new):
    """Fourier-resample a state onto a finer grid (spectral convergence
    studies); sigma, time and the angle branch carry over."""
    grid = state.grid
    g2 = SpectralGrid(n_new, grid.length, grid.dealias_fraction)
    Zdev = grid.resample(state.Zdev, n_new)
    Zp = grid.resample(state.Zp, n_new)
    Zt = grid.resample(state.Zt, n_new)
    return make_state(g2, Zdev, Zp, Zt, state.sigma, state.time)
