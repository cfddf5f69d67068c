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
enforced by projection after each step, with the removed mass checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .errors import CFLViolationError, DegenerateJacobianError, HolomorphicityError, at
from .spectral import TWO_PI, SpectralGrid

ABS_ZP_FLOOR = 1e-8
# removed positive-mode mass a step may project out, relative to the state
HOLO_TOLERANCE = 1e-8


def seed_angle(Zp):
    """The branch raw + 2 pi k of arg(Z_ap) continuous along the grid: k
    undoes the turns of the principal angle raw between adjacent nodes, and
    the node where |Z_ap - 1| is least (far from a crest) lies in [-pi, pi].
    Z_ap does not vanish and tends to 1 at depth, so arg(Z_ap) winds zero
    times over a period and this branch is a function of Z_ap alone.  Zp
    may also be an (m, n) stack; row r of the result is then bit-identical
    to a call on Zp[r]."""
    raw = np.angle(Zp)
    turns = np.zeros(raw.shape)
    np.cumsum(np.rint(np.diff(raw) / TWO_PI), axis=-1, out=turns[..., 1:])
    anchor = np.argmin(np.abs(Zp - 1.0), axis=-1)[..., None]
    return raw + TWO_PI * (np.take_along_axis(turns, anchor, axis=-1) - turns)


@dataclass(frozen=True, eq=False)
class WaveState:
    """Immutable snapshot of one solution.

    Zdev holds Z - a' (periodic part of the interface), Zp holds Z_ap,
    Zt the complex velocity Z_t.  What stacked passes compute from a state
    is kept in its instance dict, as a pair keeps its results: the
    compute_derived fields and the family components of energies only; the
    energy blocks and the branch g of arg(Z_ap) are not kept.  Kept
    arrays, like the state's own, are never written in place, and
    dataclasses.replace starts with nothing kept.
    """

    grid: SpectralGrid
    Zdev: np.ndarray = field(repr=False)
    Zp: np.ndarray = field(repr=False)
    Zt: np.ndarray = field(repr=False)
    sigma: float
    time: float

    @property
    def g(self):
        """The branch of arg(Z_ap), seed_angle of Z_ap, computed on each
        read."""
        return seed_angle(self.Zp)


def make_state(grid, Zdev, Zp, Zt, sigma, time=0.0):
    Zdev = np.asarray(Zdev, dtype=np.complex128)
    Zp = np.asarray(Zp, dtype=np.complex128)
    Zt = np.asarray(Zt, dtype=np.complex128)
    for name, arr in (("Zdev", Zdev), ("Zp", Zp), ("Zt", Zt)):
        if arr.shape != (grid.n,):
            raise ValueError(f"{name} must have shape ({grid.n},)")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"surface tension must be finite and >= 0, got {sigma}")
    if not np.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    return WaveState(grid, Zdev, Zp, Zt, float(sigma), float(time))


def flat_state(grid, sigma=0.0):
    n = grid.n
    return make_state(grid, np.zeros(n, complex), np.ones(n, complex), np.zeros(n, complex), sigma)


@dataclass(frozen=True, eq=False)
class DerivedFields:
    """Derived quantities of one state.

    The right-hand-side set (b, A1, omega, Ztap, Ztt, and the flux
    Z_t - b Z_ap with its derivative flux_ap) is computed by compute_derived;
    Theta and the A1/Theta route gaps are diagnostics, computed on each
    read and not kept.  b_ap = D_a b is not kept: a pair record takes it
    for both states from one stacked derivative.
    """

    grid: SpectralGrid
    Zp: np.ndarray
    Zt: np.ndarray
    b: np.ndarray
    A1: np.ndarray
    omega: np.ndarray
    Ztt: np.ndarray
    Ztap: np.ndarray
    flux: np.ndarray
    flux_ap: np.ndarray
    min_abs_Zp: float

    @property
    def Theta(self):
        """theta_form of q = omega d_a (1/Z_ap), omega = Z_ap / |Z_ap|."""
        return theta_form(self.grid, self.omega * self.grid.deriv(1.0 / self.Zp))

    @property
    def a1_route_gap(self):
        """A1 from the commutator form against the (I + H)-form."""
        prod = self.Zt * np.conj(self.Ztap)
        re_prod = prod.real
        A1_alt = 1.0 + 1j * prod - 1j * (re_prod + self.grid.hilbert(re_prod))
        return float(np.max(np.abs(self.A1 - A1_alt)))

    @property
    def theta_route_gap(self):
        """Theta against -i (I + H) D_a omega."""
        dap_omega = (1.0 / self.Zp) * self.grid.deriv(self.omega)
        Theta_alt = -1j * (dap_omega + self.grid.hilbert(dap_omega))
        return float(np.max(np.abs(self.Theta - Theta_alt)))


def theta_form(grid, q):
    """Theta = i q - i Re (I - H) q of the derivative q = omega d_a (1/Z_ap)
    with the weight omega, rows on grid: the one spelling of DerivedFields.Theta
    and of the energy blocks' Theta."""
    return 1j * q - 1j * (q - grid.hilbert(q)).real


def compute_derived(state):
    """The right-hand-side fields of the system for one state; the
    diagnostics of DerivedFields follow on demand.

    The fields are computed once per state and kept on it, and only after
    the state passed the |Z_ap| floor.
    """
    return derive_states((state,))[0]


def derive_states(states, tags=None):
    """compute_derived of each of states, which share one grid: a state on
    another grid than the first raises ValueError naming both grids.

    The states whose fields are not yet kept are derived together in one
    stacked pass, two rounds of independent Fourier multipliers with one
    FFT pair each, and row r of every field is bit-identical to deriving
    that state alone.  Each of those states must pass the |Z_ap| floor
    before any field is computed; the error of state r then starts with
    tags[r] when tags is given.  The first RK4 stage of advance
    comes from here; its later stages call _derive.
    """
    _require_one_grid(states[0].grid, states)
    tags = ("",) * len(states) if tags is None else tags
    new = [(st, tag) for st, tag in zip(states, tags) if "derived" not in vars(st)]
    if new:
        # capillary states first, so that the capillary rounds take leading rows
        new.sort(key=lambda item: item[0].sigma == 0.0)
        Zp = _stack([st.Zp for st, _ in new])
        abs_Zp = np.abs(Zp)
        min_abs = abs_Zp.min(axis=-1).tolist()
        for (_, tag), min_r in zip(new, min_abs):
            _require_floor(min_r, tag)
        fields = _derive(
            states[0].grid, Zp, abs_Zp, _stack([st.Zt for st, _ in new]),
            [st.sigma for st, _ in new],
        )
        for (st, _), min_r, *rows in zip(new, min_abs, *fields):
            vars(st)["derived"] = DerivedFields(st.grid, st.Zp, st.Zt, *rows, min_r)
    return [vars(st)["derived"] for st in states]


def zero_tension_twin(state, tag):
    """The zero-surface-tension twin replace(state, sigma=0.0) of state,
    derived.  state goes through derive_states, whose error starts with tag;
    the twin keeps state's sigma-free fields, the same objects, and forms
    only its own Ztt, with the ops of _derive (_ztt), so its fields are
    those of a lone derive."""
    (derived,) = derive_states((state,), (tag,))
    twin = replace(state, sigma=0.0)
    vars(twin)["derived"] = replace(derived, Ztt=_ztt(derived.A1, 1.0 / state.Zp, (), ()))
    return twin


def _stack(rows):
    """The (m, n) stack of the m arrays rows, a view of a lone row: a step
    of one state copies none of its fields to read them as a stack."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _require_one_grid(grid, items):
    """Refuse a state or map of items that is not on grid: every row of a
    stacked pass takes its wavenumbers from grid."""
    for item in items:
        # a pair's members share one grid object, so this is one identity test
        if item.grid is not grid and item.grid != grid:
            raise ValueError(f"a stacked pass on {grid!r} got a row on {item.grid!r}")


def _require_floor(min_abs, tag):
    # written so that a NaN minimum fails too
    if not min_abs >= ABS_ZP_FLOOR:
        raise DegenerateJacobianError(
            f"{tag}min |Z_ap| = {min_abs:.3e} below {ABS_ZP_FLOOR:.0e}"
        )


def _derive(grid, Zp, abs_Zp, Zt_rows, sigma, k_dev=None, fluxes=None):
    """The (m, n) stacks (b, A1, omega, Ztt, Ztap, flux, flux_ap), in the
    order of DerivedFields, of the (m, n) rows Zp and Zt_rows with surface
    tensions sigma, capillary rows (sigma != 0) first: the capillary
    transforms run on those rows only.  abs_Zp, |Zp|, is written over with
    its reciprocal.  With k_dev, the map row of a pair step (advance), an
    eighth field follows from round 1: its Jacobian row 1 + D k_dev, whose
    parts are the Jacobians of the two maps, as D maps real rows to real
    rows.

    The inputs of each of the two rounds are written into the rows of one
    stack, which goes through one multiply_symbol with a per-row symbol
    table, one FFT pair per round.  omega =
    Z_ap / |Z_ap| is computed as Z_ap * (1 / |Z_ap|), the same bytes with
    one real division: numpy divides by a complex number with zero
    imaginary part as a reciprocal and a multiply (Smith's method), and the
    two differ only in the sign of a zero part, at a -0.0 part of Z_ap or a
    part that underflows.  flux and flux_ap are the two halves of
    fluxes, a (2m, n) array (a new one when not given), such as the first
    rows of an RK4 stage's rates, so that they do not hold the round-2
    stacks.
    """
    m, n = Zp.shape
    n_cap = len(sigma) - sigma.count(0.0)
    # the map row, when given, leads round 1
    q = 0 if k_dev is None else 1
    inv_Zp = 1.0 / Zp

    # round 1: D k_dev, D Z_t, H ratio and D omega; omega is filled for
    # every row, the transform stops after the capillary ones
    stack = np.empty((q + 3 * m, n), dtype=np.complex128)
    if k_dev is not None:
        stack[:q] = k_dev
    Zt, ratio, omega = stack[q : q + m], stack[q + m : q + 2 * m], stack[q + 2 * m :]
    Zt[...] = Zt_rows
    np.multiply(Zt, inv_Zp, out=ratio)
    np.multiply(Zp, np.divide(1.0, abs_Zp, out=abs_Zp), out=omega)
    kinds = ("deriv",) * (q + m) + ("hilbert",) * m + ("deriv",) * n_cap
    out = grid.multiply_symbol(stack[: q + 2 * m + n_cap], grid.symbol_table(kinds))
    Ztap, h_ratio, d_omega = out[q : q + m], out[q + m : q + 2 * m], out[q + 2 * m :]
    k_ap = None if k_dev is None else out[0] + (1.0 + 1.0j)
    b = ratio.real - h_ratio.real

    # round 2: D flux, H conj(Z_tap), H prod and D (I + H) curv_im, the
    # last as the one symbol i k (1 - sgn k); dt Z = flux = Z_t - b Z_ap,
    # and dt Z_ap = D flux keeps mean(Z_ap) and the d_a Z = Z_ap
    # consistency exact instead of only up to aliasing
    stack = np.empty((3 * m + n_cap, n), dtype=np.complex128)
    flux, Ztbar_ap, prod = stack[:m], stack[m : 2 * m], stack[2 * m : 3 * m]
    np.subtract(Zt, np.multiply(b, Zp, out=flux), out=flux)
    np.conj(Ztap, out=Ztbar_ap)
    np.multiply(Zt, Ztbar_ap, out=prod)
    np.multiply(inv_Zp[:n_cap], d_omega, out=d_omega)
    stack[3 * m :] = d_omega.imag
    kinds = ("deriv",) * m + ("hilbert",) * (2 * m) + ("deriv_hplus",) * n_cap
    out = grid.multiply_symbol(stack, grid.symbol_table(kinds))
    flux_ap, h_Ztbar_ap, h_prod = out[:m], out[m : 2 * m], out[2 * m : 3 * m]
    np.multiply(Zt, h_Ztbar_ap, out=h_Ztbar_ap)
    A1 = 1.0 - np.subtract(h_Ztbar_ap, h_prod, out=h_Ztbar_ap).imag

    Ztt = _ztt(A1, inv_Zp, sigma, out[3 * m :])
    if fluxes is None:
        fluxes = np.empty((2 * m, n), dtype=np.complex128)
    fluxes[:m] = flux
    fluxes[m:] = flux_ap
    fields = (b, A1, omega, Ztt, Ztap, fluxes[:m], fluxes[m:])
    return fields if k_ap is None else (*fields, k_ap)


def _ztt(A1, inv_Zp, sigma, cap):
    """Z_tt = conj(i - i A1 / Z_ap + (sigma / Z_ap) cap) of the rows A1, with
    inv_Zp = 1 / Z_ap, as one new array; cap holds D (I + H) of the
    capillary curvature term for the leading len(cap) rows, the capillary
    ones, and only those rows take the capillary term: neither part of
    i - x is ever -0.0, so adding a zero term would change no bit."""
    Ztt = 1j * A1
    np.multiply(Ztt, inv_Zp, out=Ztt)
    np.subtract(1j, Ztt, out=Ztt)
    for r, term in enumerate(cap):
        scaled = sigma[r] * inv_Zp[r]
        scaled *= term
        Ztt[r] += scaled
    return np.conj(Ztt, out=Ztt)


def _rates(rates, b, Ztt, Ztap, k_ap=None):
    """rates, the time derivatives of an RK4 stage as one stack of the rows
    of advance, completed from the right-hand-side (m, n) fields of m
    states: its first 2m rows hold dt Zdev = flux and dt Z_ap = flux_ap,
    the next m rows get dt Z_t = -b Z_tap + Z_tt, and with k_ap, the
    Jacobian row k_a,ap + i k_b,ap of a pair's two maps, the last row gets
    the rate -(b_a Re k_ap + i b_b Im k_ap) of their deviation row."""
    m = len(b)
    dt_Zt = rates[2 * m : 3 * m]
    np.subtract(Ztt, np.multiply(b, Ztap, out=dt_Zt), out=dt_Zt)
    if k_ap is not None:
        row = rates[3 * m]
        np.multiply(b[0], k_ap.real, out=row.real)
        np.multiply(b[1], k_ap.imag, out=row.imag)
        np.negative(row, out=row)
    return rates


@dataclass(frozen=True)
class StepperConfig:
    dt_safety: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.dt_safety <= 1.0):
            raise ValueError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")


def cfl_bound(state):
    """Raw step-size bound min( dx / max|b| , (k_max + sigma k_max^3)^{-1/2} ).

    Multiply by StepperConfig.dt_safety for the admissible step.  The
    dispersive part is the linear capillary-gravity frequency at the grid
    Nyquist wavenumber, so the cost of resolving surface tension scales
    like sigma^{1/2} N^{3/2}.  A NaN drift b, or a NaN sigma or a negative
    one that makes k_max + sigma k_max^3 negative, gives a NaN bound.

    b is the one that compute_derived keeps on the state; advance takes
    the bound of each state it steps from the same fields (_cfl_bound).
    """
    return _cfl_bound(state.grid, state.sigma, compute_derived(state).b)


def _cfl_bound(grid, sigma, b):
    """cfl_bound of a state on grid with surface tension sigma and drift b:
    max|b| is one reduction, and the rest is arithmetic on Python floats,
    so a step's CFL check costs no transform and no numpy call on a
    scalar."""
    bmax = float(np.abs(b).max())
    k_max = (TWO_PI / grid.length) * (grid.n // 2)
    disp2 = k_max + sigma * k_max ** 3
    # written so that a NaN drift or sigma gives a NaN bound
    if not (bmax >= 0.0 and disp2 >= 0.0):
        return math.nan
    adv = grid.dx / bmax if bmax > 0 else math.inf
    return min(adv, 1.0 / math.sqrt(disp2))


def plan_steps(bound, t_final, stepper, min_steps, max_steps):
    """Fixed step (dt, n_steps) covering t_final exactly.

    dt is the smaller of stepper.dt_safety * bound and t_final / min_steps,
    rounded down to divide t_final.  stepper is a StepperConfig, whose
    constructor is the one check of dt_safety.  Raises ValueError on a
    t_final that is not finite and positive or a min_steps below 1, and
    CFLViolationError above max_steps and on a bound that is not positive,
    such as the NaN bound of a NaN sigma.
    """
    # written so that a NaN t_final fails too
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and positive, got {t_final}")
    if not min_steps >= 1:
        raise ValueError(f"min_steps must be >= 1, got {min_steps}")
    # written so that a NaN bound fails too
    if not bound > 0:
        raise CFLViolationError(f"step-size bound = {bound:.3e} is not positive")
    dt = min(stepper.dt_safety * bound, t_final / min_steps)
    # a float count, so a dt that underflows to 0 or a count beyond any int fails here
    steps = t_final / dt - 1e-12 if dt > 0 else math.inf
    if not steps <= max_steps:
        raise CFLViolationError(
            f"{steps:.6g} steps needed at dt = {dt:.3e} for t_final = {t_final}, "
            f"above max_steps = {max_steps}"
        )
    n_steps = math.ceil(steps)
    return t_final / n_steps, n_steps


def rk4(y0, rhs, dt, k1):
    """One classical RK4 step of the array y0, returned as a new array;
    rhs maps an array of the shape of y0 to its time derivative, a new
    array, and k1 = rhs(y0).  Each operation is one numpy call on the whole
    array, so a stack of fields steps as each of its rows would alone.

    The operations are those of y0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) with
    the stage inputs y0 + (dt / 2) k1, y0 + (dt / 2) k2 and y0 + dt k3, in
    that expression order, written with out= into one stage buffer and over
    the rates k2 to k4 that rhs returns, so that a step allocates one array
    beyond those of rhs."""
    h = 0.5 * dt
    y = np.multiply(h, k1)
    k2 = rhs(np.add(y0, y, out=y))
    k3 = rhs(np.add(y0, np.multiply(h, k2, out=y), out=y))
    k4 = rhs(np.add(y0, np.multiply(dt, k3, out=y), out=y))
    acc = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    np.add(acc, np.multiply(2.0, k3, out=k3), out=acc)
    np.add(acc, k4, out=acc)
    return np.add(y0, np.multiply(dt / 6.0, acc, out=acc), out=acc)


def _finish(grid, y, m):
    """The finish of a step of advance, written over y, the stack of rows
    that rk4 returns: 3m of m states, and maybe a map row after them.
    Returns the new rows, those of y in its order followed by the
    derivative of the map row, the (2, m) masses removed from Z_ap - 1 and
    from Zbar_t, and the (2, m) L2 norms of the new Z_ap - 1 and Z_t, by
    Parseval from the spectrum the new rows come from.  Each row, its masses and its norms
    are bit-identical to a call on that state's rows alone."""
    n, half = grid.n, grid.n // 2
    r = len(y)
    dealias, deriv = grid.symbol_table(("dealias", "deriv"))
    y[m : 2 * m] -= 1.0
    # the spectra of the r rows, then room for those of the derivatives
    c = np.empty((2 * r - 3 * m, n), dtype=np.complex128)
    spectral._fft(y, out=c[:r])
    c[:r] *= dealias
    # the sums of |c|^2 of the removed modes, k > 0 of Z_ap - 1 and k < 0
    # of Z_t, Nyquist included, then of the kept spectra of both
    sums = np.empty((4, m))
    zp_pos, zt_neg = c[m : 2 * m, 1 : half + 1], c[2 * m : 3 * m, half:]
    spectral._sum_squares(zp_pos, sums[0])
    spectral._sum_squares(zt_neg, sums[1])
    zp_pos[...] = 0.0
    zt_neg[...] = 0.0
    spectral._sum_squares(c[m : 3 * m], sums[2:].reshape(-1))
    if r > 3 * m:
        np.multiply(c[3 * m : r], deriv, out=c[r:])
    spectral._ifft(c, out=c)
    c[m : 2 * m] += 1.0
    # the L2 norm sqrt(dx sum |f|^2) of a row f is sqrt(length sum |c|^2) / n
    sums *= grid.length
    norms = np.divide(np.sqrt(sums, out=sums), n, out=sums)
    return c, norms[:2], norms[2:]


def advance(states, cfg, dt, maps=None, tags=None):
    """One classical RK4 step of m states on one grid, capillary states
    (sigma != 0) first, and of maps, which only a two-state step takes:
    the inverse flow maps k = h^{-1} (brackets.InverseFlowMap) of a pair,
    of which map r is transported by the drift b of state r.

    The step holds everything it advances as one complex stack, the rows
    Zdev | Z_ap | Z_t of the states, then with maps the one map row
    k_a,dev + i k_b,dev.  rk4 combines the stages on that one array, and
    each stage's rates (_rates) come as one stack of the same rows.

    A flow map moves by h_t = b o h, so its inverse obeys k_t + b k_ap = 0,
    which needs only fields on the grid: the deviation of map r moves at
    the rate -b_r (1 + D k_dev,r).  Stage 1 takes 1 + D k_dev from the
    maps' kept Jacobians; stages 2 to 4 add the map row to round 1 of
    their derive, so the maps cost no FFT call of their own and no
    interpolation.

    The finish (_finish) is one FFT pair of the whole new stack.  It
    dealiases every row (a dealias_fraction = 1 grid keeps every mode) and
    drops the modes k > 0, Nyquist included, of Z_ap - 1 and Zbar_t; the
    k = 0 mode is kept in full, unlike P_H.  It reads the masses removed
    from that one spectrum: the modes k > 0 of Zbar_t are the conjugates of
    the modes k < 0 of Z_t, and transforming Z_ap - 1, not Z_ap, keeps the
    rounding of the transform relative to the deviation.  The sizes that
    the holomorphicity check scales the masses by, the L2 norms of the new
    Z_ap - 1 and Z_t, come from the same spectrum by Parseval, and the CFL
    check reads the drift b that the derive of stage 1 returns, so the
    guards redo no work of the step.  The map row is only dealiased, and
    the same inverse transform gives its derivative, D of the dealiased
    row: the products b k_ap alias like those of the states, and without
    the filter their debris piles up at the top modes of k over long runs.

    Returns the new states and, with maps, the pairs of the two new map
    deviations and of their Jacobians 1 + D k_dev (None without maps).
    Raises ValueError if a capillary state follows one with sigma = 0, if
    maps are given to other than two states or are other than two, or if
    a state or map is on another grid than the first state, and, state by
    state, CFLViolationError when dt is not positive or not within
    dt_safety times cfl_bound of the state (a NaN bound or dt fails),
    DegenerateJacobianError on a degenerate or NaN Z_ap, and
    HolomorphicityError on projected mass above HOLO_TOLERANCE times the
    size of the state, or NaN mass; an error of state r starts with tags[r]
    when tags is given.
    """
    m = len(states)
    grid, n = states[0].grid, states[0].grid.n
    sigma = [st.sigma for st in states]
    # the n_cap capillary states lead when none of the first n_cap is 0
    if 0.0 in sigma[: len(sigma) - sigma.count(0.0)]:
        raise ValueError(f"capillary states (sigma != 0) must come first, got sigmas {sigma}")
    if maps is not None:
        if (m, len(maps)) != (2, 2):
            raise ValueError(
                f"maps ride only a two-state step with two maps, got {m} states and "
                f"{len(maps)} maps"
            )
        _require_one_grid(grid, maps)
    tags = ("",) * m if tags is None else tags
    derived = derive_states(states, tags)
    for st, d, tag in zip(states, derived, tags):
        # written so that a NaN dt fails too
        if not dt > 0.0:
            raise CFLViolationError(f"{tag}dt = {dt:.3e} is not positive")
        bound = _cfl_bound(grid, st.sigma, d.b)
        # written so that a NaN bound fails too
        if not dt <= cfg.dt_safety * bound * (1.0 + 1e-12):
            raise CFLViolationError(
                f"{tag}dt = {dt:.3e} exceeds {cfg.dt_safety:.2f} * bound = "
                f"{cfg.dt_safety * bound:.3e}"
            )

    def rhs(y):
        Zp = y[m : 2 * m]
        abs_Zp = np.abs(Zp)
        for min_r, tag in zip(abs_Zp.min(axis=-1).tolist(), tags):
            _require_floor(min_r, tag)
        k_dev = None if maps is None else y[3 * m]
        rates = np.empty_like(y)
        b, _, _, Ztt, Ztap, _, _, *k_ap = _derive(
            grid, Zp, abs_Zp, y[2 * m : 3 * m], sigma, k_dev, rates[: 2 * m]
        )
        return _rates(rates, b, Ztt, Ztap, *k_ap)

    # the rows of y0, and stage 1's rates from the kept fields
    y0 = np.empty((3 * m + (maps is not None), n), dtype=np.complex128)
    k1 = np.empty_like(y0)
    for r, (st, d) in enumerate(zip(states, derived)):
        y0[r], y0[m + r], y0[2 * m + r] = st.Zdev, st.Zp, st.Zt
        k1[r], k1[m + r] = d.flux, d.flux_ap
    kept = [_stack([getattr(d, name) for d in derived]) for name in ("b", "Ztt", "Ztap")]
    if maps is not None:
        k_a, k_b = maps
        y0[3 * m].real, y0[3 * m].imag = k_a.deviation, k_b.deviation
        jac = np.empty(n, dtype=np.complex128)
        jac.real, jac.imag = k_a.jac, k_b.jac
        kept.append(jac)
    out, mass, size = _finish(grid, rk4(y0, rhs, dt, _rates(k1, *kept)), m)

    Zdev, Zp, Zt = out[:m], out[m : 2 * m], out[2 * m : 3 * m]
    min_abs = np.abs(Zp).min(axis=-1).tolist()
    new = []
    # |conj(Z_t)| is |Z_t|, so the size of Z_t is that of Zbar_t
    rows = zip(states, tags, *mass.tolist(), *size.tolist())
    for r, (st, tag, res_Zp, res_Zt, size_Zp, size_Zt) in enumerate(rows):
        _require_floor(min_abs[r], f"{tag}post-step ")
        scale = max(1.0, size_Zp + size_Zt)
        limit = HOLO_TOLERANCE * scale
        # written so that a NaN mass fails too
        if not (res_Zp <= limit and res_Zt <= limit):
            # the larger removed mass, a NaN one before any number
            res, name = max(
                (res_Zp, "Z_ap - 1"), (res_Zt, "Zbar_t"), key=lambda x: (math.isnan(x[0]), x)
            )
            raise HolomorphicityError(
                f"{tag}projected positive-mode mass {res:.3e} of {name} above tolerance "
                f"{HOLO_TOLERANCE:.1e} * {scale:.3e}"
            )
        new.append(WaveState(grid, Zdev[r], Zp[r], Zt[r], st.sigma, st.time + dt))
    if maps is None:
        return new, None
    dev, d_dev = out[3 * m :]
    return new, ((dev.real, dev.imag), (d_dev.real + 1.0, d_dev.imag + 1.0))


def step_rk4(state, cfg, dt):
    """One classical RK4 step of one state (advance of a one-state stack);
    raises CFLViolationError when dt exceeds dt_safety times the stability
    bound of the current state."""
    (out,), _ = advance((state,), cfg, dt)
    return out


def drive(x, step, cfg, dt, n_steps, record, record_every):
    """n_steps steps x = step(x, cfg, dt) of a state or a pair x, returning
    the last x; record(x) runs at the start, after every record_every-th
    step and after the last.  Each step and each record runs inside
    errors.at, so a CrestwaveError of a step names the step and the time it
    started from, and one of a record names the record and its time.  A
    record_every below 1 raises ValueError before the first record."""
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    def recorded(x):
        with at(f"record at t = {x.time:.6g}"):
            record(x)

    recorded(x)
    for i in range(n_steps):
        with at(f"step {i + 1} of {n_steps}, t = {x.time:.6g}"):
            x = step(x, cfg, dt)
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            recorded(x)
    return x
