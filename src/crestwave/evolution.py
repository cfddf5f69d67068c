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
from functools import cached_property

import numpy as np

from . import spectral
from .errors import CFLViolationError, DegenerateJacobianError, HolomorphicityError, at
from .spectral import SpectralGrid, same_bytes

TWO_PI = 2.0 * np.pi
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
    is kept on it: the compute_derived fields, and the energy blocks and
    the components of every state family (sigma, high, aux) of energies;
    a state that advance made keeps the min |Z_ap| of its post-step check
    until its derive takes it over; the branch g of arg(Z_ap) is computed
    on each read.  Kept arrays, like
    the state's own, are never written in place, and dataclasses.replace
    starts with nothing kept.  Two states are equal when their grid, sigma,
    time and the bytes of their arrays are, whatever each keeps; a state is
    not hashable.
    """

    grid: SpectralGrid
    Zdev: np.ndarray = field(repr=False)
    Zp: np.ndarray = field(repr=False)
    Zt: np.ndarray = field(repr=False)
    sigma: float
    time: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        arrays = ("Zdev", "Zp", "Zt")
        return (self.grid, self.sigma, self.time) == (other.grid, other.sigma, other.time) and (
            same_bytes([getattr(self, a) for a in arrays], [getattr(other, a) for a in arrays])
        )

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


@dataclass
class DerivedFields:
    """Derived quantities of one state.

    The right-hand-side set (b, A1, omega, Ztap, Ztt, and the flux
    Z_t - b Z_ap with its derivative flux_ap) is computed by compute_derived;
    Theta and the A1/Theta route gaps are diagnostics, computed on first
    read.  b_ap = D_a b is not kept: a pair record takes it for both states
    from one stacked derivative.
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


def compute_derived(state):
    """The right-hand-side fields of the system for one state; the
    diagnostics of DerivedFields follow on demand.

    The fields are computed once per state and kept on it, and only after
    the state passed the |Z_ap| floor.
    """
    return derive_states((state,))[0]


def derive_states(states, prefixes=None):
    """compute_derived of each of states, which share one grid.

    The states whose fields are not yet kept are derived together in one
    stacked pass, two rounds of independent Fourier multipliers with one
    FFT pair each, and row r of every field is bit-identical to deriving
    that state alone.  Each of those states must pass the |Z_ap| floor
    before any field is computed; the error of state r then starts with
    prefixes[r] when prefixes is given.  A state that advance made brings
    the min |Z_ap| of its post-step check, which the floor check reads;
    |Z_ap| is reduced only for the others.  The first RK4 stage of advance
    comes from here; its later stages call _derive.
    """
    if prefixes is None:
        prefixes = ("",) * len(states)
    new = [(st, prefix) for st, prefix in zip(states, prefixes) if "derived" not in st._memo]
    if new:
        # capillary states first, so that the capillary rounds take leading rows
        new.sort(key=lambda item: item[0].sigma == 0.0)
        Zp = _stack([st.Zp for st, _ in new])
        abs_Zp = np.abs(Zp)
        # the minimum that advance's post-step check took, for a state it made
        min_abs = [st._memo.pop("min_abs_Zp", None) for st, _ in new]
        if None in min_abs:
            reduced = abs_Zp.min(axis=-1).tolist()
            min_abs = [r if kept is None else kept for kept, r in zip(min_abs, reduced)]
        for (_, prefix), min_r in zip(new, min_abs):
            _require_floor(min_r, prefix)
        fields = _derive(
            states[0].grid, Zp, abs_Zp, _stack([st.Zt for st, _ in new]),
            [st.sigma for st, _ in new],
        )
        for (st, _), min_r, *rows in zip(new, min_abs, *fields):
            st._memo["derived"] = DerivedFields(st.grid, st.Zp, st.Zt, *rows, min_r)
    return [st._memo["derived"] for st in states]


def zero_tension_twin(state, tag):
    """The zero-surface-tension twin replace(state, sigma=0.0) of state,
    derived.  state goes through derive_states, whose error starts with tag;
    the twin keeps state's sigma-free fields, the same objects, and forms
    only its own Ztt, with the ops of _derive (_ztt), so its fields are
    those of a lone derive."""
    (derived,) = derive_states((state,), (tag,))
    twin = replace(state, sigma=0.0)
    twin._memo["derived"] = replace(derived, Ztt=_ztt(derived.A1, 1.0 / state.Zp, (), ()))
    return twin


def _stack(rows):
    """The (m, n) stack of the m arrays rows, a view of a lone row: a step
    of one state copies none of its fields to read them as a stack."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def _require_floor(min_abs, prefix):
    # written so that a NaN minimum fails too
    if not min_abs >= ABS_ZP_FLOOR:
        raise DegenerateJacobianError(
            f"{prefix}min |Z_ap| = {min_abs:.3e} below {ABS_ZP_FLOOR:.0e}"
        )


def _derive(grid, Zp, abs_Zp, Zt_rows, sigma, k_dev=None, fluxes=None):
    """The (m, n) stacks (b, A1, omega, Ztt, Ztap, flux, flux_ap), in the
    order of DerivedFields, of the (m, n) rows Zp and Zt_rows with surface
    tensions sigma, capillary rows (sigma != 0) first: the capillary
    transforms run on those rows only.  abs_Zp, |Zp|, is written over with
    its reciprocal.  With k_dev, a (q, n) stack of packed map deviations
    (_pack), an eighth stack follows: their Jacobians 1 + D k_dev, packed
    alike, from round 1.

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
    q = 0 if k_dev is None else len(k_dev)
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
    k_ap = None if k_dev is None else out[:q] + (1.0 + 1.0j)
    b = ratio.real - h_ratio.real

    # round 2: D flux, H conj(Z_tap), H prod and D (I + H) curv_im, the
    # last as the one symbol i k (1 - sgn k); dt Z = flux = Z_t - b Z_ap,
    # and dt Z_ap = D flux keeps mean(Z_ap) and the d_a Z = Z_ap
    # consistency exact instead of only up to aliasing
    stack = np.empty((3 * m + n_cap, n), dtype=np.complex128)
    flux, Ztbar_ap, prod = stack[:m], stack[m : 2 * m], stack[2 * m : 3 * m]
    np.subtract(Zt, b * Zp, out=flux)
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
        Ztt[r] += sigma[r] * inv_Zp[r] * term
    return np.conj(Ztt, out=Ztt)


def _pack(rows, out=None):
    """The p real rows of n points, a (p, n) array or a sequence of rows,
    as (p + 1) // 2 complex rows, rows 2r and 2r + 1 the real and
    imaginary parts of row r (0 for an odd last row), written into out
    when given.  D maps real rows to real rows, so the parts of D
    of a packed row are the derivatives of its two rows; and the float64
    view of a packed stack interleaves its rows' values, so a product of
    two views multiplies the rows of one by those of the other."""
    p, n = len(rows), len(rows[0])
    packed = np.empty(((p + 1) // 2, n), dtype=np.complex128) if out is None else out
    for r, row in enumerate(rows):
        (packed.imag if r % 2 else packed.real)[r // 2] = row
    packed.imag[p // 2 :] = 0.0
    return packed


def _unpack(packed, p):
    """The first p real rows of a _pack result, as one new (p, n) array."""
    rows = np.empty((p, packed.shape[1]))
    rows[0::2] = packed.real[: (p + 1) // 2]
    rows[1::2] = packed.imag[: p // 2]
    return rows


def _rates(rates, b, Ztt, Ztap, k_ap=None):
    """rates, the time derivatives of an RK4 stage as one (3m + q, n) stack,
    completed from the right-hand-side (m, n) fields of m states: its first
    2m rows hold dt Zdev = flux and dt Z_ap = flux_ap, the next m rows get
    dt Z_t = -b Z_tap + Z_tt, and with k_ap, the q packed Jacobians of the
    maps (_pack), the last q rows get the rates -b_r k_ap,r of their packed
    deviations: a product of float64 views of packed rows is the product
    of each map's own rows."""
    m = len(b)
    dt_Zt = rates[2 * m : 3 * m]
    np.multiply(-b, Ztap, out=dt_Zt)
    dt_Zt += Ztt
    if k_ap is not None:
        view = _pack(b, rates[3 * m :]).view(np.float64)
        np.multiply(view, k_ap.view(np.float64), out=view)
        np.negative(view, out=view)
    return rates


@dataclass
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
    like sigma^{1/2} N^{3/2}.  A NaN sigma, or a negative one that makes
    k_max + sigma k_max^3 negative, gives a NaN bound.

    max|b| is one reduction of the b that compute_derived keeps on the
    state, and the rest is arithmetic on Python floats, so a step's CFL
    check costs no transform and no numpy call on a scalar.
    """
    grid = state.grid
    bmax = float(np.abs(compute_derived(state).b).max())
    adv = grid.dx / bmax if bmax > 0 else math.inf
    k_max = (TWO_PI / grid.length) * (grid.n // 2)
    disp2 = k_max + state.sigma * k_max ** 3
    # written so that a NaN sigma gives a NaN bound
    disp = 1.0 / math.sqrt(disp2) if disp2 >= 0.0 else math.nan
    return disp if math.isnan(disp) else min(adv, disp)


def plan_steps(bound, t_final, dt_safety, min_steps, max_steps):
    """Fixed step (dt, n_steps) covering t_final exactly.

    dt is the smaller of dt_safety * bound and t_final / min_steps, rounded
    down to divide t_final; raises ValueError on a t_final that is not
    finite and positive or a min_steps below 1, and CFLViolationError above
    max_steps and on a bound that is not positive, such as the NaN bound of
    a NaN sigma.
    """
    # written so that a NaN t_final fails too
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and positive, got {t_final}")
    if not min_steps >= 1:
        raise ValueError(f"min_steps must be >= 1, got {min_steps}")
    # written so that a NaN bound fails too
    if not bound > 0:
        raise CFLViolationError(f"step-size bound = {bound:.3e} is not positive")
    dt = min(dt_safety * bound, t_final / min_steps)
    n_steps = int(np.ceil(t_final / dt - 1e-12))
    if n_steps > max_steps:
        raise CFLViolationError(
            f"{n_steps} steps needed at dt = {dt:.3e} for t_final = {t_final}, "
            f"above max_steps = {max_steps}"
        )
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
    """The finish of a step of advance, written over y, the (3m + q, n)
    stack of rows that rk4 returns.  Returns the (3m + 2q, n) new rows,
    those of y in its order followed by the derivatives of the q further
    rows, and the (2, m) masses removed from Z_ap - 1 and from Zbar_t.
    Each row and its masses are bit-identical to a call on that state's
    rows alone."""
    n, half = grid.n, grid.n // 2
    r = len(y)
    dealias, deriv = grid.symbol_table(("dealias", "deriv"))
    y[m : 2 * m] -= 1.0
    # the spectra of the r rows, then room for those of the derivatives
    c = np.empty((2 * r - 3 * m, n), dtype=np.complex128)
    spectral._fft(y, out=c[:r])
    c[:r] *= dealias
    # the modes k > 0 of Z_ap - 1 and k < 0 of Z_t, Nyquist included
    zp_pos, zt_neg = c[m : 2 * m, 1 : half + 1], c[2 * m : 3 * m, half:]
    removed = np.concatenate((zp_pos, zt_neg)) / n
    mass = np.sqrt(grid.length * (np.abs(removed) ** 2).sum(axis=-1)).reshape(2, m)
    zp_pos[...] = 0.0
    zt_neg[...] = 0.0
    if r > 3 * m:
        np.multiply(c[3 * m : r], deriv, out=c[r:])
    spectral._ifft(c, out=c)
    c[m : 2 * m] += 1.0
    return c, mass


def advance(states, cfg, dt, maps=None, tags=None):
    """One classical RK4 step of m states on one grid, capillary states
    (sigma != 0) first, and of maps, m inverse flow maps k = h^{-1}
    (brackets.InverseFlowMap) of which map r is transported by the drift b
    of state r.

    The step holds everything it advances as one (3m + q, n) complex
    stack, the rows Zdev | Z_ap | Z_t of the states, then with maps the
    q = (m + 1) // 2 packed rows of their deviations (_pack), k_dev of maps
    2r and 2r + 1 as the real and imaginary parts of one row, never beside
    a state in a row.  rk4 combines the stages on that one array, and each
    stage's rates (_rates) come as one stack of the same rows.

    A flow map moves by h_t = b o h, so its inverse obeys k_t + b k_ap = 0,
    which needs only fields on the grid: the deviation of map r moves at
    the rate -b_r (1 + D k_dev,r).  Stage 1 takes 1 + D k_dev from the
    maps' kept Jacobians; stages 2 to 4 add the packed rows to round 1 of
    their derive, so the maps cost no FFT call of their own and no
    interpolation.

    The finish (_finish) is one FFT pair of the whole new stack.  It
    dealiases every row (a dealias_fraction = 1 grid keeps every mode) and
    drops the modes k > 0, Nyquist included, of Z_ap - 1 and Zbar_t; the
    k = 0 mode is kept in full, unlike P_H.  It reads the masses removed
    from that one spectrum: the modes k > 0 of Zbar_t are the conjugates of
    the modes k < 0 of Z_t, and transforming Z_ap - 1, not Z_ap, keeps the
    rounding of the transform relative to the deviation.  The packed map
    rows are only dealiased, and the same inverse transform gives their
    derivatives, D of the dealiased rows: the products b k_ap alias like
    those of the states, and without the filter their debris piles up at
    the top modes of k over long runs.

    Returns the new states, each keeping the min |Z_ap| of its post-step
    check for its derive, and, with maps, the (m, n) stacks of the new map
    deviations and of their Jacobians 1 + D k_dev (None without maps).
    Raises ValueError if a capillary state follows one with sigma = 0,
    and, state by state, CFLViolationError when dt is not positive or not
    within dt_safety times the bound of the state (a NaN bound or dt fails),
    DegenerateJacobianError on a degenerate or NaN Z_ap, and
    HolomorphicityError on projected mass above HOLO_TOLERANCE times the
    size of the state, or NaN mass; an error of state r starts with tags[r]
    when tags is given.
    """
    m = len(states)
    grid, n = states[0].grid, states[0].grid.n
    sigma = [st.sigma for st in states]
    if any(s0 == 0.0 and s1 != 0.0 for s0, s1 in zip(sigma, sigma[1:])):
        raise ValueError(f"capillary states (sigma != 0) must come first, got sigmas {sigma}")
    tags = ("",) * m if tags is None else tags
    derived = derive_states(states, prefixes=tags)
    for st, tag in zip(states, tags):
        # written so that a NaN dt fails too
        if not dt > 0.0:
            raise CFLViolationError(f"{tag}dt = {dt:.3e} is not positive")
        bound = cfl_bound(st)
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
        k_dev = None if maps is None else y[3 * m :]
        rates = np.empty_like(y)
        b, _, _, Ztt, Ztap, _, _, *k_ap = _derive(
            grid, Zp, abs_Zp, y[2 * m : 3 * m], sigma, k_dev, rates[: 2 * m]
        )
        return _rates(rates, b, Ztt, Ztap, *k_ap)

    # the rows of y0, and stage 1's rates from the kept fields
    q = 0 if maps is None else (m + 1) // 2
    y0 = np.empty((3 * m + q, n), dtype=np.complex128)
    k1 = np.empty_like(y0)
    for r, (st, d) in enumerate(zip(states, derived)):
        y0[r], y0[m + r], y0[2 * m + r] = st.Zdev, st.Zp, st.Zt
        k1[r], k1[m + r] = d.flux, d.flux_ap
    kept = [_stack([getattr(d, name) for d in derived]) for name in ("b", "Ztt", "Ztap")]
    if maps is not None:
        _pack([k.deviation for k in maps], out=y0[3 * m :])
        kept.append(_pack([k.jac for k in maps]))
    out, mass = _finish(grid, rk4(y0, rhs, dt, _rates(k1, *kept)), m)

    Zdev, Zp, Zt = out[:m], out[m : 2 * m], out[2 * m : 3 * m]
    min_abs = np.abs(Zp).min(axis=-1).tolist()
    deviation = out[m : 3 * m].copy()
    deviation[:m] -= 1.0
    # |conj(Z_t)| is |Z_t|, so one stack gives the sizes of Z_ap - 1 and Zbar_t
    size_Zp, size_Zt = grid.l2_norm(deviation).reshape(2, m).tolist()
    new = []
    for r, (st, tag, res_Zp, res_Zt) in enumerate(zip(states, tags, *mass.tolist())):
        _require_floor(min_abs[r], f"{tag}post-step ")
        scale = max(1.0, size_Zp[r] + size_Zt[r])
        # the larger removed mass, a NaN one before any number
        res, name = max(
            (res_Zp, "Z_ap - 1"), (res_Zt, "Zbar_t"), key=lambda x: (math.isnan(x[0]), x)
        )
        if not res <= HOLO_TOLERANCE * scale:
            raise HolomorphicityError(
                f"{tag}projected positive-mode mass {res:.3e} of {name} above tolerance "
                f"{HOLO_TOLERANCE:.1e} * {scale:.3e}"
            )
        state = WaveState(grid, Zdev[r], Zp[r], Zt[r], st.sigma, st.time + dt)
        state._memo["min_abs_Zp"] = min_abs[r]
        new.append(state)
    if maps is None:
        return new, None
    packed, d_packed = out[3 * m :].reshape(2, -1, n)
    jac = _unpack(d_packed, m)
    jac += 1.0
    return new, (_unpack(packed, m), jac)


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
