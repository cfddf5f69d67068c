"""Direct quadrature and summation oracles that certify the package's
operators: O(N^2) sums, line-window quadratures, independent routes to
derived quantities and the named difference fields of a pair, none of which
the solver calls; and the paper's operators that no run applies (the
projections, the Poisson mollifier, the commutator and the composed Hilbert
transform), which the acceptance criteria certify."""

from dataclasses import dataclass

import numpy as np

from crestwave.brackets import MonotoneMap
from crestwave.energies import _powers, _state_blocks
from crestwave.errors import DegenerateJacobianError
from crestwave.evolution import (
    ABS_ZP_FLOOR, TWO_PI, _rates, compute_derived, derive_states, make_state,
)
from crestwave.initial_data import _check_scale
from crestwave.spectral import _NUFFT_BETA, _NUFFT_WIDTH


# -- spectral ------------------------------------------------------------------


def project(grid, f, side):
    """Holomorphic ('H', support k <= 0) or antiholomorphic ('A') part.

    P_H keeps k < 0, halves k = 0 and kills k > 0 (Nyquist counts as
    positive); P_A is the complement.  With sgn(0) = 0 the projections
    coincide with (I +- H)/2 on every mode except the Nyquist mode, where
    idempotence and exact complementarity are kept instead (H zeroes that
    mode).  Dealiased fields never see the difference.
    """
    if side not in ("H", "A"):
        raise ValueError(f"side must be 'H' or 'A', got {side!r}")
    k_int = grid.k_int
    mask_h = np.where(k_int < 0, 1.0, np.where(k_int == 0, 0.5, 0.0))
    mask = mask_h if side == "H" else 1.0 - mask_h
    return grid.multiply_symbol(f, mask.astype(np.complex128))


def dealias(grid, f):
    """The grid's dealias filter, its 'dealias' symbol, applied to f."""
    return grid.multiply_symbol(f, grid.symbol_table(("dealias",))[0])


def linf_norm(grid, f):
    """The largest |f| at the grid nodes."""
    return float(np.max(np.abs(f)))


def poisson_smooth(grid, f, eps):
    """Poisson mollification, i.e. the multiplier exp(-eps |k|)."""
    # written so that a NaN width fails too
    if not eps >= 0.0:
        raise ValueError(f"Poisson smoothing width must be >= 0, got {eps}")
    if eps == np.inf:
        raise ValueError("Poisson smoothing width must be finite, got inf")
    if eps == 0.0:
        return np.asarray(f, dtype=np.complex128).copy()
    return grid.multiply_symbol(f, np.exp(-eps * np.abs(grid.k)))


def hhalf_double_sum(grid, f):
    """Quadratic-form evaluation of the H^{1/2} seminorm squared.

    Periodic analog of the double integral
    (1/2pi) iint |(f(a) - f(b)) / (a - b)|^2 da db with the difference
    a - b replaced by the chord (L/pi) sin(pi (a-b)/L); the diagonal is the
    removable limit |f'|^2.  Exact (up to quadrature) match with the Fourier
    side, which the solver uses (SpectralGrid.hhalf_norm).
    """
    f = np.asarray(f)
    n, L, dx = grid.n, grid.length, grid.dx
    alpha = grid.nodes
    diff = alpha[:, None] - alpha[None, :]
    chord = (L / np.pi) * np.sin(np.pi * diff / L)
    np.fill_diagonal(chord, 1.0)
    quot = (f[:, None] - f[None, :]) / chord
    fp = grid.deriv(f)
    np.fill_diagonal(quot, 0.0)
    total = np.sum(np.abs(quot) ** 2) + np.sum(np.abs(fp) ** 2)
    return float(total * dx * dx / (2.0 * np.pi))


def interpolate_direct(grid, f, x):
    """Exact trigonometric interpolant of f at points x, O(N * len(x)).

    x is reduced modulo the period before the phases exp(i k x) are formed,
    so the result is periodic to the last bit where the reduction is exact.
    The Nyquist coefficient is paired with cos(k_nyq x) so that real data
    interpolates to real values.  SpectralGrid.interpolate matches it to
    near machine precision on resolved fields.
    """
    x = np.mod(np.atleast_1d(np.asarray(x, dtype=np.float64)), grid.length)
    c = grid.coeffs(f)
    i_ny = grid.nyquist_index
    keep = np.arange(grid.n) != i_ny
    phases = np.exp(1j * np.outer(x, grid.k[keep]))
    out = phases @ c[keep]
    out = out + c[i_ny] * np.cos(grid.k[i_ny] * x)
    return out


def nufft_kernel_formula(grid, x):
    """SpectralGrid.nufft_kernel from the kernel formula: the weights
    exp(beta (sqrt(1 - z^2) - 1)) of the fine nodes base - w/2 + 1, ...,
    base + w/2 around each point t = (2n / L) x, at the kernel coordinates
    z = 2 (t - node) / w, and the first of those nodes."""
    w, n_fine = _NUFFT_WIDTH, 2 * grid.n
    t = (n_fine / grid.length) * np.atleast_1d(np.asarray(x, dtype=np.float64))
    base = np.floor(t)
    z = ((2.0 / w) * (t - base) + (1.0 - 2.0 / w))[..., None] - (2.0 / w) * np.arange(w)
    weights = np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))
    return weights, (base.astype(np.int64) - (w // 2 - 1)) % n_fine


def binomial_series_scalar(mu, n_terms):
    """Coefficients a_m of (1 - w)^mu = sum_m a_m w^m, by the recurrence
    on numpy scalars written into an array, term by term."""
    a = np.empty(n_terms)
    a[0] = 1.0
    for m in range(1, n_terms):
        a[m] = a[m - 1] * (m - 1 - mu) / m
    return a


def crest_unmollified(spec, grid, sigma=0.0):
    """The unmollified model crest of initial_data.crest_data, written as it
    was before the mollifier joined its damping: the series damped by
    exp(-delta k1 m) alone and the velocity mode undamped, Z_ap, Zdev and
    Zbar_t brought back in one inverse transform."""
    n, k1 = grid.n, 2.0 * np.pi / grid.length
    delta = spec.regularization_delta
    a_c = 0.0 if delta > 0.0 else 0.5 * grid.dx
    n_neg = n // 2 - 1
    m = np.arange(n_neg + 1)
    series = (binomial_series_scalar(spec.nu - 1.0, n_neg + 1) * np.exp(-delta * k1 * m)
              * np.exp(1j * k1 * m * a_c))
    c = np.zeros((3, n), dtype=np.complex128)
    c[0, 0] = series[0]
    c[0, -n_neg:] = series[1:][::-1]
    c[1, -n_neg:] = (series[1:] / (1j * (-k1 * m[1:])))[::-1]
    if spec.velocity_amplitude != 0:
        c[2, spec.velocity_mode % n] = spec.velocity_amplitude
    Zp, Zdev, Ztbar = grid.from_coeffs(c)
    return make_state(grid, Zdev, Zp, np.conj(Ztbar), sigma)


def mollify_data(state, eps):
    """Poisson mollification of (Z, Z_t) at scale eps; Z_ap is recomputed
    spectrally from the mollified Z so holomorphicity is preserved."""
    _check_scale(eps)
    grid = state.grid
    Zdev, Ztbar = poisson_smooth(grid, np.array([state.Zdev, np.conj(state.Zt)]), eps)
    Zp = 1.0 + grid.deriv(Zdev)
    return make_state(grid, Zdev, Zp, np.conj(Ztbar), state.sigma, state.time)


# -- periodic triple bracket ---------------------------------------------------


@dataclass
class BracketKernelConfig:
    """Discretization policy for the singular difference kernels."""

    singularity_rule: str = "diagonal-limit"  # or "alternate-point"

    def __post_init__(self):
        if self.singularity_rule not in ("diagonal-limit", "alternate-point"):
            raise ValueError(f"unknown singularity rule {self.singularity_rule!r}")


def _chord(grid):
    """Periodic analog of a - b: the chord (L/pi) sin(pi (a-b)/L)."""
    alpha = grid.nodes
    diff = alpha[:, None] - alpha[None, :]
    return (grid.length / np.pi) * np.sin(np.pi * diff / grid.length)


def triple_bracket_periodic(grid, f1, f2, f3, cfg=None):
    """Principal-value bracket (1/i pi) int (df1/d)(df2/d) f3 db, periodized.

    The difference kernel uses the periodic chord; under the diagonal-limit
    rule the removable diagonal is replaced by f1'(a) f2'(a) f3(a).
    """
    cfg = cfg or BracketKernelConfig()
    f1 = np.asarray(f1, dtype=np.complex128)
    f2 = np.asarray(f2, dtype=np.complex128)
    f3 = np.asarray(f3, dtype=np.complex128)
    chord = _chord(grid)
    np.fill_diagonal(chord, 1.0)
    q1 = (f1[:, None] - f1[None, :]) / chord
    q2 = (f2[:, None] - f2[None, :]) / chord
    integrand = q1 * q2 * f3[None, :]
    if cfg.singularity_rule == "diagonal-limit":
        diag = grid.deriv(f1) * grid.deriv(f2) * f3
        np.einsum("ii->i", integrand)[:] = diag
        return (grid.dx / (1j * np.pi)) * integrand.sum(axis=1)
    # alternate-point rule: skip same-parity nodes, double the weight
    n = grid.n
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    return (2.0 * grid.dx / (1j * np.pi)) * np.where(parity, integrand, 0.0).sum(axis=1)


# -- line-window quadrature ----------------------------------------------------


def _line_window(window, resolution):
    if resolution < 512:
        raise ValueError("line oracle needs resolution >= 512")
    h = window / resolution
    x = -0.5 * window + h * np.arange(resolution)
    return x, h


def _check_support(x, fs, window):
    edge = 0.05 * window
    sel = (x < x[0] + edge) | (x > x[-1] - edge)
    for f in fs:
        if np.max(np.abs(f(x[sel]))) > 1e-12:
            raise ValueError("function support touches the oracle window boundary")


def triple_bracket_line_oracle(f1, f2, f3, window=40.0, resolution=2048):
    """Direct trapezoid quadrature of the line bracket on a finite window.

    f1, f2, f3 are callables; f3 must be compactly supported well inside the
    window so the integrand vanishes at the boundary.  Returns (x, values).
    """
    x, h = _line_window(window, resolution)
    _check_support(x, [f3], window)
    fa1, fa2, fa3 = f1(x), f2(x), f3(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    q1 = (fa1[:, None] - fa1[None, :]) / diff
    q2 = (fa2[:, None] - fa2[None, :]) / diff
    integrand = q1 * q2 * fa3[None, :]
    d1 = _center_diff(fa1, h)
    d2 = _center_diff(fa2, h)
    np.einsum("ii->i", integrand)[:] = d1 * d2 * fa3
    vals = (h / (1j * np.pi)) * integrand.sum(axis=1)
    return x, vals


def commutator_line_oracle(f, g, window=40.0, resolution=2048, derivative=False):
    """Quadrature of [f, H] d_a g on the line; with derivative=True returns
    d_a [f, H] d_a g instead (kernel differentiated analytically)."""
    x, h = _line_window(window, resolution)
    fa, ga = f(x), g(x)
    gp = _center_diff(ga, h)
    _check_support(x, [g], window)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    if not derivative:
        quot = (fa[:, None] - fa[None, :]) / diff
        np.einsum("ii->i", quot)[:] = _center_diff(fa, h)
        integrand = quot * gp[None, :]
    else:
        fp = _center_diff(fa, h)
        num = fp[:, None] * diff - (fa[:, None] - fa[None, :])
        kern = num / diff ** 2
        np.einsum("ii->i", kern)[:] = 0.5 * _center_diff(fp, h)
        integrand = kern * gp[None, :]
    return x, (h / (1j * np.pi)) * integrand.sum(axis=1)


def _center_diff(f, h):
    """Fourth-order centered first derivative on a uniform line grid."""
    out = (
        -np.roll(f, -2) + 8.0 * np.roll(f, -1) - 8.0 * np.roll(f, 1) + np.roll(f, 2)
    ) / (12.0 * h)
    return out


# -- maps, the commutator and the composed Hilbert operator ---------------------


def compose_map_apply(grid, f, map_):
    """(U_h f)(a) = f(h(a)) by trigonometric interpolation at the map points.

    f may be one field or an (m, n) stack of fields, all real or all
    complex; a stack is spread once and row r of the result is U_h f[r].
    """
    _require_same_grid(grid, map_)
    return grid.interpolate(f, map_.values)


def _require_same_grid(grid, map_):
    if map_.grid != grid:
        raise ValueError("the field and the map live on different grids")


def commutator_bracket(grid, f, g):
    """[f, H] d_a g = f H(g') - H(f g') with spectral derivative and H."""
    gp = grid.deriv(g)
    return f * grid.hilbert(gp) - grid.hilbert(f * gp)


def hcal_apply(grid, f, map_):
    """Composed Hilbert transform through the exact conjugation identity.

    With U f = f o h, the kernel form with the h' (Jacobian) factor inside
    satisfies Hcal U = U H, hence Hcal = U H U^{-1}; this turns the singular
    integral into interpolation plus the FFT Hilbert transform.  U^{-1} f
    is f at the preimages of the grid nodes.
    """
    _require_same_grid(grid, map_)
    pulled = grid.interpolate(f, map_.preimage(grid.nodes)[0])
    return compose_map_apply(grid, grid.hilbert(pulled), map_)



def hcal_quadrature_oracle(grid, f, map_):
    """Alternate-point singular quadrature of the composed Hilbert kernel.

    Direct discretization of (1/i pi) pv int h'(b) / (h(a) - h(b)) f(b) db
    in its periodic form with the cotangent kernel; spectrally accurate on
    smooth data and used to certify hcal_apply.
    """
    n, L, dx = grid.n, grid.length, grid.dx
    h_vals = map_.values
    hp = map_.jac
    diff = h_vals[:, None] - h_vals[None, :]
    np.fill_diagonal(diff, 1.0)  # masked by parity below
    kern = np.cos(np.pi * diff / L) / np.sin(np.pi * diff / L)
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    weights = np.where(parity, kern * hp[None, :], 0.0)
    f = np.asarray(f, dtype=np.complex128)
    return (2.0 * dx / (1j * L)) * weights @ f


def htilcal_apply(grid, f, map_):
    """Jacobian-free variant: Htilcal(g) = Hcal(g / h_ap), so that
    Htilcal(h_ap f) = Hcal(f) holds identically; h_ap >= JACOBIAN_FLOOR
    holds for every MonotoneMap."""
    _require_same_grid(grid, map_)
    return hcal_apply(grid, f / map_.jac, map_)


# -- state geometry and weighted norms -------------------------------------------


def curvature_geometric(state):
    """Differential-geometry route Im(d_a Z_ap conj(Z_ap)) / |Z_ap|^3,
    an independent cross-check of Re Theta."""
    grid = state.grid
    num = (grid.deriv(state.Zp) * np.conj(state.Zp)).imag
    return num / np.abs(state.Zp) ** 3


def derived_unbatched(state):
    """The right-hand-side fields of one state with one Fourier multiplier
    per FFT pair, in the expression order compute_derived keeps: the
    reference that the stacked rounds of evolution.derive_states must match
    bit for bit."""
    grid = state.grid
    Zp, Zt, sigma = state.Zp, state.Zt, state.sigma
    abs_Zp = np.abs(Zp)
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
        # D (I + H) as its one symbol i k (1 - sgn k), as compute_derived applies it
        deriv_hplus = grid.symbol_table(("deriv_hplus",))[0]
        capillary = sigma * inv_Zp * grid.multiply_symbol(curv_im, deriv_hplus)
    else:
        capillary = 0.0
    Ztt = np.conj(1j - 1j * A1 * inv_Zp + capillary)
    flux = Zt - b * Zp
    return {
        "b": b, "A1": A1, "omega": omega, "Ztt": Ztt, "Ztap": Ztap, "flux": flux,
        "flux_ap": grid.deriv(flux), "min_abs_Zp": float(abs_Zp.min()),
    }


def rhs_eulerian(state):
    """Time derivatives (dt Zdev, dt Z_ap, dt Z_t) of one state on the fixed
    grid, from its derived fields by the rate formula of the stepper's
    stages, as the rows of one (3, n) array."""
    d = compute_derived(state)
    rates = np.empty((3, state.grid.n), dtype=np.complex128)
    rates[:2] = d.flux, d.flux_ap
    return _rates(rates, d.b[None], d.Ztt[None], d.Ztap[None])


def rk4_by_blocks(y0, rhs, dt, k1, bounds):
    """evolution.rk4 with its stage combinations taken block by block: y0,
    k1 and each stage's rates split at the row indices bounds (the blocks
    Zdev, Z_ap, Z_t and the packed map rows of an advance stack), each
    block combined by numpy calls of its own in the expression order of
    rk4; rhs still takes and returns whole stacks."""

    def split(y):
        return np.split(y, bounds)

    def rates(blocks):
        return split(rhs(np.concatenate(blocks)))

    y0, k1 = split(y0), split(k1)
    k2 = rates([y + 0.5 * dt * k for y, k in zip(y0, k1)])
    k3 = rates([y + 0.5 * dt * k for y, k in zip(y0, k2)])
    k4 = rates([y + dt * k for y, k in zip(y0, k3)])
    return np.concatenate([
        y + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + e)
        for y, a, b, c, e in zip(y0, k1, k2, k3, k4)
    ])


def finish_unfused(grid, rows):
    """evolution._finish of the stacked blocks rows = (Zdev, Z_ap, Z_t) as two
    FFT pairs per row: the dealias of each block, then the removal of
    the k > 0 modes of Z_ap - 1 and of Zbar_t, with the L2 mass each loses
    measured on its own spectrum."""
    out = [dealias(grid, f) for f in rows]
    keep = grid.k_int <= 0
    mass = []
    for r, f in ((1, out[1] - 1.0), (2, np.conj(out[2]))):
        c = grid.coeffs(f)
        mass.append(np.sqrt(grid.length * np.sum(np.abs(c[..., ~keep]) ** 2, axis=-1)))
        out[r] = grid.from_coeffs(np.where(keep, c, 0.0))
    out[1] = 1.0 + out[1]
    out[2] = np.conj(out[2])
    return np.array(out), np.array(mass)


def weighted_norm(state, f, kind):
    """Norm of a field, possibly weighted by the interface geometry.

    Wspace: ||f||_inf + ||(1/|Z_ap|) d_a f||_2.
    Cspace: ||f||_{H^1/2} + (1 + ||d_a (1/|Z_ap|)||_2) ||f |Z_ap|||_2.
    """
    grid = state.grid
    if kind == "L2":
        return grid.l2_norm(f)
    if kind == "Hhalf":
        return grid.hhalf_norm(f)
    if kind == "Linf":
        return grid.sup_norm(f)
    abs_Zp = np.abs(state.Zp)
    if float(abs_Zp.min()) < ABS_ZP_FLOOR:
        raise DegenerateJacobianError("degenerate |Z_ap| weight in norm")
    if kind == "Wspace":
        return grid.sup_norm(f) + grid.l2_norm(grid.deriv(f) / abs_Zp)
    if kind == "Cspace":
        wfac = 1.0 + grid.l2_norm(grid.deriv(1.0 / abs_Zp))
        return grid.hhalf_norm(f) + wfac * grid.l2_norm(f * abs_Zp)
    raise ValueError(f"unknown norm kind {kind!r}")


def blocks_chained(state):
    """The energy blocks of energies._build_blocks by the chain of rounds
    that its derivative ladders replace: Z_ap,band = 1 + dealias(Z_ap - 1),
    inv = dealias(1 / Z_ap,band), d_j = D d_(j-1); Ztb1 = dealias(D conj
    Z_t), Ztb_j = D Ztb_(j-1); each derivative a transform of its own."""
    grid = state.grid
    Zp_band = 1.0 + dealias(grid, state.Zp - 1.0)
    inv = dealias(grid, 1.0 / Zp_band)
    d1 = grid.deriv(inv)
    d2 = grid.deriv(d1)
    Ztb1 = dealias(grid, grid.deriv(np.conj(state.Zt)))
    Ztb2 = grid.deriv(Ztb1)
    omega = Zp_band / np.abs(Zp_band)
    q = omega * d1
    return {
        "inv": inv, "d1": d1, "d2": d2, "d3": grid.deriv(d2),
        "Ztb1": Ztb1, "Ztb2": Ztb2, "Ztb3": grid.deriv(Ztb2), "omega": omega,
        "Theta": 1j * q - 1j * (q - grid.hilbert(q)).real,
    }


# -- difference fields of a pair ---------------------------------------------------


def _dt_theta(state, derived):
    """Material derivative of Theta from the closed pointwise formula."""
    grid = state.grid
    abs_Zp = np.abs(state.Zp)
    DbarZtbar = grid.deriv(np.conj(state.Zt)) / np.conj(state.Zp)
    u = grid.deriv(DbarZtbar) / abs_Zp + 1j * derived.Theta.real * DbarZtbar
    dTheta = grid.deriv(derived.Theta)
    c = derived.b * grid.hilbert(dTheta) - grid.hilbert(derived.b * dTheta)
    return 1j * u - 1j * (u - grid.hilbert(u)).real + 1j * c.imag


def continue_angle(Zp, g_prev):
    """Branch of arg(Z_ap) within half a turn of g_prev at each node: the
    branch a state once carried from step to step."""
    raw = np.angle(Zp)
    return raw + TWO_PI * np.round((g_prev - raw) / TWO_PI)


def seed_angle_unwrapped(Zp):
    """The branch of arg(Z_ap) by np.unwrap of the principal angle rolled to
    start at the node where |Z_ap - 1| is least, rolled back and shifted so
    that node lies in [-pi, pi].  Its corrections mod(d + pi, 2 pi) - pi - d
    are rounded before they are summed, so on a row past +-pi it can sit
    about 1e-15 off raw + 2 pi k; evolution.seed_angle counts the same
    whole turns."""
    raw = np.angle(Zp)
    ref = int(np.argmin(np.abs(Zp - 1.0)))
    g = np.roll(np.unwrap(np.roll(raw, -ref)), ref)
    return g - 2.0 * np.pi * np.round(g[ref] / (2.0 * np.pi))


def compose_maps(outer, inner):
    """outer o inner as a MonotoneMap on the shared grid: the deviation of
    outer pulled back through inner.  The route to htilde = k_b^{-1} o k_a
    through the whole inverse of k_b, which PairState.map_tilde replaces by
    one preimage solve."""
    if outer.grid != inner.grid:
        raise ValueError("maps live on different grids")
    grid = outer.grid
    vals = inner.values + compose_map_apply(grid, outer.deviation, inner)
    return MonotoneMap(grid, vals - grid.nodes)


def inverse_map(m):
    """The inverse of the map m as a MonotoneMap: the preimages of the grid
    nodes."""
    nodes = m.grid.nodes
    return MonotoneMap(m.grid, m.preimage(nodes)[0] - nodes)


def map_at(map_, x):
    """map_ at arbitrary points x, through the trigonometric interpolant of
    its deviation."""
    x = np.asarray(x, dtype=np.float64)
    return x + map_.grid.interpolate(map_.deviation, x)


def lagrangian_jacobian(k):
    """(h_alpha o h^{-1}) on the grid nodes for the inverse flow map
    k = h^{-1}: differentiating k(h(alpha)) = alpha gives 1 / k_alpha."""
    return 1.0 / k.jac


# name -> f(grid, state, derived, map) of every field whose difference the
# paper's estimates measure
SELECTORS = {
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
    "b_ap": lambda grid, st, der, mp: grid.deriv(der.b).real + 0j,
    "Theta": lambda grid, st, der, mp: der.Theta,
    "DtTheta": lambda grid, st, der, mp: _dt_theta(st, der),
    "Ztt": lambda grid, st, der, mp: der.Ztt,
    "Zttbar": lambda grid, st, der, mp: np.conj(der.Ztt),
    "DapZt": lambda grid, st, der, mp: der.Ztap / st.Zp,
    "h_alpha": lambda grid, st, der, mp: lagrangian_jacobian(mp) + 0j,
}


def delta_field(pair, name):
    """Delta(f) = f_a - U_htilde f_b for the field SELECTORS[name]."""
    select = SELECTORS[name]
    a, b = pair.state_a, pair.state_b
    fa = select(a.grid, a, compute_derived(a), pair.k_a)
    fb = select(b.grid, b, compute_derived(b), pair.k_b)
    return fa - compose_map_apply(a.grid, fb, pair.map_tilde)


# -- energy families term by term ---------------------------------------------------
#
# The families as written before their term tables: each component its own
# norm call, every L-infinity norm a single-field sup_norm call.  The blocks
# and powers are those of crestwave.energies.


def energy_sigma_terms(state):
    """The thirteen components of energy_sigma, term by term."""
    s = state.sigma
    (B,) = _state_blocks(state)
    grid, inv, d1, d2, d3 = B["grid"], B["inv"], B["d1"], B["d2"], B["d3"]
    pw = _powers(B)
    dTheta = grid.deriv(B["Theta"])
    sup_Zp12_d1 = grid.sup_norm(pw(0.5) * d1)
    return {
        "dap_invZp_L2sq": grid.l2_norm(d1) ** 2,
        "invZp_dap_invZp_Hhalfsq": grid.hhalf_norm(inv * d1) ** 2,
        "sigma_dap_Theta_Hhalfsq": grid.hhalf_norm(s * dTheta) ** 2,
        "sigma16_Zp12_dap_invZp_L2p6": grid.l2_norm(s ** (1 / 6) * pw(0.5) * d1) ** 6,
        "sigma12_Zp12_dap_invZp_Linfsq": s * sup_Zp12_d1 ** 2,
        "sigma12_invZp12_dap2_invZp_L2sq": grid.l2_norm(np.sqrt(s) * pw(-0.5) * d2) ** 2,
        "sigma12_invZp32_dap2_invZp_Hhalfsq": grid.hhalf_norm(np.sqrt(s) * pw(-1.5) * d2) ** 2,
        "sigma_invZp_dap3_invZp_L2sq": grid.l2_norm(s * inv * d3) ** 2,
        "sigma_invZp2_dap3_invZp_Hhalfsq": grid.hhalf_norm(s * pw(-2.0) * d3) ** 2,
        "Ztapbar_L2sq": grid.l2_norm(B["Ztb1"]) ** 2,
        "invZp2_dap_Ztapbar_L2sq": grid.l2_norm(pw(-2.0) * B["Ztb2"]) ** 2,
        "sigma12_invZp12_dap_Ztapbar_L2sq": grid.l2_norm(np.sqrt(s) * pw(-0.5) * B["Ztb2"]) ** 2,
        "sigma12_invZp52_dap2_Ztapbar_L2sq": grid.l2_norm(np.sqrt(s) * pw(-2.5) * B["Ztb3"]) ** 2,
    }


def energy_aux_terms(state):
    """The six components of energy_aux, term by term."""
    (B,) = _state_blocks(state)
    grid, pw = B["grid"], _powers(B)
    return {
        "Zp12_dap_invZp_Linfsq": grid.sup_norm(pw(0.5) * B["d1"]) ** 2,
        "invZp12_dap2_invZp_L2sq": grid.l2_norm(pw(-0.5) * B["d2"]) ** 2,
        "invZp52_dap3_invZp_L2sq": grid.l2_norm(pw(-2.5) * B["d3"]) ** 2,
        "invZp12_dap_Ztapbar_L2sq": grid.l2_norm(pw(-0.5) * B["Ztb2"]) ** 2,
        "invZp52_dap2_Ztapbar_L2sq": grid.l2_norm(pw(-2.5) * B["Ztb3"]) ** 2,
        "invZp72_dap2_Ztapbar_Hhalfsq": grid.hhalf_norm(pw(-3.5) * B["Ztb3"]) ** 2,
    }


# term names of energy_sigma reused verbatim for the sigma-weighted part of
# the difference energy (solution a only), in the order of the display
_DELTA1_SIGMA_TERMS = (
    "sigma16_Zp12_dap_invZp_L2p6",
    "sigma12_Zp12_dap_invZp_Linfsq",
    "sigma12_invZp12_dap2_invZp_L2sq",
    "sigma12_invZp32_dap2_invZp_Hhalfsq",
    "sigma_dap_Theta_Hhalfsq",
    "sigma_invZp_dap3_invZp_L2sq",
    "sigma_invZp2_dap3_invZp_Hhalfsq",
)
_DELTA2_SIGMA_TERMS = (
    "sigma12_invZp12_dap_Ztapbar_L2sq",
    "sigma12_invZp52_dap2_Ztapbar_L2sq",
)


def energy_delta_terms(pair):
    """The components of energy_delta, term by term, with the fields of b
    pulled back through htilde as one complex stack."""
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    Ba, Bb = _state_blocks(a, b)
    pwa, pwb = _powers(Ba), _powers(Bb)
    htil = pair.map_tilde

    fields_a = (Ba["omega"], Ba["d1"], Ba["inv"] * Ba["d1"], Ba["Ztb1"], pwa(-2.0) * Ba["Ztb2"])
    fields_b = (Bb["omega"], Bb["d1"], Bb["inv"] * Bb["d1"], Bb["Ztb1"], pwb(-2.0) * Bb["Ztb2"])
    pulled = compose_map_apply(grid, np.stack(fields_b + (1.0 / np.abs(b.Zp),)), htil)
    d_omega, d_d1, d_inv_d1, d_Ztb1, d_Ztb2 = (fa - fb for fa, fb in zip(fields_a, pulled))
    util_inv_abs_b = pulled[-1].real

    abs_a = np.abs(a.Zp)
    htil_ap = htil.jac
    dev_j = htil_ap - 1.0
    comp = {
        "d0_delta_omega_Linfsq": grid.sup_norm(d_omega) ** 2,
        "d0_htilap_minus1_LinfHhalfsq": (grid.sup_norm(dev_j) + grid.hhalf_norm(dev_j)) ** 2,
        "d0_Dapa_htilap_minus1_L2sq": grid.l2_norm(grid.deriv(dev_j) / abs_a) ** 2,
        "d0_absZpa_Util_invabsZpb_minus1_Linfsq":
            grid.sup_norm(abs_a * util_inv_abs_b - 1.0) ** 2,
        "d1_delta_dap_invZp_L2sq": grid.l2_norm(d_d1) ** 2,
        "d1_delta_invZp_dap_invZp_Hhalfsq": grid.hhalf_norm(d_inv_d1) ** 2,
    }
    sig_a = energy_sigma_terms(a)
    for name in _DELTA1_SIGMA_TERMS:
        comp["d1_a_" + name] = sig_a[name]
    comp["d2_delta_Ztapbar_L2sq"] = grid.l2_norm(d_Ztb1) ** 2
    comp["d2_delta_invZp2_dap_Ztapbar_L2sq"] = grid.l2_norm(d_Ztb2) ** 2
    for name in _DELTA2_SIGMA_TERMS:
        comp["d2_a_" + name] = sig_a[name]
    comp["coupling_sigma_aux_b"] = a.sigma * float(sum(energy_aux_terms(b).values()))
    return comp


def f_delta_norm_terms(pair):
    """The components of f_delta_norm, term by term, with the fields of b
    pulled back through htilde as one complex stack."""
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    derived_a, derived_b = derive_states((a, b))

    def fields(st, der, k):
        return (st.Zt, der.Ztt, 1.0 / st.Zp, der.Ztap / st.Zp, der.A1,
                grid.deriv(der.b).real, 1.0 / k.jac)

    fields_a = fields(a, derived_a, pair.k_a)
    pulled = compose_map_apply(grid, np.stack(fields(b, derived_b, pair.k_b)), pair.map_tilde)
    d_Zt, d_Ztt, d_invZp, d_DapZt, d_A1, d_bap, d_halpha = (
        fa - (fb.real if np.isrealobj(fa) else fb) for fa, fb in zip(fields_a, pulled)
    )
    return {
        "fd_delta_Zt_Hhalf": grid.hhalf_norm(d_Zt),
        "fd_delta_Ztt_Hhalf": grid.hhalf_norm(d_Ztt),
        "fd_delta_invZp_Hhalf": grid.hhalf_norm(d_invZp),
        "fd_delta_halpha_L2": grid.l2_norm(d_halpha),
        "fd_delta_DapZt_L2": grid.l2_norm(d_DapZt),
        "fd_delta_A1_L2": grid.l2_norm(d_A1),
        "fd_delta_bap_L2": grid.l2_norm(d_bap),
    }
