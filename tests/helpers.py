"""Shared constructors and oracles for the test suite."""

import numpy as np

from crestwave.brackets import MonotoneMap
from crestwave.evolution import StepperConfig, cfl_bound, make_state, step_rk4
from crestwave.spectral import SpectralGrid

from oracles import rhs_eulerian


def random_holomorphic(grid, rng, n_modes=6, amp=0.3, decay=2.0):
    """Random field with Fourier support k in {-n_modes, ..., -1}."""
    c = np.zeros(grid.n, dtype=np.complex128)
    for m in range(1, n_modes + 1):
        c[-m] = amp * (rng.standard_normal() + 1j * rng.standard_normal()) / m ** decay
    return grid.from_coeffs(c)


def random_real_field(grid, rng, n_modes=8, amp=1.0, decay=2.0):
    """Random real band-limited field with zero-mean oscillatory part."""
    c = np.zeros(grid.n, dtype=np.complex128)
    c[0] = amp * rng.standard_normal()
    for m in range(1, n_modes + 1):
        z = amp * (rng.standard_normal() + 1j * rng.standard_normal()) / m ** decay
        c[m] = z
        c[-m] = np.conj(z)
    return grid.from_coeffs(c).real


def folding_maps(grid):
    """Inverse flow maps (k_a, k_b) on a grid of length 2 pi, each
    monotone, whose htilde = k_b^{-1} o k_a is not: at x = pi,
    k_a,x = 1.5e-6 and k_b,x = 1.9, so htilde_ap = 7.9e-7 there, below
    JACOBIAN_FLOOR."""
    return (
        MonotoneMap(grid, (1.0 - 1.5e-6) * np.sin(grid.nodes)),
        MonotoneMap(grid, -0.9 * np.sin(grid.nodes)),
    )


def random_smooth_state(grid, rng, sigma=0.0, amp=0.25):
    """Admissible random state: holomorphic Zp - 1 and Zbar_t, |Zp| away
    from zero, consistent Zdev."""
    while True:
        zp_dev = random_holomorphic(grid, rng, n_modes=6, amp=amp)
        Zp = 1.0 + zp_dev
        if float(np.min(np.abs(Zp))) > 0.4:
            break
        amp *= 0.7
    c = grid.coeffs(zp_dev)
    k = grid.k.copy()
    k[0] = 1.0
    cdev = np.where(grid.k_int < 0, c / (1j * k), 0.0)
    Zdev = grid.from_coeffs(cdev)
    Zt = np.conj(random_holomorphic(grid, rng, n_modes=5, amp=0.6 * amp))
    return make_state(grid, Zdev, Zp, Zt, sigma)


def random_monotone_map(grid, rng, amp=0.2, n_modes=4, max_slope=None):
    """Random periodic reparametrization; with max_slope set, the deviation
    is rescaled so that |h_ap - 1| <= max_slope exactly."""
    dev = random_real_field(grid, rng, n_modes=n_modes, amp=amp, decay=2.0)
    dev -= dev.mean()
    slope = float(np.max(np.abs(grid.deriv(dev).real)))
    if max_slope is not None and slope > 0:
        dev *= max_slope / slope
    else:
        jac_margin = float(np.min(1.0 + grid.deriv(dev).real))
        if jac_margin < 0.2:
            dev *= 0.15 / max(1e-12, 1.0 - jac_margin)
    return MonotoneMap(grid, dev)


def resample(grid, f, n_new):
    """Fourier resampling of f onto a grid with n_new points, same period."""
    if n_new == grid.n:
        return np.asarray(f, dtype=np.complex128).copy()
    c = grid.coeffs(f)
    c_new = np.zeros(n_new, dtype=np.complex128)
    half = min(grid.n, n_new) // 2
    # copy k = 0..half-1 and k = -1..-(half-1); the source Nyquist mode
    # is dropped rather than split
    c_new[:half] = c[:half]
    c_new[-(half - 1):] = c[-(half - 1):]
    return np.fft.ifft(c_new * n_new)


def refine_state(state, n_new):
    """Fourier-resample a state onto a finer grid (spectral convergence
    studies); sigma and time carry over, the angle branch is seeded anew."""
    grid = state.grid
    g2 = SpectralGrid(n_new, grid.length, grid.dealias_fraction)
    Zdev, Zp, Zt = (resample(grid, f, n_new) for f in (state.Zdev, state.Zp, state.Zt))
    return make_state(g2, Zdev, Zp, Zt, state.sigma, state.time)


def harmonic_extension_norms(grid, f, depths, p=2, tol=1e-10):
    """L^p norms of the harmonic extension of f on a ladder of depths y < 0."""
    return [grid.lp_norm(grid.extend_to_depth(f, y, tol=tol), p) for y in depths]


def evolve_series(state, n_steps, dt=None, cfg=None, keep_every=1):
    """Run n_steps of RK4 and return the list of states (initial included)."""
    cfg = cfg or StepperConfig()
    if dt is None:
        dt = 0.4 * cfl_bound(state)
    out = [state]
    for i in range(n_steps):
        state = step_rk4(state, cfg, dt)
        if (i + 1) % keep_every == 0:
            out.append(state)
    return out, dt


def material_derivative_fd(grid, f_prev, f_next, b_mid, f_mid, dt):
    """Centered-in-time material derivative (d_t + b d_a) f on the grid."""
    return (f_next - f_prev) / (2.0 * dt) + b_mid * grid.deriv(f_mid)


def measure_mode_frequency(grid, k, sigma, amp=1e-6, periods=8.0, dt_safety=0.4):
    """Oscillation frequency of a small single-mode state, via an FFT peak
    of the recorded mode amplitude with parabolic refinement."""
    n = grid.n
    Zt0 = np.conj(amp * np.exp(-1j * k * grid.nodes))
    st = make_state(grid, np.zeros(n, complex), np.ones(n, complex), Zt0, sigma)
    om_ref = np.sqrt(k + sigma * k ** 3)
    T = periods * 2.0 * np.pi / om_ref
    cfg = StepperConfig()
    dt = dt_safety * cfl_bound(st)
    n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    series = np.empty(n_steps)
    for i in range(n_steps):
        st = step_rk4(st, cfg, dt)
        series[i] = grid.coeffs(np.conj(st.Zt))[-k].real
    w = np.hanning(n_steps)
    pad = 16 * n_steps
    spec = np.abs(np.fft.rfft(series * w, n=pad))
    i0 = int(np.argmax(spec[1:])) + 1
    denom = spec[i0 - 1] - 2.0 * spec[i0] + spec[i0 + 1]
    shift = 0.5 * (spec[i0 - 1] - spec[i0 + 1]) / denom if denom != 0 else 0.0
    return (i0 + shift) * 2.0 * np.pi / (pad * dt)


def linearized_frequency_fd(grid, k, sigma, h=1e-7):
    """Independent oracle: eigenfrequency of the flat-state linearization
    restricted to one wavenumber, via finite-difference Jacobian."""
    n = grid.n
    a = grid.nodes

    def pack(x):
        zp = 1.0 + (x[0] + 1j * x[1]) * np.exp(-1j * k * a)
        ztbar = (x[2] + 1j * x[3]) * np.exp(-1j * k * a)
        return make_state(grid, np.zeros(n, complex), zp, np.conj(ztbar), sigma)

    def project(dZp, dZt):
        czp = grid.coeffs(dZp)[-k]
        czt = grid.coeffs(np.conj(dZt))[-k]
        return np.array([czp.real, czp.imag, czt.real, czt.imag])

    J = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        _, dZp_p, dZt_p = rhs_eulerian(pack(e))
        _, dZp_m, dZt_m = rhs_eulerian(pack(-e))
        J[:, j] = (project(dZp_p, dZt_p) - project(dZp_m, dZt_m)) / (2.0 * h)
    eig = np.linalg.eigvals(J)
    return float(np.max(np.abs(eig.imag)))
