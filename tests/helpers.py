"""Shared constructors and oracles for the test suite."""

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from crestwave.brackets import InverseFlowMap, MonotoneMap
from crestwave.errors import DegenerateJacobianError, HolomorphicityError
from crestwave.evolution import StepperConfig, cfl_bound, make_state, seed_angle, step_rk4
from crestwave.pair import PairState
from crestwave.spectral import SpectralGrid

from oracles import linf_norm, rhs_eulerian


def same_bytes(arrays, others):
    """Whether the arrays pairwise share dtype, shape and bytes, so that
    signed zeros and NaNs count as they are stored."""
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(arrays, others, strict=True)
    )


def same(x, y):
    """Whether x and y, two states, maps or pairs, have the same type, grid,
    scalars and array bytes, the members of a pair compared alike; what
    each keeps is not compared."""

    def equal(a, b):
        if isinstance(a, np.ndarray):
            return same_bytes([a], [b])
        return same(a, b) if is_dataclass(a) else a == b

    return type(x) is type(y) and all(
        equal(getattr(x, f.name), getattr(y, f.name)) for f in fields(x) if f.compare
    )


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


def rolled_state(state, j):
    """state with its labels shifted by j nodes: Z(a + j dx) = a + j dx +
    Zdev(a + j dx), so Zdev rolls and gains j dx, and Z_ap and Z_t roll."""
    g = state.grid
    return make_state(g, np.roll(state.Zdev, -j) + j * g.dx, np.roll(state.Zp, -j),
                      np.roll(state.Zt, -j), state.sigma, state.time)


def rolled_pair(pair, j):
    """pair with the labels of both solutions and both maps shifted by j
    nodes: the map deviations and Jacobians roll."""
    maps = (InverseFlowMap(k.grid, np.roll(k.deviation, -j), np.roll(k.jac, -j))
            for k in (pair.k_a, pair.k_b))
    return PairState(rolled_state(pair.state_a, j), rolled_state(pair.state_b, j), *maps)


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


# -- harmonic extension and the admissibility functional M ---------------------

DEFAULT_DEPTH_LADDER = tuple(-(2.0 ** -j) for j in range(1, 9))
# positive-mode tolerance of estimate_M: on the data and at each depth
_M_HOLO_TOL = 1e-8


def positive_mode_mass(grid, f):
    """L2 mass carried by modes k > 0 (Nyquist included)."""
    # the modes k > 0 are the slots 1..n/2 of the fft layout
    c = grid.coeffs(f)[1 : grid.n // 2 + 1]
    return float(np.sqrt(grid.length * np.sum(np.abs(c) ** 2)))


def lp_norm(grid, f, p):
    if p == np.inf:
        return linf_norm(grid, f)
    # written so that a NaN exponent fails too
    if not p > 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    return float((grid.dx * np.sum(np.abs(f) ** p)) ** (1.0 / p))


def sobolev_norm(grid, f, s):
    """Inhomogeneous H^s norm with weight (1 + k^2)^s on |c_k|^2."""
    if not np.isfinite(s):
        raise ValueError(f"Sobolev index must be finite, got {s}")
    c = grid.coeffs(f)
    w = (1.0 + grid.k ** 2) ** s
    return float(np.sqrt(grid.length * np.sum(w * np.abs(c) ** 2)))


def extend_to_depth(grid, f, depth, tol=1e-10):
    """Harmonic extension of a holomorphic boundary field to y = depth < 0.

    f must have Fourier support in k <= 0 up to `tol` (relative to its
    L2 size); the extension multiplies mode k by exp(-|k| |y|).
    """
    # written so that a NaN depth fails too
    if not -np.inf < depth < 0.0:
        raise ValueError(f"depth must be finite and negative, got {depth}")
    scale = grid.l2_norm(f) + 1e-300
    bad = positive_mode_mass(grid, f)
    if bad > tol * max(scale, 1.0):
        raise HolomorphicityError(
            f"positive-mode mass {bad:.3e} exceeds tolerance {tol:.1e} * {max(scale, 1.0):.3e}"
        )
    c = grid.coeffs(f)
    c = np.where(grid.k_int <= 0, c * np.exp(-np.abs(grid.k) * abs(depth)), 0.0)
    return grid.from_coeffs(c)


def harmonic_extension_norms(grid, f, depths, p=2, tol=1e-10):
    """L^p norms of the harmonic extension of f on a ladder of depths y < 0."""
    return [lp_norm(grid, extend_to_depth(grid, f, y, tol=tol), p) for y in depths]


@dataclass
class MEstimate:
    total: float
    components: dict = field(default_factory=dict)
    depths: tuple = ()


def estimate_M(state, depth_ladder=None):
    """Ladder approximation of the nine-term admissibility functional M of
    the angled-crest data class (Kinsey & Wu 2018; Agrawal 2019).

    Each term sup_{y < 0} ||...||_{L^p} is approximated from below by the
    maximum over a finite ladder of depths; fields at depth come from the
    exact harmonic-extension multiplier on the k <= 0 spectrum.
    """
    grid = state.grid
    depths = tuple(depth_ladder) if depth_ladder is not None else DEFAULT_DEPTH_LADDER
    # written so that a NaN depth fails too
    if not (depths and all(-np.inf < y < 0 for y in depths)):
        raise ValueError(f"the depth ladder must be non-empty, finite and negative, got {depths}")

    for name, f in (("Z_ap - 1", state.Zp - 1.0), ("Zbar_t", np.conj(state.Zt))):
        mass = positive_mode_mass(grid, f)
        if mass > _M_HOLO_TOL * max(1.0, grid.l2_norm(f)):
            raise HolomorphicityError(f"{name} has positive-mode mass {mass:.3e}")

    names = (
        "Psi34_dz_invPsi_L8over7",
        "Psi12_dz_invPsi_L4over3",
        "dz_invPsi_L2",
        "invPsi_dz_invPsi_Linf",
        "invPsi_dz2_invPsi_L1",
        "invPsi2_dz2_invPsi_L2",
        "invPsi3_dz3_invPsi_L1",
        "invPsi_minus1_L2",
        "U_H3p5",
    )
    best = dict.fromkeys(names, 0.0)
    dev_Zp = state.Zp - 1.0
    Ztbar = np.conj(state.Zt)
    for y in depths:
        Psi = 1.0 + extend_to_depth(grid, dev_Zp, y, tol=_M_HOLO_TOL)
        if float(np.min(np.abs(Psi))) < 1e-10:
            raise DegenerateJacobianError(f"extended Z_ap vanishes at depth {y}")
        inv = 1.0 / Psi
        d1 = grid.deriv(inv)
        d2 = grid.deriv(d1)
        d3 = grid.deriv(d2)
        logPsi = np.log(np.abs(Psi)) + 1j * seed_angle(Psi)
        p34 = np.exp(0.75 * logPsi)
        p12 = np.exp(0.5 * logPsi)
        U = extend_to_depth(grid, Ztbar, y, tol=_M_HOLO_TOL)
        vals = {
            "Psi34_dz_invPsi_L8over7": lp_norm(grid, p34 * d1, 8.0 / 7.0),
            "Psi12_dz_invPsi_L4over3": lp_norm(grid, p12 * d1, 4.0 / 3.0),
            "dz_invPsi_L2": grid.l2_norm(d1),
            "invPsi_dz_invPsi_Linf": grid.sup_norm(inv * d1),
            "invPsi_dz2_invPsi_L1": lp_norm(grid, inv * d2, 1.0),
            "invPsi2_dz2_invPsi_L2": grid.l2_norm(inv ** 2 * d2),
            "invPsi3_dz3_invPsi_L1": lp_norm(grid, inv ** 3 * d3, 1.0),
            "invPsi_minus1_L2": grid.l2_norm(inv - 1.0),
            "U_H3p5": sobolev_norm(grid, U, 3.5),
        }
        for k in names:
            best[k] = max(best[k], vals[k])
    return MEstimate(total=float(sum(best.values())), components=best, depths=depths)


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
