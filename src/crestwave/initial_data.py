"""Model angled-crest initial data, Poisson mollification and the M
diagnostic of the admissible singular data class.

The crest model is

    Z_ap(a') = (1 - exp(-i (a' - a_c - i delta)))^(nu - 1)

built directly from its k <= 0 Fourier series (binomial coefficients with a
geometric damping factor exp(-delta m)), so holomorphicity is exact by
construction and mean(Z_ap) = 1 without renormalization.  The factor
vanishes linearly at the crest, giving |Z_ap| ~ |a' - a_c|^(nu - 1) and an
interior crest angle nu * pi; for delta > 0 the singularity sits at height
+delta on the air side of the interface.  Velocity data is a single
holomorphic mode of Zbar_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateJacobianError, HolomorphicityError
from .evolution import make_state, seed_angle
DEFAULT_DEPTH_LADDER = tuple(-(2.0 ** -j) for j in range(1, 9))
# positive-mode tolerance of estimate_M: on the data and at each depth
_M_HOLO_TOL = 1e-8


@dataclass
class CrestSpec:
    """Parameters of the model angled-crest data.

    nu is the interior angle over pi and must lie in (0, 1/2);
    regularization_delta >= 0 shifts the branch point off the interface.
    """

    nu: float
    regularization_delta: float = 0.0
    velocity_amplitude: complex = 0.0
    velocity_mode: int = -1

    def __post_init__(self):
        if not (0.0 < self.nu < 0.5):
            raise ValueError(f"nu must lie in (0, 1/2), got {self.nu}")
        if not self.regularization_delta >= 0.0:
            raise ValueError(f"regularization_delta must be >= 0, got {self.regularization_delta}")
        if self.velocity_mode >= 0:
            raise ValueError("velocity_mode must be a negative integer")


def _binomial_series(mu, n_terms):
    """Coefficients a_m of (1 - w)^mu = sum_m a_m w^m."""
    a = np.empty(n_terms)
    a[0] = 1.0
    for m in range(1, n_terms):
        a[m] = a[m - 1] * (m - 1 - mu) / m
    return a


def crest_data(spec, grid, sigma=0.0):
    """WaveState with one model crest and a single-mode holomorphic velocity.

    With delta = 0 the crest is shifted to a mid-cell location so that no
    collocation node lands on the singular point.
    """
    n, L = grid.n, grid.length
    k1 = 2.0 * np.pi / L
    delta = spec.regularization_delta
    a_c = 0.0 if delta > 0.0 else 0.5 * grid.dx

    n_neg = n // 2 - 1  # negative-frequency slots k = -1 .. -(n/2 - 1)
    a_m = _binomial_series(spec.nu - 1.0, n_neg + 1)
    m = np.arange(n_neg + 1)
    series = a_m * np.exp(-delta * k1 * m) * np.exp(1j * k1 * m * a_c)

    c_Zp = np.zeros(n, dtype=np.complex128)
    c_Zp[0] = series[0]  # = 1, exact unit mean
    c_Zp[-n_neg:] = series[1:][::-1]
    Zp = grid.from_coeffs(c_Zp)

    c_dev = np.zeros(n, dtype=np.complex128)
    kneg = -k1 * m[1:]
    c_dev[-n_neg:] = (series[1:] / (1j * kneg))[::-1]
    Zdev = grid.from_coeffs(c_dev)

    c_Ztbar = np.zeros(n, dtype=np.complex128)
    if spec.velocity_amplitude != 0:
        mode = spec.velocity_mode
        if -mode > n_neg:
            raise ValueError(f"velocity_mode {mode} is outside the grid spectrum")
        c_Ztbar[mode % n] = spec.velocity_amplitude
    return make_state(grid, Zdev, Zp, np.conj(grid.from_coeffs(c_Ztbar)), sigma)


def mollify_data(state, eps):
    """Poisson mollification of (Z, Z_t) at scale eps; Z_ap is recomputed
    spectrally from the mollified Z so holomorphicity is preserved."""
    # written so that a NaN scale fails too
    if not eps >= 0.0:
        raise ValueError(f"mollification scale must be >= 0, got {eps}")
    grid = state.grid
    Zdev = grid.poisson_smooth(state.Zdev, eps)
    Zt = np.conj(grid.poisson_smooth(np.conj(state.Zt), eps))
    Zp = 1.0 + grid.deriv(Zdev)
    return make_state(grid, Zdev, Zp, Zt, state.sigma, state.time)


@dataclass
class MEstimate:
    total: float
    components: dict = field(default_factory=dict)
    depths: tuple = ()


def estimate_M(state, depth_ladder=None):
    """Ladder approximation of the nine-term admissibility functional.

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
        mass = grid.positive_mode_mass(f)
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
        Psi = 1.0 + grid.extend_to_depth(dev_Zp, y, tol=_M_HOLO_TOL)
        if float(np.min(np.abs(Psi))) < 1e-10:
            raise DegenerateJacobianError(f"extended Z_ap vanishes at depth {y}")
        inv = 1.0 / Psi
        d1 = grid.deriv(inv)
        d2 = grid.deriv(d1)
        d3 = grid.deriv(d2)
        logPsi = np.log(np.abs(Psi)) + 1j * seed_angle(grid, Psi)
        p34 = np.exp(0.75 * logPsi)
        p12 = np.exp(0.5 * logPsi)
        U = grid.extend_to_depth(Ztbar, y, tol=_M_HOLO_TOL)
        vals = {
            "Psi34_dz_invPsi_L8over7": grid.lp_norm(p34 * d1, 8.0 / 7.0),
            "Psi12_dz_invPsi_L4over3": grid.lp_norm(p12 * d1, 4.0 / 3.0),
            "dz_invPsi_L2": grid.l2_norm(d1),
            "invPsi_dz_invPsi_Linf": grid.sup_norm(inv * d1),
            "invPsi_dz2_invPsi_L1": grid.lp_norm(inv * d2, 1.0),
            "invPsi2_dz2_invPsi_L2": grid.l2_norm(inv ** 2 * d2),
            "invPsi3_dz3_invPsi_L1": grid.lp_norm(inv ** 3 * d3, 1.0),
            "invPsi_minus1_L2": grid.l2_norm(inv - 1.0),
            "U_H3p5": grid.sobolev_norm(U, 3.5),
        }
        for k in names:
            best[k] = max(best[k], vals[k])
    return MEstimate(total=float(sum(best.values())), components=best, depths=depths)
