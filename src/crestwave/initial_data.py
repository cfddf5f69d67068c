"""Model angled-crest initial data and its Poisson mollification.

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

from dataclasses import dataclass

import numpy as np

from .evolution import make_state


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
