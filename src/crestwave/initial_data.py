"""Model angled-crest initial data, Poisson-mollified in its spectrum.

The crest model is

    Z_ap(a') = (1 - exp(-i (a' - a_c - i delta)))^(nu - 1)

built directly from its k <= 0 Fourier series (binomial coefficients with a
geometric damping factor exp(-delta m)), so holomorphicity is exact by
construction and mean(Z_ap) = 1 without renormalization.  The factor
vanishes linearly at the crest, giving |Z_ap| ~ |a' - a_c|^(nu - 1) and an
interior crest angle nu * pi; for delta > 0 the singularity sits at height
+delta on the air side of the interface.  Velocity data is a single
holomorphic mode of Zbar_t.

On these k <= 0 spectra the Poisson multiplier exp(-eps |k|) is the same
geometric damping, so crest_data mollifies its crest in the series: the
mollified crest is the model crest with its branch point raised from
height delta to delta + eps, and its velocity mode damped by
exp(-eps |k|).  mollify_data, the mollifier of an arbitrary state, is
applied only by tests and lives in tests/oracles.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

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


@functools.lru_cache(maxsize=None)
def _binomial_series(mu, n_terms):
    """Coefficients a_m of (1 - w)^mu = sum_m a_m w^m, by the recurrence
    a_m = a_(m-1) (m - 1 - mu) / m on Python floats, whose operations round
    as numpy's do; read-only, built once per (mu, n_terms), so the members
    of a sweep at one (nu, n) share one series."""
    terms = accumulate(range(1, n_terms), lambda a, m: a * (m - 1 - mu) / m, initial=1.0)
    series = np.fromiter(terms, dtype=np.float64, count=n_terms)
    series.flags.writeable = False
    return series


def crest_data(spec, grid, sigma=0.0, epsilon=0.0):
    """WaveState with one model crest and a single-mode holomorphic velocity,
    Poisson-mollified at scale epsilon: the spectra are damped by
    exp(-epsilon |k|) before their one inverse transform, so the state
    agrees to rounding with mollify_data(crest_data(spec, grid, sigma),
    epsilon) of tests/oracles.py, and Z_ap has no positive modes beyond
    those of the transform.

    With delta = 0 the crest is shifted to a mid-cell location so that no
    collocation node lands on the singular point, whatever epsilon.
    """
    _check_scale(epsilon)
    n, L = grid.n, grid.length
    k1 = 2.0 * np.pi / L
    delta = spec.regularization_delta
    a_c = 0.0 if delta > 0.0 else 0.5 * grid.dx

    n_neg = n // 2 - 1  # negative-frequency slots k = -1 .. -(n/2 - 1)
    a_m = _binomial_series(spec.nu - 1.0, n_neg + 1)
    m = np.arange(n_neg + 1)
    # the damping of the branch point's height and the mollifier, in one
    series = a_m * np.exp(-(delta + epsilon) * k1 * m) * np.exp(1j * k1 * m * a_c)

    # the spectra of Z_ap, Zdev and Zbar_t, brought back in one transform
    c = np.zeros((3, n), dtype=np.complex128)
    c[0, 0] = series[0]  # = 1, exact unit mean
    c[0, -n_neg:] = series[1:][::-1]
    kneg = -k1 * m[1:]
    c[1, -n_neg:] = (series[1:] / (1j * kneg))[::-1]
    if spec.velocity_amplitude != 0:
        mode = spec.velocity_mode
        if -mode > n_neg:
            raise ValueError(f"velocity_mode {mode} is outside the grid spectrum")
        c[2, mode % n] = spec.velocity_amplitude * np.exp(epsilon * k1 * mode)
    Zp, Zdev, Ztbar = grid.from_coeffs(c)
    return make_state(grid, Zdev, Zp, np.conj(Ztbar), sigma)


def _check_scale(eps):
    """Refuse a mollification scale that is negative, NaN or infinite."""
    # written so that a NaN scale fails too
    if not eps >= 0.0:
        raise ValueError(f"mollification scale must be >= 0, got {eps}")
    if eps == np.inf:
        raise ValueError("mollification scale must be finite, got inf")
