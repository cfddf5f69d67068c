"""Direct quadrature and summation oracles that certify the package's
spectral operators: O(N^2) sums and line-window quadratures that the solver
never calls."""

from dataclasses import dataclass

import numpy as np


# -- spectral ------------------------------------------------------------------


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


# -- composed Hilbert operator ---------------------------------------------------


def hcal_quadrature_oracle(grid, f, map_):
    """Alternate-point singular quadrature of the composed Hilbert kernel.

    Direct discretization of (1/i pi) pv int h'(b) / (h(a) - h(b)) f(b) db
    in its periodic form with the cotangent kernel; spectrally accurate on
    smooth data and used to certify hcal_apply.
    """
    n, L, dx = grid.n, grid.length, grid.dx
    h_vals = map_.values
    hp = map_.jacobian()
    diff = h_vals[:, None] - h_vals[None, :]
    np.fill_diagonal(diff, 1.0)  # masked by parity below
    kern = np.cos(np.pi * diff / L) / np.sin(np.pi * diff / L)
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    weights = np.where(parity, kern * hp[None, :], 0.0)
    f = np.asarray(f, dtype=np.complex128)
    return (2.0 * dx / (1j * L)) * weights @ f
