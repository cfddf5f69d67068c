"""Commutators, triple brackets and composition machinery for maps.

The simulator itself only needs the FFT commutator and the composition
operators; the quadrature routines (periodic triple bracket, line-window
oracles, singular quadrature of the composed Hilbert operator) exist to
certify operator identities in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MonotonicityError
from .spectral import SpectralGrid, _require_finite

JACOBIAN_FLOOR = 1e-6


@dataclass
class BracketKernelConfig:
    """Discretization policy for the singular difference kernels."""

    singularity_rule: str = "diagonal-limit"  # or "alternate-point"

    def __post_init__(self):
        if self.singularity_rule not in ("diagonal-limit", "alternate-point"):
            raise ValueError(f"unknown singularity rule {self.singularity_rule!r}")


# -- monotone reparametrization maps ---------------------------------------


@dataclass
class MonotoneMap:
    """Strictly increasing map h with h(a + L) = h(a) + L.

    Stored as the periodic deviation from the identity, h(a) = a + dev(a).
    """

    grid: SpectralGrid
    deviation: np.ndarray = field(repr=False)

    def __post_init__(self):
        dev = np.asarray(self.deviation, dtype=np.float64)
        if dev.shape != (self.grid.n,):
            raise ValueError("deviation length must match the grid")
        _require_finite(dev, "map deviation")
        self.deviation = dev
        jmin = float(np.min(self.jacobian()))
        if jmin < JACOBIAN_FLOOR:
            raise MonotonicityError(f"min h_ap = {jmin:.3e} below floor {JACOBIAN_FLOOR:.0e}")

    @classmethod
    def identity(cls, grid):
        return cls(grid, np.zeros(grid.n))

    @property
    def values(self):
        return self.grid.nodes + self.deviation

    def jacobian(self):
        """h_ap = 1 + dev' on the grid nodes (spectral derivative)."""
        return 1.0 + self.grid.deriv(self.deviation).real

    def __call__(self, x):
        """Evaluate h at arbitrary points via trigonometric interpolation."""
        x = np.asarray(x, dtype=np.float64)
        return x + self.grid.interpolate_real(self.deviation, x)

    def inverse(self):
        """Inverse map, solved per node by dense lookup plus Newton polish."""
        grid = self.grid
        n, L = grid.n, grid.length
        n_dense = 8 * n
        dense_x = (L / n_dense) * np.arange(n_dense)
        dense_h = dense_x + grid.resample(self.deviation, n_dense).real
        # extend a full period on both sides so every target is bracketed
        x_ext = np.concatenate([dense_x - L, dense_x, dense_x + L])
        h_ext = np.concatenate([dense_h - L, dense_h, dense_h + L])
        x0 = np.interp(grid.nodes, h_ext, x_ext)
        dev = grid.evaluator(self.deviation)
        dev_ap = grid.evaluator(grid.deriv(self.deviation).real)
        for _ in range(4):
            res = x0 + dev(x0) - grid.nodes
            x0 = x0 - res / (1.0 + dev_ap(x0))
        return MonotoneMap(grid, x0 - grid.nodes)


def lagrangian_jacobian(map_):
    """(h_alpha o h^{-1}) on the grid nodes: the Jacobian of map_ in the
    labels of its image."""
    inv = map_.inverse()
    return map_.grid.interpolate_real(map_.jacobian(), inv.values)


def invert_map(map_):
    return map_.inverse()


def compose_maps(outer, inner):
    """outer o inner as a MonotoneMap on the shared grid."""
    if outer.grid != inner.grid:
        raise ValueError("maps live on different grids")
    vals = outer(inner.values)
    return MonotoneMap(outer.grid, vals - outer.grid.nodes)


def compose_map_apply(grid, f, map_):
    """(U_h f)(a) = f(h(a)) by trigonometric interpolation at the map points."""
    return grid.interpolate(f, map_.values)


# -- brackets ----------------------------------------------------------------


def commutator_bracket(grid, f, g):
    """[f, H] d_a g = f H(g') - H(f g') with spectral derivative and H."""
    gp = grid.deriv(g)
    return f * grid.hilbert(gp) - grid.hilbert(f * gp)


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


# -- line-window quadrature oracles (tests only) ------------------------------


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


# -- composed Hilbert operators ------------------------------------------------


def hcal_apply(grid, f, map_, inverse_map=None):
    """Composed Hilbert transform through the exact conjugation identity.

    With U f = f o h, the kernel form with the h' (Jacobian) factor inside
    satisfies Hcal U = U H, hence Hcal = U H U^{-1}; this turns the singular
    integral into interpolation plus the FFT Hilbert transform.
    """
    inv = inverse_map if inverse_map is not None else map_.inverse()
    pulled = compose_map_apply(grid, f, inv)
    return compose_map_apply(grid, grid.hilbert(pulled), map_)


def htilcal_apply(grid, f, map_, inverse_map=None):
    """Jacobian-free variant: Htilcal(g) = Hcal(g / h_ap), so that
    Htilcal(h_ap f) = Hcal(f) holds identically."""
    jac = map_.jacobian()
    if float(np.min(np.abs(jac))) < JACOBIAN_FLOOR:
        raise MonotonicityError("map Jacobian too close to zero for Htilcal")
    return hcal_apply(grid, f / jac, map_, inverse_map=inverse_map)


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
