"""Monotone reparametrization maps.

Maps compose through MonotoneMap.preimage: h^{-1} o g is the point x with
h(x) = g(a).  No run applies the paper's operators on maps, so they live in
tests/oracles.py: the pull-back U f = f o h (compose_map_apply), the
commutator [f, H] d_a g (commutator_bracket), the composed Hilbert
transform U H U^{-1} (hcal_apply) and its Jacobian-free variant Htilcal,
beside the quadrature oracles that certify them (triple brackets,
line-window oracles, singular quadrature of the composed Hilbert operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MonotonicityError
from .spectral import SpectralGrid, _join_rows, _real_rows

JACOBIAN_FLOOR = 1e-6
# Newton steps of MonotoneMap.preimage at most; maps with |h_ap - 1| = 0.99 took six
NEWTON_CAP = 8


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Strictly increasing map h with h(a + L) = h(a) + L.

    Stored as the periodic deviation from the identity, h(a) = a + dev(a),
    and its Jacobian h_ap on the grid nodes, jac; without jac the map takes
    1 + dev' (spectral derivative), so dataclasses.replace with a new
    deviation must pass jac=None or keep the old Jacobian.  The map is
    immutable and keeps nothing else: its arrays are never written in
    place.
    """

    grid: SpectralGrid
    deviation: np.ndarray = field(repr=False)
    jac: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        dev = np.asarray(self.deviation, dtype=np.float64)
        if dev.shape != (self.grid.n,):
            raise ValueError("deviation length must match the grid")
        _require_finite(dev, "map deviation")
        if self.jac is None:
            jac = 1.0 + self.grid.deriv(dev).real
        else:
            jac = np.asarray(self.jac, dtype=np.float64)
            if jac.shape != (self.grid.n,):
                raise ValueError("Jacobian length must match the grid")
            _require_finite(jac, "map Jacobian")
        object.__setattr__(self, "deviation", dev)
        object.__setattr__(self, "jac", jac)
        self._require_monotone()

    def _require_monotone(self):
        """Refuse h_ap below JACOBIAN_FLOOR."""
        _require_floor(float(self.jac.min()))

    @classmethod
    def identity(cls, grid):
        # the Jacobian 1 + D 0, given so that no zeros are transformed
        return cls(grid, np.zeros(grid.n), np.ones(grid.n))

    @property
    def values(self):
        return self.grid.nodes + self.deviation

    def preimage(self, y, fields=()):
        """x and pull: the points x with h(x) = y for real targets y, by
        Newton until h(x) - y is at rounding level, and pull(points), the
        list of interpolate(field, points) for each of fields, a sequence of
        real or complex fields on the grid, bit for bit and in the kind it
        was given.  The fields are spread as real rows (_real_rows) in one
        stack with the map's own two rows; each iterate gathers both of
        those in one call, so the converged one gathers a Jacobian it does
        not use, and pull at points of the values of x takes the kernel
        weights of the solve's last check.  The solve stops within 8
        spacing(L); after NEWTON_CAP steps, the last iterate also stands
        within 8 (spacing(max|y|) + max|h_ap - 1| max|x| eps), the rounding
        of targets periods away and of a strained map's coordinate.  Else,
        a NaN residual too, it raises MonotonicityError naming the largest
        residual."""
        grid = self.grid
        L, nodes, h = grid.length, grid.nodes, self.values
        y = np.asarray(y, dtype=np.float64)
        # h is increasing, so its node values a period either side bracket
        # every target shifted into [0, L)
        shift = L * np.floor(y / L)
        x = shift + np.interp(y - shift, np.concatenate((h - L, h, h + L)),
                              np.concatenate((nodes - L, nodes, nodes + L)))
        fields = list(fields)
        gather = grid.spread(np.array([self.deviation, self.jac, *_real_rows(fields)]))
        for steps in range(NEWTON_CAP + 1):
            kernel = grid.nufft_kernel(x)
            d, h_ap = gather(x, kernel, slice(2))
            res = x + d - y
            worst = float(np.max(np.abs(res)))
            # written so that a NaN residual fails too
            if worst <= 8.0 * np.spacing(L):
                break
            if steps == NEWTON_CAP:
                floor = np.spacing(np.max(np.abs(y))) + (
                    np.max(np.abs(h_ap - 1.0)) * np.max(np.abs(x)) * np.finfo(np.float64).eps)
                if worst <= 8.0 * floor:
                    break
                raise MonotonicityError(
                    f"preimage not converged after {NEWTON_CAP} Newton steps: "
                    f"largest residual {worst:.3e}"
                )
            x = x - res / h_ap

        def pull(points):
            kernel_at = kernel if np.array_equal(points, x) else None
            return _join_rows(fields, gather(points, kernel_at, slice(2, None)))

        return x, pull


class InverseFlowMap(MonotoneMap):
    """The inverse k = h^{-1} of a Lagrangian flow map h, which takes a
    conformal label to the Lagrangian label it holds, stored like any
    MonotoneMap.

    Its guard is that of h: h_ap = 1 / k_ap o k, so JACOBIAN_FLOOR <= h_ap
    <= 1 / JACOBIAN_FLOOR is the same bound on k_ap, and a failure reads
    as one of h (min h_ap = 1 / max k_ap, max h_ap = 1 / min k_ap).
    """

    def _require_monotone(self):
        k_ap = self.jac
        k_max, k_min = float(k_ap.max()), float(k_ap.min())
        # a k_ap at or below 0 is a fold of k, where h_ap is unbounded; a
        # map without a positive k_ap is folded everywhere and fails below
        if k_max > 0.0:
            _require_floor(1.0 / k_max)
        h_max = 1.0 / k_min if k_min > 0.0 else np.inf
        if h_max > 1.0 / JACOBIAN_FLOOR:
            raise MonotonicityError(f"max h_ap = {h_max:.3e} above {1.0 / JACOBIAN_FLOOR:.3g}")


def _require_floor(h_min):
    if h_min < JACOBIAN_FLOOR:
        raise MonotonicityError(f"min h_ap = {h_min:.3e} below floor {JACOBIAN_FLOOR:.0e}")


def _require_finite(f, what):
    if not np.isfinite(f).all():
        raise ValueError(f"{what} contains non-finite entries")
