"""Commutators, monotone maps and composed Hilbert operators.

Maps compose through MonotoneMap.preimage: h^{-1} o g is the point x with
h(x) = g(a).  The quadrature oracles that certify these operators (triple
brackets, line-window oracles, singular quadrature of the composed Hilbert
operator), its Jacobian-free variant Htilcal and composition by pull-back
live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MonotonicityError
from .spectral import SpectralGrid, _require_finite, same_bytes

JACOBIAN_FLOOR = 1e-6
# Newton steps of MonotoneMap.preimage at most; maps with |h_ap - 1| = 0.99 took six
NEWTON_CAP = 8


# -- monotone reparametrization maps ---------------------------------------


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """Strictly increasing map h with h(a + L) = h(a) + L.

    Stored as the periodic deviation from the identity, h(a) = a + dev(a),
    and its Jacobian h_ap on the grid nodes, jac; without jac the map takes
    1 + dev' (spectral derivative), so dataclasses.replace with a new
    deviation must pass jac=None or keep the old Jacobian.  The map is
    immutable: the NUFFT kernel weights of its values are computed once, on
    first use, and kept on the map (their arrays, like its own, are never
    written in place).  Two maps are equal when their type, grid and the
    bytes of their arrays are, and a map is not hashable.
    """

    grid: SpectralGrid
    deviation: np.ndarray = field(repr=False)
    jac: np.ndarray | None = field(default=None, repr=False)

    __hash__ = None

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

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.grid == other.grid and same_bytes(
            (self.deviation, self.jac), (other.deviation, other.jac)
        )

    def _require_monotone(self):
        """Refuse h_ap below JACOBIAN_FLOOR."""
        _require_floor(float(np.min(self.jac)))

    @classmethod
    def identity(cls, grid):
        return cls(grid, np.zeros(grid.n))

    @property
    def values(self):
        return self.grid.nodes + self.deviation

    def jacobian(self):
        """h_ap on the grid nodes, the map's jac."""
        return self.jac

    @cached_property
    def _kernel(self):
        """grid.nufft_kernel(values): what every evaluation at the map's
        points shares."""
        return self.grid.nufft_kernel(self.values)

    def preimage(self, y):
        """The points x with h(x) = y for real targets y, by Newton until
        h(x) - y is at rounding level; raises MonotonicityError, naming the
        largest residual, when NEWTON_CAP steps do not get there."""
        grid = self.grid
        L, nodes, h = grid.length, grid.nodes, self.values
        y = np.asarray(y, dtype=np.float64)
        # h is increasing, so its node values a period either side bracket
        # every target shifted into [0, L)
        shift = L * np.floor(y / L)
        x = shift + np.interp(y - shift, np.r_[h - L, h, h + L], np.r_[nodes - L, nodes, nodes + L])
        gather = grid.spread(np.stack([self.deviation, self.jac]))
        for steps in range(NEWTON_CAP + 1):
            d, h_ap = gather(grid.nufft_kernel(x))
            res = x + d - y
            worst = float(np.max(np.abs(res)))
            # written so that a NaN residual fails too
            if worst <= 8.0 * np.spacing(L):
                return x
            if steps == NEWTON_CAP:
                raise MonotonicityError(
                    f"preimage not converged after {NEWTON_CAP} Newton steps: "
                    f"largest residual {worst:.3e}"
                )
            x = x - res / h_ap


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
        _require_floor(1.0 / float(np.max(k_ap)))
        k_min = float(np.min(k_ap))
        # a k_ap at or below 0 is a fold of k, where h_ap is unbounded
        h_max = 1.0 / k_min if k_min > 0.0 else np.inf
        if h_max > 1.0 / JACOBIAN_FLOOR:
            raise MonotonicityError(f"max h_ap = {h_max:.3e} above {1.0 / JACOBIAN_FLOOR:.3g}")


def _require_floor(h_min):
    if h_min < JACOBIAN_FLOOR:
        raise MonotonicityError(f"min h_ap = {h_min:.3e} below floor {JACOBIAN_FLOOR:.0e}")


def compose_map_apply(grid, f, map_):
    """(U_h f)(a) = f(h(a)) by trigonometric interpolation at the map points,
    with the kernel weights the map keeps.

    f may be one field or an (m, n) stack of fields, all real or all
    complex; a stack is spread once and row r of the result is U_h f[r].
    """
    _require_same_grid(grid, map_)
    return grid.spread(f)(map_._kernel)


def _require_same_grid(grid, map_):
    if map_.grid != grid:
        raise ValueError("the field and the map live on different grids")


# -- commutator ----------------------------------------------------------------


def commutator_bracket(grid, f, g):
    """[f, H] d_a g = f H(g') - H(f g') with spectral derivative and H."""
    gp = grid.deriv(g)
    return f * grid.hilbert(gp) - grid.hilbert(f * gp)


# -- composed Hilbert operators ------------------------------------------------


def hcal_apply(grid, f, map_):
    """Composed Hilbert transform through the exact conjugation identity.

    With U f = f o h, the kernel form with the h' (Jacobian) factor inside
    satisfies Hcal U = U H, hence Hcal = U H U^{-1}; this turns the singular
    integral into interpolation plus the FFT Hilbert transform.  U^{-1} f
    is f at the preimages of the grid nodes.
    """
    _require_same_grid(grid, map_)
    pulled = grid.interpolate(f, map_.preimage(grid.nodes))
    return compose_map_apply(grid, grid.hilbert(pulled), map_)
