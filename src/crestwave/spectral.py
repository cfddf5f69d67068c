"""Periodic collocation grid and Fourier-multiplier operators.

All fields live on a uniform grid of an even number of points over one
period.  Operators are realized as diagonal multipliers on the discrete
Fourier lattice k = (2*pi/length) * {-n/2+1, ..., n/2}:

* derivative         (i k)^m, Nyquist zeroed for odd m
* Hilbert transform  -sgn(k), with sgn(0) = 0 and the Nyquist mode zeroed
* dealias filter     zero |k| above a fixed fraction of k_max

"Holomorphic" throughout means extendable to the lower half plane, i.e.
Fourier support in k <= 0 on the periodic lattice.  The projections
P_H/P_A, the Poisson mollifier exp(-eps |k|), the filter as an operator on
a field and the grid max norm are applied only by tests, so they live in
tests/oracles.py.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_PI = 2.0 * np.pi
# the defaults of a grid: one period of 2 pi, and a dealias filter keeping
# |k| up to 2/3 of k_max
DEFAULT_LENGTH = TWO_PI
DEFAULT_DEALIAS_FRACTION = 2.0 / 3.0

# non-uniform FFT of SpectralGrid.interpolate: kernel width in fine-grid
# points, kernel shape parameter, and the Gauss-Legendre size of its transform
_NUFFT_WIDTH = 16
_NUFFT_BETA = 2.3 * _NUFFT_WIDTH
_NUFFT_QUAD_NODES = 100
# degree of the Chebyshev series in the fine-grid offset that gives the
# kernel weights of nufft_kernel: within 7e-15 of the formula (degree 10 is
# 1e-12 off, and 12 to 18 all level off at 5e-15 to 9e-15)
_NUFFT_CHEB_DEGREE = 14
# sup_norm: refinement of its seed grid, most peaks polished per row, and
# Newton steps at most.  On white noise over the full band |k| < n/2, a 4x
# grid with 4 steps from the parabola vertex is within 7.7e-16 of a 64x
# Newton-polished oracle (120 fields, half of them real, for each n in 64,
# 256, 768, 2048); 3 steps give the same, 2 steps leave up to 8.9e-13, and
# a 2x grid misses peaks (3.3e-2 off at n = 2048)
_SUP_OVERSAMPLE = 4
_SUP_SEEDS = 8
_SUP_NEWTON_STEPS = 4


# glibc's mallopt parameter numbers of M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_heap_thresholds():
    """Fix glibc's malloc trim threshold at 64 MiB and its mmap threshold
    at 32 MiB; True when both took, False (and nothing changed) on a libc
    without mallopt.  Both are set, because setting either one ends glibc's
    dynamic thresholds and would leave the other at its 128 KB start."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # freed heap stays for reuse, so each step and record does not fault in its arrays anew
    trimmed = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mapped = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    return bool(trimmed and mapped)


_pin_heap_thresholds()


# -- transforms ----------------------------------------------------------------
# Every transform of the package goes through these four.  Each is the
# numpy.fft function of its name along the last axis of an array (_fft also
# takes a list), in double precision and bit for bit: it calls the pocketfft
# gufunc that numpy.fft dispatches to (numpy >= 2.0), with numpy.fft's scale,
# 1 forward and 1 / n inverse (n the output length), and writes into out, a
# new array when not given.  numpy.fft's own argument handling costs about
# 4 us a call, a third of a transform at the grid sizes of a run.  The names
# are private so that tracing the public functions of this module adds no
# span per transform.


def _fft(a, out=None):
    a = np.asarray(a)
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    return _pocketfft.fft(a, 1, out=out)


def _ifft(a, out=None):
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=out)


def _rfft(a):
    """The half spectrum, modes 0..n/2, of rows of even length n."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), dtype=np.complex128)
    return _pocketfft.rfft_n_even(a, 1, out=out)


def _irfft(a, n, out=None):
    """Real rows of n points from half spectra, zero-padded to modes 0..n/2."""
    if out is None:
        out = np.empty(a.shape[:-1] + (n,), dtype=np.float64)
    return _pocketfft.irfft(a, 1.0 / n, out=out)


def _sum_squares(rows, out=None):
    """The sums of |x|^2 along the rows of the complex array rows, contiguous
    along its last axis, written into out when given: one np.vecdot of its
    float64 view with itself, the real and imaginary part of each value in
    turn.  vecdot is a gufunc that sums each row on its own, whatever its
    alignment, so each row's sum is bit-identical to a call on that row
    alone."""
    v = rows.view(np.float64)
    return np.vecdot(v, v, out=out)


class SpectralGrid:
    """Uniform periodic grid with its wavenumbers; the multiplier symbols
    live in the tables of symbol_table.

    Parameters
    ----------
    n_points : even integer >= 8
    length : period of the domain (default 2*pi)
    dealias_fraction : fraction of k_max kept by the dealias filter
    """

    def __init__(self, n_points, length=DEFAULT_LENGTH, dealias_fraction=DEFAULT_DEALIAS_FRACTION):
        if n_points < 8 or n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {n_points}")
        if not (length > 0.0 and np.isfinite(length)):
            raise ValueError(f"length must be positive and finite, got {length}")
        if not (0.0 < dealias_fraction <= 1.0):
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {dealias_fraction}")
        self.n = int(n_points)
        self.length = float(length)
        self.dealias_fraction = float(dealias_fraction)
        # kept, as the symbol tables' cache hashes the grid on every lookup
        self._hash = hash((self.n, self.length, self.dealias_fraction))

        n = self.n
        self.dx = self.length / n
        self.nodes = self.dx * np.arange(n)
        # integer labels in numpy fft layout; the shared +-n/2 slot is
        # labeled +n/2 so it counts as a positive mode
        k_int = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        k_int[n // 2] = n // 2
        self.k_int = k_int
        self.k = (TWO_PI / self.length) * k_int.astype(np.float64)

    # -- transforms ----------------------------------------------------

    def coeffs(self, f):
        """Fourier coefficients c_k with f(x) = sum_k c_k exp(i k x)."""
        c = _fft(f)
        c /= self.n
        return c

    def from_coeffs(self, c):
        return _ifft(c * self.n)

    def multiply_symbol(self, f, symbol):
        """ifft(symbol * fft(f)) along the last axis, unchecked: the symbol must
        be a finite array over self.k, of shape (n,), a (k, n) table for a (k, n)
        stack f, or a (j, 1, n) table, which applies j symbols to each row of
        an (m, n) stack f from one forward transform ((j, m, n) result).

        Rows of a stack transform in one call and are bit-identical to
        single-field calls, so a round of independent multipliers costs one
        FFT pair.  Unless the symbol adds axes, the product and the inverse
        transform are written over the spectrum.
        """
        spec = _fft(f)
        if symbol.ndim > spec.ndim:
            spec = symbol * spec
        else:
            np.multiply(symbol, spec, out=spec)
        return _ifft(spec, out=spec)

    def symbol_table(self, kinds):
        """(len(kinds), n) table whose row r is the symbol named kinds[r],
        'deriv' (first derivative), 'hilbert', 'deriv_hplus' (D (I + H),
        the symbol i k (1 - sgn k), 0 at Nyquist), 'dealias', or
        'dealias_deriv', 'dealias_deriv2', 'dealias_deriv3' (dealias times
        'deriv' to the power 1, 2, 3, so 0 at Nyquist); built once for a
        tuple of kinds and all grids equal to this one, read-only, so a run
        that builds a new grid for each pair builds each table once.  Each
        symbol is defined once, by _symbol, and the operators below multiply
        by rows of these tables."""
        return _symbol_table(self, kinds)

    def deriv(self, f):
        """Spectral first derivative d/dx; zeroes the Nyquist mode."""
        return self.multiply_symbol(f, _symbol_table(self, ("deriv",))[0])

    def hilbert(self, f):
        """Hilbert transform: multiplier -sgn(k), sgn(0) = 0."""
        return self.multiply_symbol(f, _symbol_table(self, ("hilbert",))[0])

    # -- norms ----------------------------------------------------------

    def l2_norm(self, f):
        """L2 norm.  f may also be an (m, n) stack; the result is then an
        array of the m row norms from one reduction, each bit-identical to
        a single-field call.  |f|^2 is summed by _sum_squares of f as
        complex rows, so a real field gives the bits of its complex cast."""
        norm = np.sqrt(self.dx * _sum_squares(np.ascontiguousarray(f, dtype=np.complex128)))
        return float(norm) if norm.ndim == 0 else norm

    def sup_norm(self, f):
        """Supremum of |f| for the trigonometric interpolant of f.

        The grid max undershoots the true peak by O((k dx)^2).  Here the
        peak is seeded on a grid _SUP_OVERSAMPLE times finer (_sup_seeds),
        the modulus of one zero-padded inverse transform of the complex
        coefficients, and polished by at most _SUP_NEWTON_STEPS Newton steps
        on |f|^2, starting at the vertex of the parabola through the seed's
        node and its two neighbours on the seed grid, making the value
        insensitive to the collocation offset.  The polish evaluates
        f, f' and f'' at its points by direct Fourier sums, with the Nyquist
        coefficient paired with cos(k_nyq x).  The sums run about each
        point's seed node, whose phases come from an exactly reduced
        integer, so the rounding of k x at large k x (up to 1.2e-13 relative
        on white noise over the full band at n = 2048) does not enter.  The
        phases exp(i k y) of the offset y from the node are products of a
        coarse and a fine table, exp(i k_qB y) exp(i k_r y) for k = k_(qB +
        r), formed with real arithmetic, so that each point takes about
        sqrt(n) complex exponentials, not n / 2.  Every point takes the
        value of its last evaluation.  The grid maximum of each row is its
        floor, so a row without a local maximum on the seed grid, such as a
        constant field, gets no seed and returns its grid maximum exactly.

        f may also be an (m, n) stack; the result is then an array of the m
        row values, each bit-identical to a single-field call.  The stack
        shares one coefficient transform and one refinement; each row's seed
        grid is searched on its own; and one Newton loop polishes the seeds
        of all rows together, with each point's sums one matrix product of
        its own, so no row sees the others.
        """
        f = np.asarray(f)
        rows = f.reshape(-1, self.n)
        c = self.coeffs(rows)
        row, seed, shift = self._sup_seeds(c)
        n2, i_ny = _SUP_OVERSAMPLE * self.n, self.n // 2
        # each point's coefficients turned to its seed node s h by the phases
        # exp(i k s h) = exp(2 pi i (k s mod n2) / n2), whose integer part
        # is reduced exactly, so that the sums below take p_k = exp(i k y) =
        # a_k + i b_k of the small offset y from the node.  As p_-k is the
        # conjugate of p_k, f is the sum over k = 0..n/2 of A a + B b, with
        # A = c_k + c_-k and B = i (c_k - c_-k) (c_-0 = 0), and f' and f''
        # are those of A (-k b) + B (k a) and -(A k^2 a + B k^2 b).  The
        # Nyquist mode, paired with cos(k_nyq x), has A = c_nyq Re t and
        # B = -c_nyq Im t, with t its turn
        turn = _unit_roots(n2)[(self.k_int * seed[:, None]) % n2]
        c_pts = c[row] * turn
        neg = c_pts[:, : i_ny : -1]
        A, B = c_pts[:, :i_ny].copy(), c_pts[:, :i_ny].copy()
        A[:, 1:] += neg
        B[:, 1:] -= neg
        B *= 1j
        c_ny, t_ny = c[row, i_ny], turn[:, i_ny]
        # modes 0..n/2 as q B + r: the coarse wavenumbers k_qB and the fine k_r
        fine_size = math.isqrt(i_ny) + 1
        q_r = np.arange(0, i_ny + 1, fine_size)
        # the coarse then the fine wavenumbers, whose phases come from one exp
        k_both = np.concatenate((self.k[q_r], self.k[:fine_size]))
        width = q_r.size * fine_size
        k_table = (TWO_PI / self.length) * np.arange(width)
        # coefs[point, part] is the real (part 0) or imaginary part of [A |
        # B], zero above Nyquist; x[point] has the columns [a | b], [-k b |
        # k a] and [k^2 a | k^2 b], so that coefs @ x gives f, f' and -f''
        coefs = np.zeros((seed.size, 2, 2, width))
        for part, of in enumerate((np.real, np.imag)):
            coefs[:, part, 0, :i_ny], coefs[:, part, 1, :i_ny] = of(A), of(B)
            coefs[:, part, 0, i_ny] = of(c_ny) * t_ny.real
            coefs[:, part, 1, i_ny] = -of(c_ny) * t_ny.imag
        coefs = coefs.reshape(seed.size, 2, 2 * width)
        x = np.empty((seed.size, 2, width, 3))
        weights = (-k_table, k_table, k_table * k_table)

        def values(y):
            """The sums [[Re f, Re f', -Re f''], [Im f, Im f', -Im f'']] of
            each point at the offsets y from the seed nodes, as a (points,
            2, 3) array."""
            phases = np.exp(1j * (y[:, None] * k_both))
            coarse, fine = phases[:, : q_r.size, None], phases[:, None, q_r.size :]
            # a and b are built contiguous and copied into x, which is faster
            # than writing the products through x's strided columns
            a = coarse.real * fine.real
            a -= coarse.imag * fine.imag
            b = coarse.real * fine.imag
            b += coarse.imag * fine.real
            a, b = a.reshape(y.size, width), b.reshape(y.size, width)
            x[:, 0, :, 0], x[:, 1, :, 0] = a, b
            np.multiply(weights[0], b, out=x[:, 0, :, 1])
            np.multiply(weights[1], a, out=x[:, 1, :, 1])
            np.multiply(weights[2], a, out=x[:, 0, :, 2])
            np.multiply(weights[2], b, out=x[:, 1, :, 2])
            return coefs @ x.reshape(y.size, 2 * width, 3)

        # a point starts at its seed's parabola vertex and steps while |f|^2
        # is concave there and the rise u1^2 / 2|u2| that Newton predicts for
        # the step is above 1e-17 |f|^2, a change of |f| far below an ulp;
        # its value is that of its last evaluation, which is at its last y
        # whichever way the loop ends.  The steps of the few points are
        # taken on Python floats, whose operations round as numpy's do
        y = (shift * (self.length / n2)).tolist()
        for _ in range(_SUP_NEWTON_STEPS):
            sums = values(np.array(y))
            stepped = False
            for i, ((vr, pr, qr), (vi, pi, qi)) in enumerate(sums.tolist()):
                u1 = 2.0 * (vr * pr + vi * pi)
                u2 = 2.0 * (pr * pr + pi * pi - vr * qr - vi * qi)
                if u2 < 0.0 and u1 * u1 > -u2 * 2e-17 * (vr * vr + vi * vi):
                    y[i] -= u1 / u2
                    stepped = True
            if not stepped:
                break
        else:
            sums = values(np.array(y))
        vr, vi = sums[:, 0, 0], sums[:, 1, 0]
        # the grid maximum is the floor of every row, and the value of a
        # row without a seed
        sup = np.abs(rows).max(axis=1)
        np.maximum.at(sup, row, np.sqrt(vr * vr + vi * vi))
        return float(sup[0]) if f.ndim == 1 else sup

    def _sup_seeds(self, c):
        """The seeds of sup_norm for the rows of coefficients c: the row, the
        seed-grid node and the start of the polish of each seed, as an
        offset from its node in units of the seed-grid spacing h.  |f| on
        the seed grid is the modulus of one _refine of the full spectra of
        all rows.  Every local maximum within the Bernstein bound (k_nyq
        h)^2 / 8 of the row's largest value is a seed (the highest
        _SUP_SEEDS of them), and starts at the vertex of the parabola
        through |f| at its node and its two neighbours.  A row without a
        local maximum, a constant one, gets no seed."""
        n2, i_ny = _SUP_OVERSAMPLE * self.n, self.n // 2
        floor = 1.0 - (self.k[i_ny] * self.length / n2) ** 2 / 8.0
        mags = np.abs(self._refine(c * n2, _SUP_OVERSAMPLE))
        # a seed node within h/2 of the true peak is below it by at most
        # (k_nyq h)^2 / 8 of its value (Bernstein's inequality for f'');
        # only the nodes above that floor are tested for a local maximum
        row, node = np.nonzero(mags >= mags.max(axis=1, keepdims=True) * floor)
        top, left, right = mags[row, node], mags[row, node - 1], mags[row, (node + 1) % n2]
        peak = (top >= left) & (top > right)
        row, node, top, left, right = row[peak], node[peak], top[peak], left[peak], right[peak]
        # at a local maximum the parabola's curvature left - 2 top + right is
        # negative, and its vertex lies within h/2 of the node
        shift = 0.5 * (left - right) / (left - 2.0 * top + right)
        # the highest _SUP_SEEDS of each row
        order = np.lexsort((-top, row))
        row, node, shift = row[order], node[order], shift[order]
        keep = np.arange(row.size) - np.searchsorted(row, row) < _SUP_SEEDS
        return row[keep], node[keep], shift[keep]

    def hhalf_norm(self, f):
        """Homogeneous H^{1/2} seminorm, computed on the Fourier side.  f
        may also be an (m, n) stack, real or complex rows; the result is
        then an array of the m row values from one coefficient transform,
        each bit-identical to a single-field call.  The squares of the
        float64 view of the coefficients, |k| weighting both parts of each,
        are summed in one np.vecdot, which sums each row on its own."""
        v = self.coeffs(f).view(np.float64)
        v *= v
        norm = np.sqrt(self.length * np.vecdot(v, np.repeat(np.abs(self.k), 2)))
        return float(norm) if np.ndim(f) == 1 else norm

    # -- interpolation ----------------------------------------------------

    def interpolate(self, f, x):
        """Evaluate the trigonometric interpolant of f at arbitrary points.

        Type-2 non-uniform FFT with the "exponential of semicircle" kernel
        exp(beta (sqrt(1 - z^2) - 1)) of Barnett, Magland & af Klinteberg
        (SIAM J. Sci. Comput. 41, 2019), with the oversampling and
        deconvolution of Greengard & Lee (SIAM Review 46, 2004): the Fourier
        coefficients are divided by the kernel transform, zero-padded onto a
        grid twice as fine and transformed once; each target then sums
        _NUFFT_WIDTH = 16 fine-grid values weighted by the kernel.  The
        interpolant pairs the Nyquist coefficient with cos(k_nyq x), so real
        f gives a real result.  Matches the direct Fourier sum to about
        1e-14 relative to sup|f|, Nyquist mode included; on large grids the
        rounding of the target coordinate adds up to k_max |x| eps.

        The one NUFFT entry for any f: one field, or a stack of fields of
        any leading shape, real or complex.  The fields are spread as one
        real stack of rows, the real parts and then the imaginary parts of a
        complex f, and the result has shape f.shape[:-1] + x.shape (a scalar
        x counts as one point); each field, and each part of a complex one,
        gets the bits it gets alone.  To evaluate real rows at several point
        sets, keep spread(rows) and gather at each.
        """
        f = np.asarray(f)
        rows = f.reshape(-1, f.shape[-1])
        if np.iscomplexobj(f):
            out = self.spread(np.concatenate((rows.real, rows.imag)))(x)
            out = out[: len(rows)] + 1j * out[len(rows) :]
        else:
            out = self.spread(rows)(x)
        return out.reshape(f.shape[:-1] + out.shape[1:])

    def nufft_kernel(self, x):
        """Kernel weights of interpolate() at the points x, of shape
        x.shape + (_NUFFT_WIDTH,), and the first fine-grid node each point
        sees; the gather of spread(rows) computes them for its points.  A
        scalar x counts as one point.

        The weights of a point depend only on its offset s in [0, 1) from
        the fine node below it.  They are one product V.T @ C of the
        Chebyshev polynomials T_0..T_D of u = 2 s - 1 (D =
        _NUFFT_CHEB_DEGREE) with the table C of _nufft_kernel_table(), and
        lie within 1e-14 of the kernel formula.  A point's weights are the
        same bits whichever batch it comes in: numpy takes a one-row
        product down a matrix-vector path with other rounding, so a single
        point is computed as a batch of two copies.
        """
        w, n_fine = _NUFFT_WIDTH, 2 * self.n
        t = (n_fine / self.length) * np.atleast_1d(np.asarray(x, dtype=np.float64))
        base = np.floor(t)
        u = (2.0 * (t - base) - 1.0).ravel()
        if u.size == 1:
            u = np.repeat(u, 2)
        basis = np.empty((_NUFFT_CHEB_DEGREE + 1, u.size))
        basis[0] = 1.0
        basis[1] = u
        u2 = u + u
        for k in range(2, _NUFFT_CHEB_DEGREE + 1):
            np.multiply(u2, basis[k - 1], out=basis[k])
            basis[k] -= basis[k - 2]
        weights = basis.T @ _nufft_kernel_table()
        # point t sees fine nodes base - w/2 + 1, ..., base + w/2
        start = (base.astype(np.int64) - (w // 2 - 1)) % n_fine
        return weights[: t.size].reshape(t.shape + (w,)), start

    def spread(self, rows):
        """Spread rows, a real (m, n) stack of fields, onto the fine grid of
        interpolate(); anything else raises ValueError.  The returned
        gather(x, kernel=None, select=slice(None)) sums the fine values of
        the rows that select picks at the points x, weighted by kernel, the
        result of nufft_kernel(x), which it computes when not given.  It
        returns an array of shape (rows picked,) + x.shape whose row r is
        interpolate(rows[select][r], x), bit for bit, so a caller that
        evaluates the rows at several point sets spreads them once.

        The rows are deconvolved and refined to the fine grid by _refine.  A
        gather splits its points, in their order, into runs whose first
        fine node advances by 2 from one point to the next, as it does
        along the nodes or the values of a map near the identity.  A run
        of at least _NUFFT_WIDTH points reads the windows of every row as
        one strided view of the fine values, in one einsum; every other
        point is gathered by index, in chunks of rows that copy at most
        len(x) * _NUFFT_WIDTH window values (_sum_windows).  A point gets
        the same bits whichever way its windows are read."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or not np.isrealobj(rows):
            raise ValueError(f"spread takes a real (m, n) stack of rows, got {rows.dtype} "
                             f"of shape {rows.shape}")
        w, n_fine = _NUFFT_WIDTH, 2 * self.n
        spec = _rfft(rows)
        spec *= _nufft_deconvolution(self.n)
        # each row is refined into the first n_fine of n_fine + w - 1 values
        # and its first w - 1 values follow them, so that windows[i, j]
        # holds fine values j, ..., j + w - 1 (periodically) of row i
        wrapped = np.empty((len(rows), n_fine + w - 1))
        self._refine(spec, 2, out=wrapped[:, :n_fine])
        wrapped[:, n_fine:] = wrapped[:, : w - 1]
        step = wrapped.itemsize
        windows = np.ndarray((len(wrapped), n_fine, w), buffer=wrapped,
                             strides=(wrapped.strides[0], step, step))

        def gather(x, kernel=None, select=slice(None)):
            weights, start = self.nufft_kernel(x) if kernel is None else kernel
            picked = windows[select]
            out = np.empty((len(picked), start.size))
            if len(picked):
                _sum_windows(picked, weights.reshape(-1, w), start.ravel(), out)
            return out.reshape((len(picked),) + start.shape)

        return gather

    def _refine(self, spec, factor, out=None):
        """Values on a grid factor times finer of the trigonometric
        interpolants whose spectra, in the scaling of the forward transform
        along the last axis, are spec / factor: half spectra (modes k =
        0..n/2) of real rows, through one irfft of length factor n, or full
        spectra (n modes in fft layout) of complex rows, through one ifft of
        length factor n.  Weights multiplied into spec, such as the
        deconvolution of spread, scale the modes.  The Nyquist mode is
        halved (in place in a half spectrum, and on both sides of the padded
        full spectrum), which pairs it with cos(k_nyq x).  The only
        zero-padding of a spectrum in this module: the NUFFT spread and the
        sup-norm seeds both go through it.  The values are written into out
        when given."""
        half = self.n // 2
        if spec.shape[-1] == half + 1:
            spec[..., half] *= 0.5
            return _irfft(spec, factor * self.n, out)
        padded = np.zeros(spec.shape[:-1] + (factor * self.n,), dtype=np.complex128)
        padded[..., :half] = spec[..., :half]
        padded[..., 1 - half :] = spec[..., half + 1 :]
        padded[..., half] = padded[..., -half] = 0.5 * spec[..., half]
        return _ifft(padded, out=padded if out is None else out)

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.length == other.length
            and self.dealias_fraction == other.dealias_fraction
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"SpectralGrid(n_points={self.n}, length={self.length!r}, "
            f"dealias_fraction={self.dealias_fraction!r})"
        )


def _sum_windows(windows, weights, start, out):
    """out[r, i] = the sum over j of weights[i, j] windows[r, start[i], j],
    for the (rows, n_fine, w) windows of a spread, the (points, w) kernel
    weights and the first fine nodes of the points (see spread).  Each
    einsum sums a point's w contiguous taps alone, so its bits do not
    depend on whether its windows are a view or a copy."""
    w = weights.shape[1]
    # runs of points whose first fine node is 2 past that of the point
    # before: a run of at least w points reads the windows of every row as
    # one strided view
    cut = np.empty(start.size + 1, dtype=bool)
    cut[0] = cut[-1] = True
    np.not_equal(start[1:] - start[:-1], 2, out=cut[1:-1])
    bounds = cut.nonzero()[0]
    lengths = bounds[1:] - bounds[:-1]
    long = lengths >= w
    firsts = bounds[:-1][long]
    stray = np.ones(start.size, dtype=bool)
    for a, m, s in zip(firsts.tolist(), lengths[long].tolist(), start[firsts].tolist()):
        np.einsum("...j,...j->...", weights[a : a + m], windows[:, s : s + 2 * m - 1 : 2],
                  out=out[:, a : a + m])
        stray[a : a + m] = False
    # every other point is gathered by index, in chunks of rows that copy
    # at most len(start) * w window values
    stray = stray.nonzero()[0]
    if not stray.size:
        return
    every = stray.size == start.size
    part = out if every else np.empty((len(out), stray.size))
    if not every:
        weights, start = np.take(weights, stray, axis=0), start[stray]
    chunk = out.shape[1] // stray.size
    for r in range(0, len(out), chunk):
        np.einsum("...j,...j->...", weights, windows[r : r + chunk, start],
                  out=part[r : r + chunk])
    if not every:
        out[:, stray] = part


@functools.lru_cache(maxsize=256)
def _symbol_table(grid, kinds):
    table = np.stack([_symbol(grid, kind) for kind in kinds])
    table.flags.writeable = False
    return table


def _symbol(grid, kind):
    """The symbol named kind (see SpectralGrid.symbol_table) over grid.k,
    built from the symbols it is made of alone."""
    k_int, half = grid.k_int, grid.n // 2
    if kind == "deriv":
        return np.where(k_int == half, 0.0, 1j * grid.k)
    if kind == "hilbert":
        return (-np.where(k_int == half, 0.0, np.sign(k_int))).astype(np.complex128)
    if kind == "dealias":
        cutoff = int(np.floor(grid.dealias_fraction * half))
        return (np.abs(k_int) <= cutoff).astype(np.complex128)
    if kind == "deriv_hplus":
        return _symbol(grid, "deriv") * (1.0 + _symbol(grid, "hilbert"))
    power = {"dealias_deriv": 1, "dealias_deriv2": 2, "dealias_deriv3": 3}[kind]
    deriv = _symbol(grid, "deriv")
    return _symbol(grid, "dealias") * (deriv if power == 1 else deriv ** power)


@functools.lru_cache(maxsize=None)
def _unit_roots(m):
    """exp(2 pi i q / m) for q = 0..m-1, read-only; built once per m."""
    roots = np.exp((2j * np.pi / m) * np.arange(m))
    roots.flags.writeable = False
    return roots


@functools.lru_cache(maxsize=None)
def _nufft_deconvolution(n):
    """1 / (n psihat_m) for m = 0..n/2 on a grid of n points, read-only;
    built once per n, so equal grids share one table.  _refine halves the
    Nyquist mode.

    psihat_m is the Fourier coefficient of the kernel placed at one fine
    node; it is (w / 4n) Phi(pi w m / 2n), with Phi the kernel's Fourier
    transform, so the entries are 4 / (w Phi).  Phi is computed by
    Gauss-Legendre in theta after z = sin(theta), which removes the
    square-root behaviour at the kernel's edges.
    """
    w = _NUFFT_WIDTH
    nodes, weights = np.polynomial.legendre.leggauss(_NUFFT_QUAD_NODES)
    theta = 0.5 * np.pi * nodes
    # dz = cos(theta) dtheta and sqrt(1 - z^2) = cos(theta)
    kernel = np.exp(_NUFFT_BETA * (np.cos(theta) - 1.0))
    weights = 0.5 * np.pi * weights * np.cos(theta) * kernel
    xi = (np.pi * w / (2.0 * n)) * np.arange(n // 2 + 1)
    phi_hat = np.cos(np.outer(xi, np.sin(theta))) @ weights
    deconv = 4.0 / (w * phi_hat)
    deconv.flags.writeable = False
    return deconv


@functools.lru_cache(maxsize=None)
def _nufft_kernel_table():
    """(D + 1, _NUFFT_WIDTH) Chebyshev coefficients, in u = 2 s - 1, of the
    kernel weights of a point at fine-grid offset s: tap j sits at the
    kernel coordinate z = 2 (s + w/2 - 1 - j) / w and weighs
    exp(beta (sqrt(1 - z^2) - 1)).  Interpolates the formula at the D + 1
    Chebyshev nodes (a DCT); built once per process, read-only."""
    w, size = _NUFFT_WIDTH, _NUFFT_CHEB_DEGREE + 1
    theta = np.pi * (np.arange(size) + 0.5) / size
    s = 0.5 * (np.cos(theta) + 1.0)
    z = ((2.0 / w) * s + (1.0 - 2.0 / w))[:, None] - (2.0 / w) * np.arange(w)
    values = np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))
    table = (2.0 / size) * np.cos(np.outer(np.arange(size), theta)) @ values
    table[0] *= 0.5
    table.flags.writeable = False
    return table


# -- constructor ------------------------------------------------------------


def make_grid(n_points, length=DEFAULT_LENGTH, dealias_fraction=DEFAULT_DEALIAS_FRACTION):
    """Build a SpectralGrid; rejects odd/tiny point counts and bad lengths."""
    return SpectralGrid(n_points, length, dealias_fraction)
