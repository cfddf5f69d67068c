"""Periodic collocation grid and Fourier-multiplier operators.

All fields live on a uniform grid of an even number of points over one
period.  Operators are realized as diagonal multipliers on the discrete
Fourier lattice k = (2*pi/length) * {-n/2+1, ..., n/2}:

* derivative         (i k)^m, Nyquist zeroed for odd m
* Hilbert transform  -sgn(k), with sgn(0) = 0 and the Nyquist mode zeroed
* projections        P_H keeps k < 0, halves k = 0, kills k > 0 (Nyquist
                     counts as positive); P_A is the complement
* Poisson smoothing  exp(-eps |k|)
* dealias filter     zero |k| above a fixed fraction of k_max

"Holomorphic" throughout means extendable to the lower half plane, i.e.
Fourier support in k <= 0 on the periodic lattice.

Convention note: with sgn(0) = 0 the projections coincide with
(I +- H)/2 on every mode except the Nyquist mode, where idempotence and
exact complementarity are kept instead (H zeroes that mode).  Dealiased
fields never see the difference.
"""

from __future__ import annotations

import functools
import math

import numpy as np

TWO_PI = 2.0 * np.pi

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
# grid with 4 steps is within 8.0e-16 of a 64x Newton-polished oracle (120
# fields, half of them real, for each n in 64, 256, 768, 2048); 3 steps
# leave up to 2.2e-12, and a 2x grid misses peaks (4.6e-2 off at n = 256)
_SUP_OVERSAMPLE = 4
_SUP_SEEDS = 8
_SUP_NEWTON_STEPS = 4


def _require_finite(f, what="field"):
    f = np.asarray(f)
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{what} contains non-finite entries")
    return f


def same_bytes(arrays, others):
    """Whether the arrays pairwise share dtype, shape and bytes, so that
    signed zeros and NaNs count as they are stored."""
    return all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(arrays, others, strict=True)
    )


class SpectralGrid:
    """Uniform periodic grid; wavenumbers and multiplier symbols built once.

    Parameters
    ----------
    n_points : even integer >= 8
    length : period of the domain (default 2*pi)
    dealias_fraction : fraction of k_max kept by the dealias filter
    """

    def __init__(self, n_points, length=TWO_PI, dealias_fraction=2.0 / 3.0):
        if n_points < 8 or n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {n_points}")
        if not (length > 0.0 and np.isfinite(length)):
            raise ValueError(f"length must be positive and finite, got {length}")
        if not (0.0 < dealias_fraction <= 1.0):
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {dealias_fraction}")
        self.n = int(n_points)
        self.length = float(length)
        self.dealias_fraction = float(dealias_fraction)

        n = self.n
        self.dx = self.length / n
        self.nodes = self.dx * np.arange(n)
        # integer labels in numpy fft layout; the shared +-n/2 slot is
        # labeled +n/2 so it counts as a positive mode
        k_int = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        k_int[n // 2] = n // 2
        self.k_int = k_int
        self.k = (TWO_PI / self.length) * k_int.astype(np.float64)
        self.nyquist_index = n // 2

        nyquist = k_int == n // 2
        self._deriv_symbol = np.where(nyquist, 0.0, 1j * self.k)
        self._hilbert_symbol = (-np.where(nyquist, 0.0, np.sign(k_int))).astype(np.complex128)
        mask_h = np.where(k_int < 0, 1.0, np.where(k_int == 0, 0.5, 0.0))
        self._proj_h = mask_h.astype(np.complex128)
        self._proj_a = (1.0 - mask_h).astype(np.complex128)
        cutoff = int(np.floor(self.dealias_fraction * (n // 2)))
        self._dealias_symbol = (np.abs(k_int) <= cutoff).astype(np.complex128)

    # -- transforms ----------------------------------------------------

    def coeffs(self, f):
        """Fourier coefficients c_k with f(x) = sum_k c_k exp(i k x)."""
        return np.fft.fft(f) / self.n

    def from_coeffs(self, c):
        return np.fft.ifft(c * self.n)

    def multiply_symbol(self, f, symbol):
        """ifft(symbol * fft(f)) along the last axis, unchecked: the symbol must
        be finite, over self.k, of shape (n,), a (k, n) table for a (k, n)
        stack f, or a (j, 1, n) table, which applies j symbols to each row of
        an (m, n) stack f from one forward transform ((j, m, n) result).

        Rows of a stack transform in one call and are bit-identical to
        single-field calls, so a round of independent multipliers costs one
        FFT pair.
        """
        return np.fft.ifft(symbol * np.fft.fft(f))

    def symbol_table(self, kinds):
        """(len(kinds), n) table whose row r is the symbol named kinds[r],
        'deriv' (first derivative), 'hilbert', 'deriv_hplus' (D (I + H),
        the symbol i k (1 - sgn k), 0 at Nyquist), 'dealias', or
        'dealias_deriv', 'dealias_deriv2', 'dealias_deriv3' (dealias times
        'deriv' to the power 1, 2, 3, so 0 at Nyquist); built once
        for a tuple of kinds and all grids equal to this one, so a run that
        builds a new grid for each pair builds each table once."""
        return _symbol_table(self, kinds)

    def deriv(self, f):
        """Spectral first derivative d/dx; zeroes the Nyquist mode."""
        return self.multiply_symbol(f, self._deriv_symbol)

    def hilbert(self, f):
        """Hilbert transform: multiplier -sgn(k), sgn(0) = 0."""
        return self.multiply_symbol(f, self._hilbert_symbol)

    def project(self, f, side):
        """Holomorphic ('H', support k <= 0) or antiholomorphic ('A') part."""
        if side == "H":
            mask = self._proj_h
        elif side == "A":
            mask = self._proj_a
        else:
            raise ValueError(f"side must be 'H' or 'A', got {side!r}")
        return self.multiply_symbol(f, mask)

    def poisson_smooth(self, f, eps):
        """Poisson mollification, i.e. the multiplier exp(-eps |k|)."""
        # written so that a NaN width fails too
        if not eps >= 0.0:
            raise ValueError(f"Poisson smoothing width must be >= 0, got {eps}")
        if eps == np.inf:
            raise ValueError("Poisson smoothing width must be finite, got inf")
        if eps == 0.0:
            return np.asarray(f, dtype=np.complex128).copy()
        return self.multiply_symbol(f, np.exp(-eps * np.abs(self.k)))

    def dealias(self, f):
        return self.multiply_symbol(f, self._dealias_symbol)

    def finish_step(self, stack, m):
        """The end of an RK4 step from one FFT pair.  stack is a (3m + q, n)
        array of the rows Zdev | Z_ap | Z_t of m states, then q further rows,
        such as the packed map deviations of a pair step.  All rows are
        dealiased (a dealias_fraction = 1 grid keeps every mode), and Z_ap - 1
        and Zbar_t lose their k > 0 content (Nyquist included; the k = 0 mode
        is kept in full, unlike P_H).  The further rows are only dealiased,
        and their derivatives, D of the dealiased rows, come from the same
        spectrum in the one inverse transform.
        Returns the (3m + 2q, n) array of the new rows, those of stack in
        its order followed by the q derivatives, and the (2, m) L2 masses
        removed from Z_ap - 1 and from Zbar_t.  The modes k > 0 of Zbar_t
        are the conjugates of the modes k < 0 of Z_t, so both masses come
        from the one spectrum of (Zdev, Z_ap - 1, Z_t); transforming
        Z_ap - 1, not Z_ap, keeps the rounding of the transform relative to
        the deviation.

        Each row and its masses are bit-identical to a call on that state's
        rows alone.
        """
        n, half = self.n, self.n // 2
        r = len(stack)
        rows = stack.copy()
        rows[m : 2 * m] -= 1.0
        # the spectra of the r rows, then room for those of the derivatives
        c = np.empty((2 * r - 3 * m, n), dtype=np.complex128)
        np.fft.fft(rows, out=c[:r])
        c[:r] *= self._dealias_symbol
        # the modes k > 0 of Z_ap - 1 and k < 0 of Z_t, Nyquist included
        zp_pos, zt_neg = c[m : 2 * m, 1 : half + 1], c[2 * m : 3 * m, half:]
        mass = self._mass(np.concatenate((zp_pos, zt_neg)) / n).reshape(2, m)
        zp_pos[...] = 0.0
        zt_neg[...] = 0.0
        if r > 3 * m:
            np.multiply(c[3 * m : r], self._deriv_symbol, out=c[r:])
        out = np.fft.ifft(c)
        out[m : 2 * m] += 1.0
        return out, mass

    def _mass(self, c):
        """L2 mass of the modes with coefficients c, along the last axis."""
        return np.sqrt(self.length * np.sum(np.abs(c) ** 2, axis=-1))

    # -- norms ----------------------------------------------------------

    def l2_norm(self, f):
        """L2 norm.  f may also be an (m, n) stack; the result is then an
        array of the m row norms from one reduction, each bit-identical to
        a single-field call."""
        norm = np.sqrt(self.dx * np.sum(np.abs(f) ** 2, axis=-1))
        return float(norm) if np.ndim(f) == 1 else norm

    def linf_norm(self, f):
        return float(np.max(np.abs(f)))

    def sup_norm(self, f):
        """Supremum of |f| for the trigonometric interpolant of f.

        The grid max undershoots the true peak by O((k dx)^2).  Here the
        peak is seeded on a grid _SUP_OVERSAMPLE times finer (_sup_seeds)
        and polished by at most _SUP_NEWTON_STEPS Newton steps on |f|^2,
        making the value insensitive to the collocation offset.  The polish evaluates
        f, f' and f'' at its points by direct Fourier sums, with the Nyquist
        coefficient paired with cos(k_nyq x).  The sums run about each
        point's seed node, whose phases come from an exactly reduced
        integer, so the rounding of k x at large k x (up to 1.2e-13 relative
        on white noise over the full band at n = 2048) does not enter.  The
        phases exp(i k y) of the offset y from the node are products of a
        coarse and a fine table, exp(i k_qB y) exp(i k_r y) for k = k_(qB +
        r), formed with real arithmetic, so that each point takes about
        sqrt(n) complex exponentials, not n / 2.  A seed at which Newton
        takes no step (a flat or constant field) keeps its value as
        computed on the seed grid.

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
        row, seed, seed_mag = self._sup_seeds(c)
        n2 = _SUP_OVERSAMPLE * self.n
        i_ny = self.nyquist_index
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
        k_coarse, k_fine = self.k[q_r], self.k[:fine_size]
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
        # freed before the Newton loop, whose arrays then reuse their memory
        del turn, c_pts, neg, A, B
        x = np.empty((seed.size, 2, width, 3))
        weights = (-k_table, k_table, k_table * k_table)

        def values(y):
            """The (real, imaginary) parts of f, f' and -f'' at the offsets y
            from the seed nodes, as (3, points) arrays."""
            coarse = np.exp(1j * np.outer(y, k_coarse))[:, :, None]
            fine = np.exp(1j * np.outer(y, k_fine))[:, None, :]
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
            sums = coefs @ x.reshape(y.size, 2 * width, 3)
            return sums[:, 0].T, sums[:, 1].T

        # a point steps while |f|^2 is concave there and the rise u1^2 / 2|u2|
        # that Newton predicts for the step is above 1e-17 |f|^2, a change of
        # |f| far below an ulp; the value of a point is that of its last
        # evaluation, which is at its last y whichever way the loop ends
        y = np.zeros(seed.size)
        moved = np.zeros(seed.size, dtype=bool)
        for _ in range(_SUP_NEWTON_STEPS):
            (vr, pr, qr), (vi, pi, qi) = values(y)
            u1 = 2.0 * (vr * pr + vi * pi)
            u2 = 2.0 * (pr * pr + pi * pi - vr * qr - vi * qi)
            step = (u2 < 0.0) & (u1 * u1 > -u2 * 2e-17 * (vr * vr + vi * vi))
            if not step.any():
                break
            y = np.where(step, y - u1 / np.where(step, u2, -1.0), y)
            moved |= step
        else:
            (vr, _, _), (vi, _, _) = values(y)
        val = np.where(moved, np.sqrt(vr * vr + vi * vi), seed_mag)
        sup = np.abs(rows).max(axis=1)
        np.maximum.at(sup, row, val)
        return float(sup[0]) if f.ndim == 1 else sup

    def _sup_seeds(self, c):
        """The seeds of sup_norm for the rows of coefficients c: the row, the
        seed-grid node and |f| there of each seed.  The half spectra of the
        real and imaginary parts of each row, (c_k + conj c_-k) / 2 and (c_k
        - conj c_-k) / 2i, are refined by one _refine of all rows, and |f|
        on the seed grid (spacing h) is sqrt(re^2 + im^2).  Every local
        maximum within the Bernstein bound (k_nyq h)^2 / 8 of the row's
        largest value is a seed (the highest _SUP_SEEDS of them)."""
        n2, i_ny = _SUP_OVERSAMPLE * self.n, self.nyquist_index
        floor = 1.0 - (self.k[i_ny] * self.length / n2) ** 2 / 8.0
        pos = c[:, : i_ny + 1]
        neg = np.conj(c[:, -np.arange(i_ny + 1) % self.n])
        spec = np.stack([pos + neg, (pos - neg) * -1j])
        spec *= 0.5 * _SUP_OVERSAMPLE * self.n
        parts = self._refine(spec, _SUP_OVERSAMPLE)
        parts *= parts
        mags = np.add(parts[0], parts[1], out=parts[0])
        np.sqrt(mags, out=mags)
        # a seed node within h/2 of the true peak is below it by at most
        # (k_nyq h)^2 / 8 of its value (Bernstein's inequality for f'');
        # only the nodes above that floor are tested for a local maximum
        row, node = np.nonzero(mags >= mags.max(axis=1, keepdims=True) * floor)
        top = mags[row, node]
        peak = (top >= mags[row, node - 1]) & (top > mags[row, (node + 1) % n2])
        # a row without a local maximum (a constant field) is seeded at its
        # largest value
        seeded = np.zeros(len(mags), dtype=bool)
        seeded[row[peak]] = True
        flat = np.flatnonzero(~seeded)
        row = np.concatenate([row[peak], flat])
        node = np.concatenate([node[peak], mags[flat].argmax(axis=1)])
        top = mags[row, node]
        # the highest _SUP_SEEDS of each row
        order = np.lexsort((-top, row))
        row, node, top = row[order], node[order], top[order]
        keep = np.arange(row.size) - np.searchsorted(row, row) < _SUP_SEEDS
        return row[keep], node[keep], top[keep]

    def hhalf_norm(self, f):
        """Homogeneous H^{1/2} seminorm, computed on the Fourier side.  f
        may also be an (m, n) stack, real or complex rows; the result is
        then an array of the m row values from one coefficient transform,
        each bit-identical to a single-field call."""
        c = self.coeffs(f)
        norm = np.sqrt(self.length * np.sum(np.abs(self.k) * np.abs(c) ** 2, axis=-1))
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
        f gives a real result.  A complex f is interpolated as its real and
        imaginary parts, so each part gives the bits it gives alone.
        Matches the direct Fourier sum to about 1e-14 relative to sup|f|,
        Nyquist mode included; on large grids the rounding of the target
        coordinate adds up to k_max |x| eps.

        f may also be an (m, n) stack of fields, real or complex, spread by
        one batched transform; the result has a leading axis of length m
        whose row r is bit-identical to interpolate(f[r], x).  To
        evaluate at one point set again and again, keep nufft_kernel(x) and
        gather with spread(f).
        """
        return self.spread(f)(self.nufft_kernel(x))

    def nufft_kernel(self, x):
        """Kernel weights of interpolate() at the points x, of shape
        x.shape + (_NUFFT_WIDTH,), and the first fine-grid node each point
        sees.  A caller that evaluates at one point set again and again
        keeps them and passes them to the gather of spread(f); a
        MonotoneMap keeps those of its values.  A scalar x counts as one
        point.

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

    def spread(self, f):
        """Spread f (one field or an (m, n) stack) onto the fine grid of
        interpolate(); the returned gather(kernel) sums the kernel-weighted
        fine values of every row at the points of kernel, a nufft_kernel
        result.  gather(nufft_kernel(x)) is interpolate(f, x), bit for
        bit.

        The rows are deconvolved and refined to the fine grid by _refine.  A
        complex f goes through as the rows of its real parts, then its
        imaginary parts, so real weights multiply real data, and its result
        is bit for bit that of its real parts plus 1j times that of its
        imaginary parts."""
        f = np.asarray(f)
        w, n_fine = _NUFFT_WIDTH, 2 * self.n
        real = np.isrealobj(f)
        rows = f if real else np.stack([f.real, f.imag])
        fine = self._refine(np.fft.rfft(rows) * _nufft_deconvolution(self.n), 2)
        # windows[i] holds fine values j, ..., j + w - 1 (periodically) of
        # row i of the real values, or of the real parts then the
        # imaginary parts
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([fine, fine[..., : w - 1]], axis=-1), w, axis=-1
        ).reshape(-1, n_fine, w)

        def gather(kernel):
            weights, start = kernel
            out = np.empty(fine.shape[:-1] + start.shape)
            # one row at a time keeps the gathered windows to len(x) * w values
            for win, row in zip(windows, out.reshape((len(windows),) + start.shape)):
                np.einsum("...j,...j->...", weights, win[start], out=row)
            return out if real else out[0] + 1j * out[1]

        return gather

    def _refine(self, spec, factor):
        """Values on a grid factor times finer of the real trigonometric
        interpolants whose half spectra (modes k = 0..n/2, along the last
        axis) are spec / factor, in the scaling of rfft; weights multiplied
        into spec, such as the deconvolution of spread, scale the modes.
        The Nyquist mode of spec is halved in place, which pairs it with
        cos(k_nyq x), and one irfft of length factor n zero-pads the
        spectrum.  The only zero-padding of a spectrum in this module: the
        NUFFT spread and the sup-norm seeds both go through it."""
        spec[..., self.n // 2] *= 0.5
        return np.fft.irfft(spec, factor * self.n)

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.length == other.length
            and self.dealias_fraction == other.dealias_fraction
        )

    def __hash__(self):
        return hash((self.n, self.length, self.dealias_fraction))

    def __repr__(self):
        return (
            f"SpectralGrid(n_points={self.n}, length={self.length!r}, "
            f"dealias_fraction={self.dealias_fraction!r})"
        )


@functools.lru_cache(maxsize=256)
def _symbol_table(grid, kinds):
    deriv, dealias = grid._deriv_symbol, grid._dealias_symbol
    named = {
        "deriv": deriv,
        "hilbert": grid._hilbert_symbol,
        "deriv_hplus": deriv * (1.0 + grid._hilbert_symbol),
        "dealias": dealias,
        "dealias_deriv": dealias * deriv,
        "dealias_deriv2": dealias * deriv ** 2,
        "dealias_deriv3": dealias * deriv ** 3,
    }
    return np.stack([named[kind] for kind in kinds])


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
    Chebyshev nodes (a DCT); built once per process."""
    w, size = _NUFFT_WIDTH, _NUFFT_CHEB_DEGREE + 1
    theta = np.pi * (np.arange(size) + 0.5) / size
    s = 0.5 * (np.cos(theta) + 1.0)
    z = ((2.0 / w) * s + (1.0 - 2.0 / w))[:, None] - (2.0 / w) * np.arange(w)
    values = np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))
    table = (2.0 / size) * np.cos(np.outer(np.arange(size), theta)) @ values
    table[0] *= 0.5
    return table


# -- constructor ------------------------------------------------------------


def make_grid(n_points, length=TWO_PI, dealias_fraction=2.0 / 3.0):
    """Build a SpectralGrid; rejects odd/tiny point counts and bad lengths."""
    return SpectralGrid(n_points, length, dealias_fraction)
