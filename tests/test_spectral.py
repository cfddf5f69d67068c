import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crestwave.energies import energy_delta, energy_sigma, f_delta_norm
from crestwave.errors import HolomorphicityError
from crestwave import evolution, spectral
from crestwave.pair import co_step
from crestwave.spectral import TWO_PI, make_grid

from helpers import (
    extend_to_depth,
    harmonic_extension_norms,
    lp_norm,
    positive_mode_mass,
    random_holomorphic,
    random_real_field,
    random_smooth_state,
    same_bytes,
    sobolev_norm,
)
from oracles import (
    dealias,
    finish_unfused,
    hhalf_double_sum,
    interpolate_direct,
    linf_norm,
    nufft_kernel_formula,
    poisson_smooth,
    project,
)

SEED = 20240817

# even point counts in [8, 512], a period, and a seed for the coefficients
GRIDS = dict(
    n=st.integers(4, 256).map(lambda m: 2 * m),
    length=st.floats(0.1, 100.0),
    seed=st.integers(0, 2**32 - 1),
)


def _noise(n, seed):
    """Complex white noise from a generator of its own."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_make_grid_nodes_and_wavenumbers():
    g = make_grid(8, 2 * np.pi)
    assert np.allclose(g.nodes, np.pi / 4 * np.arange(8))
    assert sorted(g.k_int) == [-3, -2, -1, 0, 1, 2, 3, 4]


def test_make_grid_roundtrip():
    rng = np.random.default_rng(SEED)
    g = make_grid(256)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    assert np.max(np.abs(g.from_coeffs(g.coeffs(f)) - f)) < 1e-13


def test_equal_grids_hash_equally_and_share_their_symbol_tables():
    # the hash is kept from construction; a grid built from numpy scalars
    # equals and hashes as one built from Python numbers
    g, h = make_grid(64), make_grid(np.int64(64), np.float64(TWO_PI), 2.0 / 3.0)
    assert g == h and hash(g) == hash(h)
    assert g.symbol_table(("deriv", "hilbert")) is h.symbol_table(("deriv", "hilbert"))
    assert g != make_grid(64, 1.0)


def test_cached_tables_are_read_only():
    # every equal grid shares one symbol table, and every interpolation the
    # kernel table: a write through either would change later transforms
    g = make_grid(16, 3.0)
    f = np.sin(g.nodes * TWO_PI / 3.0)
    ref = g.deriv(f)
    try:
        with pytest.raises(ValueError):
            g.symbol_table(("deriv",))[0] *= 2
        with pytest.raises(ValueError):
            spectral._nufft_kernel_table()[0] *= 2
        assert make_grid(16, 3.0).deriv(f).tobytes() == ref.tobytes()
    finally:
        # a failed check leaves no written table to later tests
        spectral._symbol_table.cache_clear()
        spectral._nufft_kernel_table.cache_clear()


@pytest.mark.parametrize("n", [7, 9, 6, 2])
def test_make_grid_rejects_bad_counts(n):
    with pytest.raises(ValueError):
        make_grid(n)


def test_make_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        make_grid(64, length=0.0)
    with pytest.raises(ValueError):
        make_grid(64, length=-1.0)


def test_multiplier_identity_and_eigenmode():
    rng = np.random.default_rng(SEED)
    g = make_grid(64)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.allclose(g.multiply_symbol(f, np.ones_like(g.k)), f)
    mode = np.exp(3j * g.nodes)
    out = g.multiply_symbol(mode, np.abs(g.k) ** 0.5)
    assert np.max(np.abs(out - np.sqrt(3) * mode)) < 1e-12


def test_multiplier_derivative_oracle():
    g = make_grid(128)
    f = np.sin(2 * g.nodes) + 0j
    out = g.multiply_symbol(f, 1j * g.k)
    assert np.max(np.abs(out - 2 * np.cos(2 * g.nodes))) < 1e-12


def test_multiplier_linearity():
    rng = np.random.default_rng(SEED)
    g = make_grid(64)
    f1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    sym = np.exp(-np.abs(g.k)) + 1j * g.k
    lhs = g.multiply_symbol(2.0 * f1 + (1 - 3j) * f2, sym)
    rhs = 2.0 * g.multiply_symbol(f1, sym) + (1 - 3j) * g.multiply_symbol(f2, sym)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_hilbert_examples():
    g = make_grid(128)
    a = g.nodes
    assert np.max(np.abs(g.hilbert(np.exp(-1j * a)) - np.exp(-1j * a))) < 1e-13
    assert np.max(np.abs(g.hilbert(np.cos(a) + 0j) + 1j * np.sin(a))) < 1e-13
    assert np.max(np.abs(g.hilbert(np.ones(128, complex)))) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**GRIDS)
def test_hilbert_involution_on_mean_zero(n, length, seed):
    g = make_grid(n, length)
    f = dealias(g, _noise(n, seed))
    f = f - g.coeffs(f)[0]
    hh = g.hilbert(g.hilbert(f))
    assert np.max(np.abs(hh - f)) < 1e-12 * np.max(np.abs(f))


def test_projections_examples():
    g = make_grid(64)
    a = g.nodes
    e_neg = np.exp(-2j * a)
    e_pos = np.exp(2j * a)
    assert np.max(np.abs(project(g, e_neg, "H") - e_neg)) < 1e-13
    assert np.max(np.abs(project(g, e_pos, "H"))) < 1e-13
    const = np.ones(64, complex)
    assert np.max(np.abs(project(g, const, "H") - 0.5)) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**GRIDS)
def test_projections_idempotent_complementary(n, length, seed):
    # idempotence holds on mean-zero fields; the mean mode is halved by
    # both projections (P_H(1) = 1/2 convention), complementarity is exact
    g = make_grid(n, length)
    f = _noise(n, seed)
    f0 = f - g.coeffs(f)[0]
    ph = project(g, f0, "H")
    pa = project(g, f0, "A")
    assert np.max(np.abs(project(g, ph, "H") - ph)) < 1e-13
    assert np.max(np.abs(project(g, pa, "A") - pa)) < 1e-13
    assert np.max(np.abs(ph + pa - f0)) < 1e-13
    assert np.max(np.abs(project(g, f, "H") + project(g, f, "A") - f)) < 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**GRIDS, fraction=st.floats(0.05, 1.0))
def test_grid_operators_are_multiply_symbol_with_their_symbols(n, length, seed, fraction):
    # the precomputed symbols of the grid methods and the symbol table are
    # the documented ones: each equals multiply_symbol with that symbol,
    # bit for bit
    g = make_grid(n, length, fraction)
    f = _noise(n, seed)
    nyquist = g.k_int == n // 2
    symbols = {
        "deriv": (g.deriv, np.where(nyquist, 0.0, 1j * g.k)),
        "hilbert": (g.hilbert, np.where(nyquist, 0.0, -np.sign(g.k))),
        "dealias": (lambda h: g.multiply_symbol(h, g.symbol_table(("dealias",))[0]),
                    np.abs(g.k_int) <= int(np.floor(fraction * (n // 2)))),
    }
    for name, (method, symbol) in symbols.items():
        assert np.array_equal(method(f), g.multiply_symbol(f, symbol.astype(complex))), name


def test_projections_commute_with_even_multiplier():
    rng = np.random.default_rng(SEED)
    g = make_grid(128)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    sym = np.exp(-0.3 * np.abs(g.k))
    lhs = project(g, g.multiply_symbol(f, sym), "H")
    rhs = g.multiply_symbol(project(g, f, "H"), sym)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_parseval():
    rng = np.random.default_rng(SEED)
    g = make_grid(256)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    phys = g.l2_norm(f) ** 2
    four = g.length * np.sum(np.abs(g.coeffs(f)) ** 2)
    assert abs(phys - four) < 1e-12 * phys


def test_poisson_examples():
    rng = np.random.default_rng(SEED)
    g = make_grid(128)
    a = g.nodes
    f = np.exp(4j * a)
    out = poisson_smooth(g, f, 0.3)
    assert np.max(np.abs(out - np.exp(-1.2) * f)) < 1e-13
    f2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.array_equal(poisson_smooth(g, f2, 0.0), f2)
    with pytest.raises(ValueError):
        poisson_smooth(g, f2, -0.1)
    with pytest.raises(ValueError, match="width must be >= 0, got nan"):
        poisson_smooth(g, f2, float("nan"))


def test_poisson_semigroup():
    rng = np.random.default_rng(SEED)
    g = make_grid(256)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    one = poisson_smooth(g, poisson_smooth(g, f, 0.07), 0.13)
    two = poisson_smooth(g, f, 0.2)
    assert np.max(np.abs(one - two)) < 1e-12 * np.max(np.abs(f))


def test_poisson_derivative_bound():
    rng = np.random.default_rng(SEED)
    # smoothing estimate ||d_a (f * P_eps)||_inf <= C ||f||_inf / eps
    g = make_grid(512)
    ratios = []
    for trial in range(20):
        f = random_real_field(g, rng, n_modes=200, amp=1.0, decay=0.6) + 0j
        for eps in (0.1, 0.05, 0.025):
            sm = poisson_smooth(g, f, eps)
            ratios.append(linf_norm(g, g.deriv(sm)) * eps / linf_norm(g, f))
    assert max(ratios) < 5.0


def test_dealias_rules():
    rng = np.random.default_rng(SEED)
    g = make_grid(96)
    f = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    once = dealias(g, f)
    assert np.max(np.abs(dealias(g, once) - once)) < 1e-15
    low = np.exp(5j * g.nodes)
    assert np.max(np.abs(dealias(g, low) - low)) < 1e-13
    top = np.exp(1j * (96 // 2) * g.nodes)
    assert np.max(np.abs(dealias(g, top))) < 1e-12


def test_harmonic_extension_examples():
    g = make_grid(128)
    const = np.ones(128, complex)
    assert abs(harmonic_extension_norms(g, const, [-0.5], p=2)[0] - g.l2_norm(const)) < 1e-13
    mode = np.exp(-1j * g.nodes)
    val = harmonic_extension_norms(g, mode, [-1.0], p=np.inf)[0]
    assert abs(val - np.exp(-1.0)) < 1e-13


def test_harmonic_extension_monotone_and_guard():
    rng = np.random.default_rng(SEED)
    g = make_grid(256)
    f = random_holomorphic(g, rng, n_modes=10, amp=0.8, decay=1.2)
    depths = [-(2.0 ** -j) for j in range(1, 9)]
    sups = harmonic_extension_norms(g, f, depths, p=np.inf)
    deeper_first = sorted(depths)  # most negative first
    by_depth = dict(zip(depths, sups))
    vals = [by_depth[y] for y in deeper_first]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    with pytest.raises(HolomorphicityError):
        harmonic_extension_norms(g, np.exp(3j * g.nodes), [-0.5])


def test_hhalf_double_sum_matches_fourier():
    rng = np.random.default_rng(SEED)
    g = make_grid(128, length=5.0)
    f = random_holomorphic(g, rng, n_modes=8, amp=1.0) + random_real_field(g, rng, 5, 0.5)
    lhs = hhalf_double_sum(g, f)
    rhs = g.hhalf_norm(f) ** 2
    assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


def test_interpolation_matches_direct():
    rng = np.random.default_rng(SEED)
    g = make_grid(128)
    f = np.exp(np.cos(g.nodes)) * np.exp(1j * np.sin(2 * g.nodes))
    x = rng.uniform(-g.length, 2 * g.length, 200)
    d = interpolate_direct(g, f, x)
    fast = g.interpolate(f, x)
    assert np.max(np.abs(d - fast)) < 1e-12


def _nyquist_fields(g):
    """A complex and a real resolved field, each with Nyquist content."""
    a = TWO_PI * g.nodes / g.length
    nyq = np.cos(np.pi * np.arange(g.n))
    return (
        np.exp(np.cos(a)) * np.exp(1j * np.sin(2 * a)) + 0.5 * nyq,
        np.exp(np.sin(a)) + 0.3 * nyq + 0.2 * np.cos((g.n // 2 - 3) * a),
    )


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_interpolate_matches_direct_with_nyquist_content(n):
    g = make_grid(n, length=5.0)
    x = np.random.default_rng(n).uniform(-g.length, 2 * g.length, 300)
    for f in _nyquist_fields(g):
        d = interpolate_direct(g, f, x)
        fast = g.interpolate(f, x)
        assert np.max(np.abs(d - fast)) <= 1e-12 * np.max(np.abs(f))


def test_interpolate_direct_is_periodic():
    # the oracle reduces x modulo the period, so x in [L, 2L) and x - L
    # (exact there) give the same bits
    g = make_grid(2048)
    rng = np.random.default_rng(2048)
    f = dealias(g, rng.standard_normal(2048) + 1j * rng.standard_normal(2048))
    x = rng.uniform(g.length, 2 * g.length, 200)
    assert np.array_equal(interpolate_direct(g, f, x), interpolate_direct(g, f, x - g.length))


def test_interpolate_real_input_gives_real_output():
    rng = np.random.default_rng(SEED)
    g = make_grid(256)
    x = rng.uniform(-g.length, 2 * g.length, 100)
    f = _nyquist_fields(g)[1]
    fast = g.interpolate(f, x)
    d = interpolate_direct(g, f, x)
    assert np.isrealobj(fast)
    assert np.max(np.abs(d.imag)) <= 1e-14 * np.max(np.abs(f))
    assert np.max(np.abs(fast - d.real)) <= 1e-12 * np.max(np.abs(f))
    # the same values through the complex route, imaginary part at rounding
    via_complex = g.interpolate(f + 0j, x)
    assert np.max(np.abs(via_complex.imag)) <= 1e-14 * np.max(np.abs(f))


def test_spread_is_bit_identical_to_interpolate():
    # one spread of real rows gathers at several point sets, each row with
    # the bits of a fresh interpolate of it alone; interpolate takes a
    # single field and real and complex stacks of any leading shape, a
    # complex one as the rows of its real parts then its imaginary parts
    rng = np.random.default_rng(SEED)
    g = make_grid(128, length=3.0)
    for f in _nyquist_fields(g):
        gather = g.spread(np.stack([f.real, f.imag]))
        for x in (rng.uniform(-g.length, 2 * g.length, 50), g.nodes, 0.7):
            re, im = gather(x)
            assert np.array_equal(re + 1j * im if np.iscomplexobj(f) else re, g.interpolate(f, x))
    for n in (64, 768):
        g = make_grid(n, length=5.0)
        rng = np.random.default_rng(n + 5)
        x = rng.uniform(-g.length, 2 * g.length, 300)
        real, imag = rng.standard_normal((2, 3, n))
        stack = real + 1j * imag
        gather = g.spread(np.concatenate((real, imag)))
        for points in (x, x[::-1], x[:7], x.reshape(20, 15)):
            out = gather(points)
            assert out.shape == (6,) + points.shape
            assert out[:3].tobytes() == g.interpolate(real, points).tobytes()
            assert (out[:3] + 1j * out[3:]).tobytes() == g.interpolate(stack, points).tobytes()
        out = gather(x)
        assert out[1].tobytes() == g.interpolate(real[1], x).tobytes()
        assert out[4].tobytes() == g.interpolate(imag[1], x).tobytes()
        assert g.interpolate(stack, x)[1].tobytes() == g.interpolate(stack[1], x).tobytes()
        for f in (real, stack):
            many = g.interpolate(f[[0, 1, 2, 0]].reshape(2, 2, n), x)
            assert many.shape == (2, 2, x.size)
            assert many[1, 0].tobytes() == g.interpolate(f[2], x).tobytes()


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_kernel_weights_match_the_formula(n):
    # on a grid of length 2n the fine-grid coordinate t is x itself, so the
    # offsets t - floor(t) include 0 and the double just below 1 exactly
    offsets = np.append(np.linspace(0.0, 1.0, 20001)[:-1], np.nextafter(1.0, 0.0))
    fine = make_grid(n, length=2.0 * n)
    x = np.concatenate([offsets, offsets + 7.0, offsets - 3.0, offsets + (2 * n - 1)])
    # and points anywhere on a 2 pi grid
    g = make_grid(n)
    y = np.random.default_rng(n).uniform(-g.length, 2 * g.length, 5000)
    for grid, points in ((fine, x), (g, y), (g, g.nodes)):
        weights, start = grid.nufft_kernel(points)
        exact, exact_start = nufft_kernel_formula(grid, points)
        assert weights.shape == exact.shape == points.shape + (16,)
        assert np.array_equal(start, exact_start)
        assert np.max(np.abs(weights - exact)) <= 1e-14


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_kernel_weights_of_a_point_do_not_depend_on_its_batch(n):
    g = make_grid(n)
    x = np.random.default_rng(n + 1).uniform(-g.length, 2 * g.length, n)
    weights, start = g.nufft_kernel(x)
    for p in (1, 2, 17, n):
        for i in sorted({0, 1, 5, (n - p) // 2, n - p}):
            part, part_start = g.nufft_kernel(x[i : i + p])
            assert part.tobytes() == weights[i : i + p].tobytes(), (p, i)
            assert np.array_equal(part_start, start[i : i + p])
    # a single point given as a scalar
    one, one_start = g.nufft_kernel(x[3])
    assert one.tobytes() == weights[3:4].tobytes() and np.array_equal(one_start, start[3:4])


@pytest.mark.parametrize("n", [64, 768])
def test_kept_kernel_weights_give_interpolate_bit_for_bit(n, monkeypatch):
    # weights kept from an earlier nufft_kernel call, handed to a gather in
    # place of the ones it computes, give the bits of a fresh interpolate
    g = make_grid(n, length=5.0)
    rng = np.random.default_rng(n + 5)
    x = rng.uniform(-g.length, 2 * g.length, 300)
    kernel = g.nufft_kernel(x)
    real, imag = rng.standard_normal((2, 3, n))
    expected = [(g.interpolate(s, x), g.interpolate(s[1], x)) for s in (real, real + 1j * imag)]
    monkeypatch.setattr(type(g), "nufft_kernel", lambda self, points: kernel)
    rows = np.concatenate((real, imag))
    whole, row = g.spread(rows)(x), g.spread(rows[1::3])(x)
    (real_whole, real_row), (cplx_whole, cplx_row) = expected
    assert whole[:3].tobytes() == real_whole.tobytes()
    assert row[0].tobytes() == real_row.tobytes()
    assert (whole[:3] + 1j * whole[3:]).tobytes() == cplx_whole.tobytes()
    assert (row[0] + 1j * row[1]).tobytes() == cplx_row.tobytes()


def test_a_gather_of_some_rows_with_given_weights_is_bit_identical():
    # a gather handed the kernel weights of its points, of all the rows of
    # a real stack or of a slice of them, gives the bits of the plain gather
    g = make_grid(128, length=5.0)
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((5, g.n))
    x = rng.uniform(-g.length, 2 * g.length, 90)
    gather = g.spread(stack)
    whole, kernel = gather(x), g.nufft_kernel(x)
    assert gather(x, kernel).tobytes() == whole.tobytes()
    for rows in (slice(1), slice(1, 3), slice(2, None)):
        assert gather(x, kernel, rows).tobytes() == whole[rows].tobytes()


def test_a_gather_selects_rows_of_a_real_stack_only():
    # spread takes nothing but a real stack of rows, so a slice of a
    # gather names the rows it was given: a complex stack, whose parts
    # would be rows of their own, a single field and a stack of stacks
    # are refused
    g = make_grid(64)
    rng = np.random.default_rng(3)
    real, imag = rng.standard_normal((2, 2, g.n))
    for f in (real + 1j * imag, real[0], real[0] + 0j, real[None]):
        with pytest.raises(ValueError, match=r"real \(m, n\) stack"):
            g.spread(f)
    x = g.nodes + 0.1
    gather = g.spread(np.concatenate((real, imag)))
    assert gather(x, None, slice(0, 1))[0].tobytes() == g.interpolate(real[0], x).tobytes()
    assert gather(x, None, slice(2, 3))[0].tobytes() == g.interpolate(imag[0], x).tobytes()


def test_a_gather_copies_at_most_len_x_times_w_window_values():
    # random points, the t = 0 case and half runs, half strays: the windows
    # copied for the strays, a chunk of rows at a time, stay within len(x) *
    # w values; the traced peak also holds the result, the strays' results
    # and their weights
    g, rows, w = make_grid(256), 22, 16
    rng = np.random.default_rng(11)
    gather = g.spread(rng.standard_normal((rows, g.n)))
    L = g.length
    for x in (rng.uniform(-L, 2 * L, g.n), g.nodes + rng.uniform(-4.0, 4.0, g.n) * np.spacing(L),
              np.concatenate((g.nodes[: g.n // 2], rng.uniform(-L, 2 * L, g.n // 2)))):
        kernel = g.nufft_kernel(x)
        tracemalloc.start()
        try:
            gather(x, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = 2 * rows * x.size + x.size * w
        assert peak <= 8 * (results + x.size * w) + 8192


def _gather_points(g, family, rng):
    """Points of the family: 'htilde', the nodes plus a smooth deviation
    below dx/2, as htilde's targets; 'nodes'; 'near nodes', the nodes
    moved by a few ulps, as htilde's targets at t = 0; 'random', unsorted
    in [-L, 2L); 'mixed', the first half of the nodes then random points;
    'crossing', consecutive nodes, shifted, across 0 or L; 'single', one
    point."""
    n, L, dx = g.n, g.length, g.dx
    if family == "htilde":
        modes = np.arange(1, 4)
        dev = np.sin(np.outer(g.nodes * TWO_PI / L, modes) + rng.uniform(0, TWO_PI, 3)) @ (
            rng.standard_normal(3) / modes)
        return g.nodes + rng.uniform(0.0, 0.49) * dx * dev / np.max(np.abs(dev))
    if family == "nodes":
        return g.nodes.copy()
    if family == "near nodes":
        return g.nodes + rng.uniform(-4.0, 4.0, n) * np.spacing(L)
    if family == "random":
        return rng.uniform(-L, 2 * L, n)
    if family == "mixed":
        return np.concatenate((g.nodes[: n // 2], rng.uniform(-L, 2 * L, n - n // 2)))
    if family == "crossing":
        m = int(rng.integers(2, n + 1))
        return rng.choice([0.0, L]) + dx * (np.arange(m) - m // 2 + rng.uniform(0.0, 1.0))
    return rng.uniform(-L, 2 * L, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([8, 16, 32, 64, 96, 160, 256]),
    length=st.floats(0.5, 50.0),
    family=st.sampled_from(["htilde", "nodes", "near nodes", "random", "mixed", "crossing",
                            "single"]),
    rows=st.sampled_from([None, 1, 3]),
    form=st.sampled_from(["real", "complex", "no rows", "some rows"]),
    two_d=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_gather_is_its_points_gathered_one_at_a_time(n, length, family, rows, form, two_d,
                                                       seed):
    # whatever runs the points fall in, each point gets the bits it gets
    # alone: in a gather of a real stack, with the weights the gather
    # computes or is given, and in an interpolate of a single field or of
    # complex values, which spreads the real rows of its field
    g = make_grid(n, length=length)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((rows or 1, n))
    if form == "complex":
        f = f + 1j * rng.standard_normal(f.shape)
    if rows is None:
        f = f[0]
    select = {"no rows": slice(0, 0), "some rows": slice(1, None)}.get(form, slice(None))
    if form in ("no rows", "some rows") and f.ndim == 1:
        f = f[None]
    x = _gather_points(g, family, rng)
    if two_d and x.size % 2 == 0:
        x = x.reshape(2, -1)
    via_interpolate = f.ndim == 1 or form == "complex"
    gather = None if via_interpolate else g.spread(f)

    def evaluate(points, kernel=None):
        return g.interpolate(f, points) if via_interpolate else gather(points, kernel, select)

    alone = np.concatenate([evaluate(p) for p in x.ravel()], axis=-1)
    alone = alone.reshape(alone.shape[:-1] + x.shape)
    whole = evaluate(x)
    assert whole.shape == alone.shape and whole.tobytes() == alone.tobytes()
    if not via_interpolate:
        assert evaluate(x, g.nufft_kernel(x)).tobytes() == alone.tobytes()


def test_interpolate_at_the_grid_nodes_is_exact_to_rounding():
    # 1.96e-15 sup|f| with the kernel formula, 1.93e-15 from its table
    g = make_grid(768)
    f = np.exp(np.cos(g.nodes)) * np.exp(1j * np.sin(2 * g.nodes))
    assert np.max(np.abs(g.interpolate(f, g.nodes) - f)) <= 4e-15 * np.max(np.abs(f))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, f: extend_to_depth(g, f, np.nan),
        lambda g, f: extend_to_depth(g, f, 0.0),
        lambda g, f: extend_to_depth(g, f, -np.inf),
        lambda g, f: poisson_smooth(g, f, np.inf),
        lambda g, f: lp_norm(g, f, np.nan),
        lambda g, f: lp_norm(g, f, 0.0),
        lambda g, f: sobolev_norm(g, f, np.nan),
        lambda g, f: sobolev_norm(g, f, np.inf),
    ],
    ids=["depth-nan", "depth-zero", "depth-inf", "width-inf", "p-nan", "p-zero", "s-nan", "s-inf"],
)
def test_grid_helpers_refuse_bad_parameters(call):
    g = make_grid(16)
    with pytest.raises(ValueError):
        call(g, np.exp(-1j * g.nodes))


@pytest.mark.parametrize("n", [8, 128, 768])
def test_sup_norm_of_constant_is_exact(n):
    # a constant has no local maximum on the seed grid, so it gets no seed
    # and its value is the grid maximum, |c| to the bit
    g = make_grid(n)
    rng = np.random.default_rng(n)
    consts = (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * 10 ** rng.uniform(-3, 3, 50)
    for c in consts:
        f = np.full(n, c)
        assert g.sup_norm(f) == np.abs(f).max()


@pytest.mark.parametrize("n", [8, 128, 768, 2048])
def test_sup_seeds_give_no_seed_to_a_constant_or_zero_row(n):
    g = make_grid(n)
    rng = np.random.default_rng(n + 3)
    peaked = np.cos(g.nodes - 0.3) + 0.5j * np.sin(2.0 * g.nodes)
    for value in (0.0, -0.0, 1.5, 0.3 - 0.2j, complex(*rng.standard_normal(2))):
        stack = np.array([np.full(n, value), peaked])
        row, node, shift = g._sup_seeds(stack, g.coeffs(stack))
        assert set(row.tolist()) == {1}
        assert node.shape == shift.shape == row.shape
        sups = g.sup_norm(stack)
        assert sups[0] == np.abs(stack[0]).max()


@pytest.mark.parametrize("n", [48, 768])
def test_sup_norm_of_a_peak_on_a_seed_node_is_within_an_ulp(n):
    # a cos(k x) peaks at x = 0, a node of the seed grid, where the parabola
    # through the node and its neighbours starts the polish.  For k = n/4
    # and n/6 the samples are exact (a, 0, -a, 0, ... and a, a/2, -a/2, ...);
    # for k = 1 they are a cos(x) rounded
    g = make_grid(n)
    rng = np.random.default_rng(n + 6)
    for a in 10 ** rng.uniform(-3, 3, 20):
        for f in (a * np.cos(g.nodes), a * np.tile([1.0, 0.0, -1.0, 0.0], n // 4),
                  a * np.tile([1.0, 0.5, -0.5, -1.0, -0.5, 0.5], n // 6)):
            assert abs(g.sup_norm(f) - a) <= np.spacing(a)


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_stacked_evaluator_rows_are_bit_identical_to_interpolate(n):
    g = make_grid(n, length=5.0)
    rng = np.random.default_rng(n + 1)
    x = rng.uniform(-g.length, 2 * g.length, 300)
    real = rng.standard_normal((5, n))
    imag = rng.standard_normal((5, n))
    for stack in (real, real + 1j * imag):
        out = g.interpolate(stack, x)
        assert out.shape == (5, 300)
        assert np.iscomplexobj(out) == np.iscomplexobj(stack)
        for row, f in zip(out, stack):
            assert np.array_equal(row, g.interpolate(f, x))
    # a complex stack is its real parts and its imaginary parts, and a real
    # row cast to complex pulls back with the bits of the real row
    parts = g.interpolate(real, x) + 1j * g.interpolate(imag, x)
    assert g.interpolate(real + 1j * imag, x).tobytes() == parts.tobytes()
    assert np.array_equal(g.interpolate(real[2] + 0j, x), g.interpolate(real[2], x))


def _dense_sup_oracle(g, f, oversample=64, newton_steps=6):
    """max |f| of the trigonometric interpolant, whose Nyquist coefficient
    is paired with cos(k_nyq x), half of it at +k_nyq and half at -k_nyq:
    every strict local maximum of |f| on a grid `oversample` times finer
    (spacing h) within the Bernstein bound (k_nyq h)^2 / 8 of the grid's
    largest value, each polished by Newton on |f|^2 with every value, first
    and second derivative taken by direct Fourier sums about its node, and
    the largest polished value; a field without a strict local maximum on
    that grid (a constant) gives the grid's largest value.  Polishing only
    the grid's argmax can polish the lower of two nearly equal peaks.

    The sums see only the offset y from the node j L / n2: the coefficients
    are first turned by exp(2 pi i (k j mod n2) / n2), whose integer phase
    is reduced exactly, so each mode's phase k y is small.  Phases k x
    formed at the point itself round by about eps k x per mode, which on
    white noise over the full band at n = 2048 moves |f| by up to 1.4e-13
    relative (against a long-double evaluation)."""
    n2, half = oversample * g.n, g.n // 2
    c = np.fft.fft(f) / g.n
    k_int = np.append(g.k_int, -half)
    c = np.append(c, 0.5 * c[half])
    c[half] *= 0.5
    k = (2 * np.pi / g.length) * k_int
    cp = np.zeros(n2, dtype=complex)
    cp[k_int % n2] = c
    mag = np.abs(np.fft.ifft(cp) * n2)
    floor = mag.max() * (1.0 - (g.k[half] * g.length / n2) ** 2 / 8.0)
    nodes = np.flatnonzero((mag >= floor) & (mag >= np.roll(mag, 1)) & (mag > np.roll(mag, -1)))
    if nodes.size == 0:
        return mag.max()
    c = c * np.exp(2j * np.pi * ((k_int * nodes[:, None]) % n2) / n2)
    y = np.zeros((len(nodes), 1))
    for _ in range(newton_steps):
        terms = c * np.exp(1j * k * y)
        v, vp, vpp = terms.sum(1), (1j * k * terms).sum(1), (-k * k * terms).sum(1)
        y -= ((np.conj(v) * vp).real / (abs(vp) ** 2 + (np.conj(v) * vpp).real))[:, None]
    return np.abs((c * np.exp(1j * k * y)).sum(1)).max()


@pytest.mark.parametrize("n", [64, 256, 768, 2048])
def test_sup_norm_of_band_limited_fields_matches_dense_oracle(n):
    # white noise, real and complex, on the dealiased band and then on the
    # full band |k| < n/2 (the oracle takes no Nyquist content): many peaks
    # of nearly equal height, so the seed grid alone can pick the wrong one.
    # The full band is the harder case: on some of its fields a seed grid
    # only 2x finer than the field's grid misses the peak
    g = make_grid(n, length=3.0)
    rng = np.random.default_rng(n)
    for top in (n // 3, n // 2 - 1):
        band = np.abs(g.k_int) <= top
        for trial in range(120):
            c = np.zeros(n, dtype=complex)
            c[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
            f = np.fft.ifft(c) * n
            if trial % 2:
                f = f.real
            exact = _dense_sup_oracle(g, f)
            assert abs(g.sup_norm(f) - exact) <= 1e-13 * exact, (top, trial)


def test_dense_sup_oracle_polishes_every_near_top_peak():
    # field 201 of real full-band white noise drawn as above from
    # default_rng(1768) at n = 768: two peaks of nearly equal height, where
    # polishing only the argmax of the oracle's grid gives 88.679164
    n = 768
    g = make_grid(n, length=3.0)
    rng = np.random.default_rng(1768)
    band = np.abs(g.k_int) <= n // 2 - 1
    for _ in range(202):
        c = np.zeros(n, dtype=complex)
        c[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    f = (np.fft.ifft(c) * n).real
    exact = _dense_sup_oracle(g, f)
    assert abs(exact - 88.684415) <= 1e-6
    assert abs(g.sup_norm(f) - exact) <= 1e-13 * exact


def _benchmark_workloads():
    """The WORKLOADS of benchmarks/workloads.py, which the tests only read;
    its dataclasses need the module in sys.modules."""
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    if spec.name not in sys.modules:
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[spec.name].WORKLOADS


@pytest.mark.parametrize("name", ["pair_eps05", "pair_record_n2048"])
def test_record_sup_norms_of_the_benchmark_pairs_match_dense_oracle(name, monkeypatch):
    # the one L-infinity stack of each of the first three seed-0 records of
    # the benchmark's pair set-ups: at t = 0 two rows are zero or at the
    # rounding level (b is a's twin), and the rows carry Nyquist content
    workload = _benchmark_workloads()[name]
    stacks = []
    sup_norm = spectral.SpectralGrid.sup_norm

    def kept(self, f):
        stacks.append((self, np.array(f), sup_norm(self, f)))
        return stacks[-1][2]

    monkeypatch.setattr(spectral.SpectralGrid, "sup_norm", kept)

    def record(p):
        energy_delta(p)
        f_delta_norm(p)
        energy_sigma(p.state_a)

    pair, cfg, dt, _ = workload.setup(0)
    evolution.drive(pair, co_step, cfg, dt, 2 * workload.record_every, record,
                    workload.record_every)
    assert [stack.shape for _, stack, _ in stacks] == 3 * [(5, workload.n)]
    for g, stack, sups in stacks:
        for f, sup in zip(stack, sups):
            exact = _dense_sup_oracle(g, f)
            assert abs(sup - exact) <= 1e-13 * exact


def test_sup_norm_seed_started_off_its_node_takes_an_evaluated_value(monkeypatch):
    # |f| peaks between two seed nodes; with no Newton step the seed's
    # point stays at the vertex of the parabola through |f| at its node and
    # its neighbours, and its value is |f| evaluated there, above every
    # seed-grid value
    monkeypatch.setattr(spectral, "_SUP_NEWTON_STEPS", 0)
    g = make_grid(64)
    h = g.length / (spectral._SUP_OVERSAMPLE * g.n)
    x0 = 37.3 * h

    def mag(x):
        return np.abs(1.0 + 0.5 * np.exp(1j * (x - x0)))

    seed_grid = mag(h * np.arange(spectral._SUP_OVERSAMPLE * g.n))
    left, top, right = seed_grid[36:39]
    vertex = h * (37 + 0.5 * (left - right) / (left - 2.0 * top + right))
    assert seed_grid.argmax() == 37 and abs(vertex - x0) < 0.01 * h
    sup = g.sup_norm(1.0 + 0.5 * np.exp(1j * (g.nodes - x0)))
    assert sup > seed_grid.max() + 1e-7
    assert abs(sup - mag(vertex)) <= 1e-14
    # with the Newton steps, the peak itself
    monkeypatch.undo()
    assert abs(g.sup_norm(1.0 + 0.5 * np.exp(1j * (g.nodes - x0))) - 1.5) <= 1e-15


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_stacked_sup_norm_rows_are_bit_identical_to_single_calls(n):
    g = make_grid(n, length=3.0)
    rng = np.random.default_rng(n + 4)
    band = np.abs(g.k_int) <= n // 3
    c = np.zeros((4, n), dtype=complex)
    c[:, band] = rng.standard_normal((4, band.sum())) + 1j * rng.standard_normal((4, band.sum()))
    complex_stack = np.fft.ifft(c) * n
    # a constant row, which gets no seed, beside peaked ones
    complex_stack[3] = 0.3 - 0.2j
    # the stack of a pair record: complex rows, real rows cast to complex
    # and the constant row
    record_stack = np.array([complex_stack[0], complex_stack[1].real, complex_stack[2].real,
                             complex_stack[3], complex_stack[2]], dtype=complex)
    for stack in (complex_stack.real, complex_stack, record_stack):
        sups = g.sup_norm(stack)
        assert sups.shape == (len(stack),)
        for f, sup in zip(stack, sups):
            assert sup.tobytes() == np.float64(g.sup_norm(f)).tobytes()
    # one seed path: a real field and the same field cast to complex
    for f in complex_stack.real:
        assert np.float64(g.sup_norm(f)).tobytes() == np.float64(g.sup_norm(f + 0j)).tobytes()


@pytest.mark.parametrize("n", [64, 768, 2048])
def test_stacked_hhalf_norm_rows_are_bit_identical_to_single_calls(n):
    g = make_grid(n, length=3.0)
    rng = np.random.default_rng(n + 5)
    real = rng.standard_normal((3, n))
    stacks = (real, real + 1j * rng.standard_normal((3, n)))
    # a stack of a record: complex rows and real rows cast to complex
    mixed = np.array([stacks[1][0], real[1], stacks[1][2]], dtype=complex)
    for stack in (*stacks, mixed):
        norms = g.hhalf_norm(stack)
        assert norms.shape == (3,)
        for f, norm in zip(stack, norms):
            assert norm.tobytes() == np.float64(g.hhalf_norm(f)).tobytes()
    assert np.float64(g.hhalf_norm(real[1])).tobytes() == norms[1].tobytes()


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_stacked_l2_norm_rows_are_bit_identical_to_single_calls(n):
    g = make_grid(n, length=3.0)
    rng = np.random.default_rng(n + 9)
    stack = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    for rows in (stack, stack.real.copy()):
        norms = g.l2_norm(rows)
        assert norms.shape == (4,)
        for f, norm in zip(rows, norms):
            assert norm.tobytes() == np.float64(g.l2_norm(f)).tobytes()
    assert isinstance(g.l2_norm(stack[0]), float)
    # a real row gives the bits of its complex cast, as in a mixed stack
    assert g.l2_norm(stack[0].real) == g.l2_norm(stack[0].real + 0j)


# the finish of an RK4 step, evolution._finish: one FFT pair of stacked rows
@pytest.mark.parametrize("n", [64, 768])
def test_stacked_finish_step_rows_match_single_calls(n):
    rng = np.random.default_rng(n + 2)
    rows = rng.standard_normal((3, 3, n)) + 1j * rng.standard_normal((3, 3, n))
    # the default filter, and a dealias_fraction = 1 grid that keeps every mode
    for g in (make_grid(n), make_grid(n, dealias_fraction=1.0)):
        # the new rows come as one array, in the order of the stack
        out, mass, size = evolution._finish(g, rows.reshape(9, n).copy(), 3)
        out = out.reshape(3, 3, n)
        assert mass.shape == size.shape == (2, 3)
        for r in range(3):
            one, one_mass, one_size = evolution._finish(g, rows[:, r].copy(), 1)
            assert one.shape == (3, n) and one_mass.shape == one_size.shape == (2, 1)
            assert out[:, r].tobytes() == one.tobytes()
            assert mass[:, r].tobytes() == one_mass[:, 0].tobytes()
            assert size[:, r].tobytes() == one_size[:, 0].tobytes()
            # the mass of the modes k > 0 of Z_ap - 1 and of Zbar_t, Nyquist
            # included, and none left there
            kept = [dealias(g, f) for f in rows[:, r]]
            for f, row, row_mass in ((kept[1] - 1.0, out[1, r] - 1.0, mass[0, r]),
                                     (np.conj(kept[2]), np.conj(out[2, r]), mass[1, r])):
                c = g.coeffs(f)
                exact = np.sqrt(g.length * np.sum(np.abs(c[g.k_int > 0]) ** 2))
                assert abs(row_mass - exact) <= 1e-13 * exact
                assert positive_mode_mass(g, row) <= 1e-13 * row_mass


@pytest.mark.parametrize("n", [64, 2048])
def test_finish_step_derives_further_rows_from_its_one_spectrum(n):
    # q rows after (Zdev, Z_ap, Z_t) come back dealiased and followed by
    # their derivatives, from the one FFT pair, and the state rows do not
    # see them
    g = make_grid(n)
    rng = np.random.default_rng(n + 5)
    rows = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    more = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
    out, mass, size = evolution._finish(g, np.concatenate((rows, more)), 2)
    alone, alone_mass, alone_size = evolution._finish(g, rows.copy(), 2)
    assert out.shape == (8, n)
    assert out[:6].tobytes() == alone.tobytes()
    assert mass.tobytes() == alone_mass.tobytes()
    assert size.tobytes() == alone_size.tobytes()
    kept, d_kept = out[6:7], out[7:]
    assert np.max(np.abs(kept - dealias(g, more))) <= 1e-14 * np.max(np.abs(more))
    scale = np.max(np.abs(g.k)) * np.max(np.abs(kept))
    assert np.max(np.abs(d_kept - g.deriv(kept))) <= 1e-14 * scale


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n", [64, 256, 768])
def test_finish_step_matches_the_dealias_then_projection_path(n, dealias):
    # the fused finish of a step against its two FFT pairs per row: the rows
    # and the removed masses agree to rounding, here on rows whose removed
    # masses are of the size of the rows; a dealias_fraction = 1 grid keeps
    # every mode
    g = make_grid(n) if dealias else make_grid(n, dealias_fraction=1.0)
    rng = np.random.default_rng(n + 7)
    rows = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
    rows[1] += 1.0
    out, mass, _ = evolution._finish(g, rows.reshape(12, n).copy(), 4)
    ref, ref_mass = finish_unfused(g, rows)
    assert mass.shape == ref_mass.shape == (2, 4)
    for block, ref_block in zip(out.reshape(3, 4, n), ref):
        assert np.max(np.abs(block - ref_block)) <= 1e-14 * np.max(np.abs(ref_block))
    assert np.all(np.abs(mass - ref_mass) <= 1e-14 * ref_mass)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([16, 64, 256]), m=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(0.01, 0.3), noise=st.sampled_from([0.0, 1e-6, 1e-3]))
def test_finish_step_sizes_are_the_l2_norms_of_the_rows_it_returns(n, m, seed, amp, noise):
    # the sizes that the holomorphicity guard of advance reads, taken by
    # Parseval from the finish's spectrum, against grid.l2_norm of the new
    # rows Z_ap - 1 and Z_t; full-band noise gives the filter and the
    # projection modes to remove
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    states = [random_smooth_state(g, rng, amp=amp) for _ in range(m)]
    rows = np.array([[getattr(s, name) for s in states] for name in ("Zdev", "Zp", "Zt")])
    rows += noise * (rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape))
    out, _, size = evolution._finish(g, rows.reshape(3 * m, n), m)
    for new, row_size in zip((out[m : 2 * m] - 1.0, out[2 * m : 3 * m]), size):
        norm = g.l2_norm(new)
        assert np.all(np.abs(row_size - norm) <= 1e-13 * norm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.sampled_from([64, 256, 768]), length=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 256), decay=st.floats(0.5, 3.0))
def test_deriv_hplus_symbol_is_the_derivative_of_f_plus_its_hilbert_transform(
    n, length, seed, n_modes, decay
):
    # the one symbol i k (1 - sgn k) against D applied after I + H; the
    # composed route rounds H f and D then multiplies that rounding by up to
    # k_max, so the scale is k_max sup|f|, which bounds sup|D f| (Bernstein)
    g = make_grid(n, length)
    f = random_real_field(g, np.random.default_rng(seed), min(n_modes, n // 3), 1.0, decay)
    fused = g.multiply_symbol(f, g.symbol_table(("deriv_hplus",))[0])
    composed = g.deriv(f + g.hilbert(f))
    scale = np.max(np.abs(g.k)) * np.max(np.abs(f))
    assert np.max(np.abs(fused - composed)) <= 1e-14 * scale


# the identities that let a derive pack rows or transform fewer of them:
# even n up to 2048, any period, and a band of modes |k| <= band * n/2
# (the Nyquist mode included when band = 1)
IDENTITIES = dict(
    n=st.sampled_from([8, 64, 256, 768, 2048]),
    length=st.floats(0.1, 100.0),
    seed=st.integers(0, 2**32 - 1),
    band=st.floats(0.0, 1.0),
)


def _band_fields(g, seed, band, count):
    """count complex fields of random modes |k| <= band * n/2, at least one."""
    rng = np.random.default_rng(seed)
    top = max(1, round(band * (g.n // 2)))
    c = rng.standard_normal((count, g.n)) + 1j * rng.standard_normal((count, g.n))
    c[:, np.abs(g.k_int) > top] = 0.0
    return np.fft.ifft(c)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**IDENTITIES)
def test_hilbert_of_a_conjugate_is_minus_the_conjugate_of_the_hilbert_transform(
    n, length, seed, band
):
    # the multiplier -sgn k is odd and real, so H conj f = -conj(H f)
    g = make_grid(n, length)
    f, = _band_fields(g, seed, band, 1)
    gap = g.hilbert(np.conj(f)) + np.conj(g.hilbert(f))
    assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(f))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**IDENTITIES)
def test_derivative_of_a_packed_row_splits_into_those_of_its_parts(n, length, seed, band):
    # D maps real rows to real rows, so D(u + i v) = D u + i D v part by
    # part; D rounds on the scale k_max sup|f|, which bounds sup|D f|
    g = make_grid(n, length)
    u, v = _band_fields(g, seed, band, 2).real
    packed = g.deriv(u + 1j * v)
    scale = np.max(np.abs(g.k)) * max(np.max(np.abs(u)), np.max(np.abs(v)))
    assert np.max(np.abs(packed.real - g.deriv(u).real)) <= 1e-14 * scale
    assert np.max(np.abs(packed.imag - g.deriv(v).real)) <= 1e-14 * scale


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**IDENTITIES)
def test_one_part_of_a_hilbert_transform_reads_one_part_of_the_field(n, length, seed, band):
    # H maps real rows to imaginary rows and imaginary rows to real ones, so
    # Re H r = Re H(i Im r) and Im H p = Im H(Re p)
    g = make_grid(n, length)
    r, p = _band_fields(g, seed, band, 2)
    for f, part, kept in ((r, np.real, 1j * r.imag), (p, np.imag, p.real + 0j)):
        gap = part(g.hilbert(f)) - part(g.hilbert(kept))
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(f))


# the transform entry points against public numpy.fft: the sizes of the
# workloads and the smallest grid; a 1-D field, an (m, n) or a (j, m, n) stack
ENTRIES = dict(
    n=st.sampled_from([8, 256, 768, 2048]),
    lead=st.sampled_from([(), (3,), (2, 3)]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _rows(lead, n, real, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(lead + (n,))
    return f if real else f + 1j * rng.standard_normal(lead + (n,))


def _in_larger(shape):
    """A complex out of the given shape that is the leading rows of a larger
    array, as evolution._finish passes, and that array, filled with NaN."""
    rows = int(np.prod(shape[:-1]))
    big = np.full((2 * rows + 1, shape[-1]), np.nan, dtype=np.complex128)
    return big[:rows].reshape(shape), big


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**ENTRIES)
def test_transform_entries_are_numpy_fft_bit_for_bit(n, lead, real, seed):
    f = _rows(lead, n, real, seed)
    got = [spectral._fft(f), spectral._ifft(f)]
    assert same_bytes(got, [np.fft.fft(f), np.fft.ifft(f)])
    for entry, transform in ((spectral._fft, np.fft.fft), (spectral._ifft, np.fft.ifft)):
        out, big = _in_larger(f.shape)
        assert entry(f, out=out) is out
        assert same_bytes([out], [transform(f)])
        assert np.isnan(big[out.size // n :]).all()
    if real:
        assert same_bytes([spectral._rfft(f)], [np.fft.rfft(f)])
    # the zero-padding of _refine: n/2 + 1 modes to n, 2n and 4n points
    half = np.fft.rfft(f.real)
    for size in (n, 2 * n, 4 * n):
        assert same_bytes([spectral._irfft(half, size)], [np.fft.irfft(half, size)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**ENTRIES)
def test_multiply_symbol_and_coefficients_are_the_numpy_fft_expressions(n, lead, real, seed):
    # multiply_symbol writes the product and the inverse over the spectrum,
    # but gives the bits of the expression
    g = make_grid(n)
    f = _rows(lead, n, real, seed)
    rows = f.reshape(-1, n)
    # an (n,) symbol and a (k, n) table for a (k, n) stack
    cases = [
        (f, _rows((), n, False, seed + 1)),
        (rows, _rows(rows.shape[:-1], n, False, seed + 2)),
    ]
    for field, symbol in cases:
        expected = np.fft.ifft(symbol * np.fft.fft(field))
        assert same_bytes([g.multiply_symbol(field, symbol)], [expected])
    c = np.fft.fft(f) / n
    assert same_bytes([g.coeffs(f), g.from_coeffs(c)], [c, np.fft.ifft(c * n)])
