from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crestwave import brackets
from crestwave.brackets import InverseFlowMap, MonotoneMap
from crestwave.errors import MonotonicityError
from crestwave.spectral import make_grid

from helpers import random_holomorphic, random_monotone_map, same
from oracles import (
    BracketKernelConfig,
    commutator_bracket,
    commutator_line_oracle,
    compose_map_apply,
    dealias,
    hcal_apply,
    hcal_quadrature_oracle,
    htilcal_apply,
    interpolate_direct,
    inverse_map,
    map_at,
    triple_bracket_line_oracle,
    triple_bracket_periodic,
)



# -- commutator ---------------------------------------------------------------


def test_commutator_with_constant_vanishes():
    rng = np.random.default_rng(91)
    g = make_grid(128)
    f = (2.0 - 1.5j) * np.ones(128)
    h = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.max(np.abs(commutator_bracket(g, f, h))) < 1e-12


def test_commutator_mode_algebra():
    # [e^{ia}, H] d_a e^{-ia} = -i identically
    g = make_grid(128)
    a = g.nodes
    out = commutator_bracket(g, np.exp(1j * a), np.exp(-1j * a))
    assert np.max(np.abs(out + 1j)) < 1e-13


def test_commutator_annihilates_holomorphic_pairs():
    rng = np.random.default_rng(91)
    g = make_grid(256)
    f = random_holomorphic(g, rng, n_modes=6)
    h = random_holomorphic(g, rng, n_modes=6)
    scale = max(np.max(np.abs(f)), 1.0) * max(np.max(np.abs(h)), 1.0)
    assert np.max(np.abs(commutator_bracket(g, f, h))) < 1e-12 * scale


# -- periodic triple bracket ----------------------------------------------------


def test_triple_bracket_trivial_cases():
    rng = np.random.default_rng(91)
    g = make_grid(128)
    rand = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    const = np.ones(128, complex)
    zero = np.zeros(128, complex)
    assert np.max(np.abs(triple_bracket_periodic(g, const, rand, rand))) < 1e-12
    assert np.max(np.abs(triple_bracket_periodic(g, rand, rand, zero))) == 0.0


def _bump(center, width):
    return lambda x: np.exp(-((x - center) / width) ** 2)


def test_triple_bracket_periodic_matches_line_oracle():
    # localized data on a long period approximates the line kernel; the
    # kernel discrepancy shrinks as the period grows relative to the support
    f1 = _bump(1.0, 1.5)
    f2 = lambda x: np.sin(x) * np.exp(-((x + 2.0) / 2.0) ** 2)
    f3 = _bump(-1.0, 1.0)
    errs = {}
    for W, n in ((40.0, 1024), (80.0, 2048)):
        g = make_grid(n, length=W)
        shift = -0.5 * W + g.nodes  # align window coordinates with grid nodes
        x, line_vals = triple_bracket_line_oracle(f1, f2, f3, window=W, resolution=n)
        per = triple_bracket_periodic(g, f1(shift), f2(shift), f3(shift))
        errs[W] = np.max(np.abs(per - line_vals)) / np.max(np.abs(line_vals))
    assert errs[40.0] < 1e-2
    assert errs[80.0] < 0.3 * errs[40.0]
    # alternate-point rule agrees with the diagonal-limit rule on smooth data
    g = make_grid(1024, length=40.0)
    shift = -20.0 + g.nodes
    cfg = BracketKernelConfig(singularity_rule="alternate-point")
    one = triple_bracket_periodic(g, f1(shift), f2(shift), f3(shift))
    two = triple_bracket_periodic(g, f1(shift), f2(shift), f3(shift), cfg)
    assert np.max(np.abs(one - two)) < 1e-6


def test_line_oracle_self_convergence():
    f1 = _bump(0.5, 1.2)
    f2 = _bump(-0.5, 1.5)
    f3 = _bump(0.0, 1.0)
    vals = {}
    for n in (512, 1024, 2048):
        x, v = triple_bracket_line_oracle(f1, f2, f3, window=40.0, resolution=n)
        vals[n] = v
    e1 = np.max(np.abs(vals[512][::1] - vals[1024][::2]))
    e2 = np.max(np.abs(vals[1024][::1] - vals[2048][::2]))
    assert e2 < e1 / 4.0  # at least second order; in practice much faster


def test_line_oracle_zero_input():
    zero = lambda x: np.zeros_like(x)
    _, v = triple_bracket_line_oracle(zero, zero, zero, window=40.0, resolution=512)
    assert np.max(np.abs(v)) == 0.0


def test_line_oracle_rejects_boundary_support():
    wide = lambda x: np.exp(-((x - 19.0) / 1.0) ** 2)
    with pytest.raises(ValueError):
        triple_bracket_line_oracle(wide, wide, wide, window=40.0, resolution=512)


def test_triple_identity_on_line_oracle():
    # h d_a [f, H] d_a g = [h d_a f, H] d_a g + [f, H] d_a (h d_a g) - [h, f; d_a g]
    W = 40.0

    def f(x):
        return np.exp(-((x - 0.5) / 1.4) ** 2)

    def h(x):
        return np.sin(0.7 * x) * np.exp(-(x / 2.2) ** 2)

    def gfun(x):
        return np.exp(-((x + 0.8) / 1.1) ** 2)

    residuals = []
    for n in (512, 1024, 2048):
        x, dcomm = commutator_line_oracle(f, gfun, window=W, resolution=n, derivative=True)
        lhs = h(x) * dcomm
        hgrid = x[1] - x[0]

        def num_deriv(arr):
            return (
                -np.roll(arr, -2) + 8 * np.roll(arr, -1) - 8 * np.roll(arr, 1) + np.roll(arr, 2)
            ) / (12 * hgrid)

        # evaluate the three right-hand terms with the same quadrature
        fd = num_deriv(f(x))
        gd = num_deriv(gfun(x))
        hdF = lambda xx: np.interp(xx, x, h(x) * fd)
        hdG = lambda xx: np.interp(xx, x, h(x) * gd)
        _, t1 = commutator_line_oracle(hdF, gfun, window=W, resolution=n)
        _, t2 = commutator_line_oracle(f, hdG, window=W, resolution=n)
        _, t3 = triple_bracket_line_oracle(h, f, lambda xx: np.interp(xx, x, gd), window=W, resolution=n)
        residuals.append(np.max(np.abs(lhs - (t1 + t2 - t3))))
    assert residuals[-1] < residuals[0]
    assert residuals[-1] < 2e-4


# -- maps ------------------------------------------------------------------------


def test_compose_map_identity_and_shift():
    rng = np.random.default_rng(91)
    g = make_grid(128)
    ident = MonotoneMap.identity(g)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.max(np.abs(compose_map_apply(g, f, ident) - f)) < 1e-12
    s = 0.37
    shift = MonotoneMap(g, np.full(128, s))
    mode = np.exp(3j * g.nodes)
    out = compose_map_apply(g, mode, shift)
    assert np.max(np.abs(out - np.exp(3j * s) * mode)) < 1e-11


def test_chain_rule_under_composition():
    rng = np.random.default_rng(91)
    # d_a (U f) = h_ap * U(d_a f)
    g = make_grid(256)
    m = random_monotone_map(g, rng, amp=0.25)
    f = np.exp(np.cos(g.nodes)) * np.exp(1j * np.sin(g.nodes))
    lhs = g.deriv(compose_map_apply(g, f, m))
    rhs = m.jac * compose_map_apply(g, g.deriv(f), m)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_invert_map_roundtrip():
    g = make_grid(256)
    ident = MonotoneMap.identity(g)
    assert np.max(np.abs(inverse_map(ident).deviation)) < 1e-12
    m = MonotoneMap(g, 0.05 * g.nodes * 0 + 0.3 * np.sin(g.nodes) + 0.1)
    inv = inverse_map(m)
    assert np.max(np.abs(map_at(m, inv.values) - g.nodes)) < 1e-10
    twice = inverse_map(inv)
    assert np.max(np.abs(twice.deviation - m.deviation)) < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(1, 12),
    max_slope=st.floats(0.01, 0.9),
    n=st.sampled_from([64, 128, 256]),
)
# steep maps, |h_ap - 1| = 0.99, whose inverses need six and five Newton
# steps from their seeds: these pin the cap (four leave 3.6e-7 and 5.2e-9)
@example(seed=197, n_modes=9, max_slope=0.99, n=64)
@example(seed=72, n_modes=7, max_slope=0.99, n=64)
def test_map_of_inverse_is_identity(seed, n_modes, max_slope, n):
    # h(h^{-1}(a)) = a for monotone maps with |h_ap - 1| up to 0.9, and the
    # steep examples
    g = make_grid(n)
    m = random_monotone_map(g, np.random.default_rng(seed), n_modes=n_modes, max_slope=max_slope)
    inv = inverse_map(m)
    assert np.max(np.abs(map_at(m, inv.values) - g.nodes)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(1, 12),
    max_slope=st.floats(0.01, 0.9),
    n=st.sampled_from([64, 256]),
)
def test_preimage_meets_the_map_at_random_targets(seed, n_modes, max_slope, n):
    # h(x) = y to rounding at targets anywhere in [-L, 2L), a period either
    # side of [0, L): by the NUFFT that Newton evaluates, and by the direct
    # Fourier sum
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    m = random_monotone_map(g, rng, n_modes=n_modes, max_slope=max_slope)
    L = g.length
    y = rng.uniform(-L, 2 * L, 300)
    x = m.preimage(y)[0]
    assert np.max(np.abs(map_at(m, x) - y)) <= 8 * np.spacing(L)
    direct = x + interpolate_direct(g, m.deviation, x).real
    assert np.max(np.abs(direct - y)) <= 16 * np.spacing(L)


@pytest.mark.parametrize("n", [64, 768])
def test_preimage_pulls_fields_with_the_bits_of_interpolate(n, monkeypatch):
    # fields spread with the map's rows: the same points with or without
    # them, and the fields at any points with the bits of interpolate; at
    # the points of the solve the kernel weights of its last check serve,
    # elsewhere (here the targets) new ones are taken
    g = make_grid(n)
    rng = np.random.default_rng(n)
    m = random_monotone_map(g, rng, n_modes=5, max_slope=0.6)
    y = rng.uniform(-g.length, 2 * g.length, 200)
    fields = [rng.standard_normal(n) for _ in range(3)]
    kernels = []
    kernel = type(g).nufft_kernel

    def counted(self, x):
        kernels.append(np.array(x))
        return kernel(self, x)

    monkeypatch.setattr(type(g), "nufft_kernel", counted)
    x, pull = m.preimage(y, fields)
    checks = len(kernels)
    assert x.tobytes() == m.preimage(y)[0].tobytes()
    for points, new_kernels in ((x, 0), (x.copy(), 0), (y, 1)):
        before = len(kernels)
        assert np.array(pull(points)).tobytes() == g.interpolate(np.array(fields), points).tobytes()
        # interpolate takes one kernel of its own
        assert len(kernels) - before == new_kernels + 1
    assert checks >= 2 and kernels[checks - 1].tobytes() == x.tobytes()


@pytest.mark.parametrize("n", [64, 768])
def test_preimage_pulls_complex_fields_back_complex_with_the_bits_of_interpolate(n):
    # a complex field spreads as its real and then its imaginary row beside
    # the real fields, and comes back complex; each field, at the points of
    # the solve and elsewhere, has the bits of interpolate of it alone
    g = make_grid(n)
    rng = np.random.default_rng(n + 1)
    m = random_monotone_map(g, rng, n_modes=5, max_slope=0.6)
    y = rng.uniform(-g.length, 2 * g.length, 200)
    fields = [rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n),
              np.exp(1j * g.nodes)]
    # fields may come as any iterable, a generator too
    x, pull = m.preimage(y, (f for f in fields))
    assert x.tobytes() == m.preimage(y)[0].tobytes()
    for points in (x, y):
        pulled = pull(points)
        assert [p.dtype for p in pulled] == [f.dtype for f in fields]
        assert [p.tobytes() for p in pulled] == [
            g.interpolate(f, points).tobytes() for f in fields]


def test_preimage_of_the_nodes_is_the_inverse():
    # h(a) = 2 arctan(tan(a/2) e^s) has the inverse 2 arctan(tan(x/2) e^{-s})
    g = make_grid(128)
    s = 0.3

    def flow(a, s):
        x = 2.0 * np.arctan(np.tan(a / 2.0) * np.exp(s))
        return np.where(a > np.pi, x + 2.0 * np.pi, x)

    m = MonotoneMap(g, flow(g.nodes, s) - g.nodes)
    assert np.max(np.abs(m.preimage(g.nodes)[0] - flow(g.nodes, -s))) <= 16 * np.spacing(g.length)


def test_monotonicity_rejection():
    g = make_grid(128)
    with pytest.raises(MonotonicityError):
        MonotoneMap(g, 1.5 * np.sin(g.nodes))


@pytest.mark.parametrize("map_points", [128, 32])
def test_pull_back_refuses_a_map_on_another_grid(map_points):
    # a 64-point field through a map with more points or fewer is refused,
    # not indexed out of range or gathered at the map's points
    g, other = make_grid(64), make_grid(map_points)
    m = MonotoneMap(other, 0.1 * np.sin(other.nodes))
    f = np.cos(g.nodes)
    for apply in (compose_map_apply, hcal_apply, htilcal_apply):
        with pytest.raises(ValueError, match="^the field and the map live on different grids$"):
            apply(g, f, m)


# -- composed Hilbert operators ----------------------------------------------------


def test_hcal_identity_map_is_hilbert():
    rng = np.random.default_rng(91)
    g = make_grid(128)
    ident = MonotoneMap.identity(g)
    f = dealias(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    assert np.max(np.abs(hcal_apply(g, f, ident) - g.hilbert(f))) < 1e-11


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(1, 12),
    max_slope=st.floats(0.01, 0.9),
    n=st.sampled_from([128, 256, 768]),
)
def test_hcal_matches_the_route_through_the_inverse_map(seed, n_modes, max_slope, n):
    # U H U^{-1} f with U^{-1} f = f at the preimages of the nodes, against
    # U^{-1} as the pull-back through the inverse map: the two differ only
    # in the rounding of the inverse's node values (4.9e-15 sup|f| measured)
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    m = random_monotone_map(g, rng, n_modes=n_modes, max_slope=max_slope)
    f = dealias(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    oracle = compose_map_apply(g, g.hilbert(compose_map_apply(g, f, inverse_map(m))), m)
    assert np.max(np.abs(hcal_apply(g, f, m) - oracle)) <= 1e-13 * np.max(np.abs(f))


def test_hcal_matches_singular_quadrature():
    rng = np.random.default_rng(91)
    g = make_grid(256)
    m = random_monotone_map(g, rng, amp=0.25)
    f = np.exp(np.cos(g.nodes)) * np.exp(1j * np.sin(2 * g.nodes))
    composed = hcal_apply(g, f, m)
    quad = hcal_quadrature_oracle(g, f, m)
    assert np.max(np.abs(composed - quad)) < 1e-10


def test_htilcal_jacobian_identity():
    rng = np.random.default_rng(91)
    # Htilcal(h_ap f) = Hcal(f) by construction; check consistency numerically
    g = make_grid(256)
    m = random_monotone_map(g, rng, amp=0.2)
    f = np.exp(1j * np.sin(g.nodes)) * np.cos(g.nodes)
    lhs = htilcal_apply(g, m.jac * f, m)
    rhs = hcal_apply(g, f, m)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_hcal_l2_boundedness_ensemble():
    rng = np.random.default_rng(91)
    # ||Hcal f||_2 <= C ||f||_2 with Jacobians in [1/2, 2]
    g = make_grid(128)
    ratios = []
    for _ in range(30):
        m = random_monotone_map(g, rng, max_slope=0.5)
        jac = m.jac
        assert 0.49 < jac.min() and jac.max() < 2.01
        f = dealias(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        ratios.append(g.l2_norm(hcal_apply(g, f, m)) / g.l2_norm(f))
    print(f"\n  hcal L2 operator-norm samples: max ratio = {max(ratios):.3f}")
    assert max(ratios) < 10.0


def test_hilbert_hcal_difference_scaling():
    rng = np.random.default_rng(91)
    # ||(H - Hcal) f||_2 <= C ||h_ap - 1||_inf ||f||_2 across map amplitudes
    g = make_grid(128)
    f = dealias(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    ratios = []
    for amp in (0.02, 0.05, 0.1, 0.2, 0.35):
        m = MonotoneMap(g, amp * np.sin(g.nodes))
        dev = np.max(np.abs(m.jac - 1.0))
        diff = g.l2_norm(g.hilbert(f) - hcal_apply(g, f, m))
        ratios.append(diff / (dev * g.l2_norm(f)))
    print(f"\n  (H - Hcal) scaling ratios: {['%.3f' % r for r in ratios]}")
    assert max(ratios) < 10.0


def test_map_keeps_its_jacobian():
    rng = np.random.default_rng(91)
    g = make_grid(128)
    m = random_monotone_map(g, rng)
    # a new map with the same deviation computes its own
    twin = MonotoneMap(g, m.deviation.copy())
    assert twin.jac is not m.jac
    assert np.array_equal(twin.jac, m.jac)


def test_map_takes_a_jacobian_as_data():
    # a given Jacobian is the map's, checked for shape, finiteness and the
    # floor; without one the map derives 1 + dev'
    g = make_grid(64)
    dev = 0.3 * np.sin(g.nodes)
    jac = 1.0 + 0.3 * np.cos(g.nodes)
    m = MonotoneMap(g, dev, jac)
    assert np.array_equal(m.jac, jac)
    assert np.max(np.abs(MonotoneMap(g, dev).jac - jac)) < 1e-14
    with pytest.raises(ValueError, match="Jacobian length"):
        MonotoneMap(g, dev, jac[:-1])
    with pytest.raises(ValueError, match="map Jacobian contains non-finite"):
        MonotoneMap(g, dev, np.where(g.nodes > 1.0, np.nan, jac))
    with pytest.raises(MonotonicityError, match="below floor"):
        MonotoneMap(g, dev, jac - 1.0)


def test_maps_compare_by_type_grid_and_bytes():
    g = make_grid(64)
    m = MonotoneMap(g, 0.3 * np.sin(g.nodes))
    assert same(m, MonotoneMap(g, m.deviation.copy(), m.jac.copy()))
    # a map that differs from m only in its Jacobian, by one ulp at one node
    jac = m.jac.copy()
    jac[3] = np.nextafter(jac[3], 2.0)
    assert not same(m, MonotoneMap(g, m.deviation, jac))
    assert not same(m, MonotoneMap(make_grid(64, 2.0 * np.pi + 1e-9), m.deviation, m.jac))
    assert not same(m, InverseFlowMap(g, m.deviation, m.jac))


def test_preimage_refuses_to_return_unconverged_points(monkeypatch):
    # a strongly deformed map (h_ap from 0.1 to 1.9) needs several Newton
    # steps; with one allowed, the solve names its largest residual
    g = make_grid(128)
    m = MonotoneMap(g, 0.9 * np.sin(g.nodes))
    y = np.linspace(0.0, 2.0 * np.pi, 37)
    x = m.preimage(y)[0]
    assert np.max(np.abs(map_at(m, x) - y)) < 1e-12
    monkeypatch.setattr(brackets, "NEWTON_CAP", 1)
    with pytest.raises(MonotonicityError,
                       match=r"^preimage not converged after 1 Newton steps: largest residual "):
        m.preimage(y)


@pytest.mark.parametrize("n", [64, 256, 1152])
def test_preimage_of_targets_periods_away_stops_at_their_rounding_floor(n):
    # targets 16 periods out, near 107, have an ulp of 1.4e-14, above the
    # stop of 8 spacing(L) = 7.1e-15; after NEWTON_CAP steps the solve
    # takes its last iterate, which is within the rounding of the targets
    # and of the coordinate, and is the solve of the same targets a period
    # in, shifted
    g = make_grid(n)
    m = MonotoneMap(g, 0.9 * np.sin(g.nodes))
    shift = 16 * g.length
    y = g.nodes + 0.3 + shift
    x = m.preimage(y)[0]
    floor = np.spacing(np.max(y)) + 0.9 * np.max(np.abs(x)) * np.finfo(np.float64).eps
    assert np.max(np.abs(x + m.grid.interpolate(m.deviation, x) - y)) <= 8 * floor
    assert np.max(np.abs((x - shift) - m.preimage(y - shift)[0])) <= 8 * floor


def test_preimage_raises_when_its_residual_grows():
    # a Jacobian that is not the map's, 0.3 where h_ap reaches 1.9, makes
    # Newton overshoot: the residual grows far above the rounding floor and
    # the solve raises at the cap
    g = make_grid(64)
    m = MonotoneMap(g, 0.9 * np.sin(g.nodes), np.full(64, 0.3))
    with pytest.raises(MonotonicityError, match=r"^preimage not converged after 8 Newton steps"):
        m.preimage(g.nodes + 0.3)


@pytest.mark.parametrize("cls", [MonotoneMap, InverseFlowMap])
def test_replacing_the_deviation_with_no_jacobian_derives_the_new_one(cls):
    # replace keeps every field it is not given, the old jac too, so a new
    # deviation comes with jac=None and the map derives 1 + D dev again
    g = make_grid(64)
    old = cls(g, 0.1 * np.sin(g.nodes))
    new = replace(old, deviation=0.3 * np.sin(g.nodes), jac=None)
    assert np.array_equal(new.jac, 1.0 + g.deriv(new.deviation).real)
    assert same(new, cls(g, 0.3 * np.sin(g.nodes))) and not same(new, old)
