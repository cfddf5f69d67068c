import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from crestwave import evolution, spectral
from crestwave.brackets import MonotoneMap
from crestwave.errors import (
    CFLViolationError,
    DegenerateJacobianError,
    HolomorphicityError,
)
from crestwave.evolution import (
    StepperConfig,
    cfl_bound,
    compute_derived,
    derive_states,
    flat_state,
    make_state,
    plan_steps,
    rk4,
    seed_angle,
    step_rk4,
    zero_tension_twin,
)
from crestwave.pair import PairRunSpec, PairState, build_pair, co_step, init_pair, twin_pair
from crestwave.spectral import make_grid, same_bytes

from helpers import (
    evolve_series,
    material_derivative_fd,
    random_real_field,
    random_smooth_state,
    refine_state,
    rolled_pair,
    rolled_state,
)
from oracles import (
    continue_angle,
    curvature_geometric,
    dealias,
    derived_unbatched,
    inverse_map,
    rhs_eulerian,
    rk4_by_blocks,
    seed_angle_unwrapped,
)


# -- derived fields ------------------------------------------------------------


def test_flat_rest_state_derived():
    g = make_grid(128)
    d = compute_derived(flat_state(g, sigma=0.02))
    assert np.max(np.abs(d.b)) == 0.0
    assert np.max(np.abs(d.A1 - 1.0)) < 1e-14
    assert np.max(np.abs(d.Theta)) < 1e-14
    assert np.max(np.abs(d.Ztt)) < 1e-14
    assert np.max(np.abs(d.omega - 1.0)) < 1e-14


def test_single_velocity_mode_closed_form():
    g = make_grid(128)
    a = g.nodes
    delta = 0.2 - 0.1j
    st = make_state(g, np.zeros(128, complex), np.ones(128, complex),
                    np.conj(delta * np.exp(-1j * a)), 0.0)
    d = compute_derived(st)
    assert np.max(np.abs(d.A1 - (1.0 + abs(delta) ** 2))) < 1e-13
    assert np.max(np.abs(d.b - 2 * np.real(np.conj(delta) * np.exp(1j * a)))) < 1e-13
    assert d.a1_route_gap < 1e-12


def test_theta_perturbation_oracle():
    g = make_grid(128)
    a = g.nodes
    mu = 1e-5
    Zp = 1 + mu * np.exp(-1j * a)
    st = make_state(g, 1j * mu * np.exp(-1j * a), Zp, np.zeros(128, complex), 0.0)
    d = compute_derived(st)
    assert np.max(np.abs(d.Theta + mu * np.exp(-1j * a))) < 10 * mu ** 2
    assert d.theta_route_gap < 1e-12


def test_degenerate_jacobian_rejected():
    g = make_grid(64)
    Zp = np.ones(64, complex)
    Zp[3] = 1e-10
    st = make_state(g, np.zeros(64, complex), Zp, np.zeros(64, complex), 0.0)
    with pytest.raises(DegenerateJacobianError):
        compute_derived(st)
    # the refused state keeps no fields, so it is refused again
    assert "derived" not in st._memo
    with pytest.raises(DegenerateJacobianError):
        compute_derived(st)


def test_derived_fields_are_kept_on_the_state():
    rng = np.random.default_rng(7)
    g = make_grid(64)
    st = random_smooth_state(g, rng)
    d = compute_derived(st)
    assert compute_derived(st) is d
    # a replaced state starts with an empty store
    moved = replace(st, Zt=2.0 * st.Zt)
    assert compute_derived(moved) is not d
    assert np.array_equal(compute_derived(moved).Ztap, 2.0 * d.Ztap)


def _rough_state(grid, rng, sigma):
    """A state with every Fourier mode of Z_ap and Z_t occupied."""
    n = grid.n
    Zp = 1.0 + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    Zt = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return make_state(grid, np.zeros(n, complex), Zp, Zt, sigma)


@pytest.mark.parametrize("n", [256, 768])
def test_derived_fields_match_the_unbatched_oracle_bit_for_bit(n):
    rng = np.random.default_rng(n)
    g = make_grid(n)
    states = [_rough_state(g, rng, sigma) for sigma in (0.0, 1e-2, 0.0, 3e-3)]
    # one state at a time, and the four as one stack with mixed sigma
    singles = [compute_derived(replace(st)) for st in states]
    stacked = derive_states([replace(st) for st in states])
    for st, one, row in zip(states, singles, stacked):
        for name, ref in derived_unbatched(st).items():
            # bytes, so that signed zeros count too
            for got in (getattr(one, name), getattr(row, name)):
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (st.sigma, name)


def test_derive_states_checks_every_state_before_deriving():
    g = make_grid(64)
    rng = np.random.default_rng(64)
    good = _rough_state(g, rng, 1e-2)
    Zp = np.ones(64, complex)
    Zp[5] = 1e-12
    bad = make_state(g, np.zeros(64, complex), Zp, np.zeros(64, complex), 0.0)
    with pytest.raises(DegenerateJacobianError, match=r"^\[b\] min \|Z_ap\| = 1\.000e-12"):
        derive_states((good, bad), prefixes=("[a] ", "[b] "))
    assert "derived" not in good._memo


def test_curvature_routes_agree():
    rng = np.random.default_rng(7)
    g = make_grid(256)
    st = random_smooth_state(g, rng)
    d = compute_derived(st)
    kappa = d.Theta.real
    kappa_geo = curvature_geometric(st)
    assert np.max(np.abs(kappa - kappa_geo)) < 1e-10
    mu = 1e-4
    st2 = make_state(g, 1j * mu * np.exp(-1j * g.nodes), 1 + mu * np.exp(-1j * g.nodes),
                     np.zeros(256, complex), 0.0)
    k2 = compute_derived(st2).Theta.real
    assert abs(np.max(np.abs(k2)) - mu) < 10 * mu ** 2


# -- static identity suite -------------------------------------------------------


def _identity_residuals(state):
    """Pointwise residuals of the stationary field identities."""
    g = state.grid
    d = compute_derived(state)
    inv = 1.0 / state.Zp
    abs_Zp = np.abs(state.Zp)
    q = d.omega * g.deriv(inv)
    res = {}
    res["real_part"] = np.max(np.abs(q.real - g.deriv(1.0 / abs_Zp).real))
    res["imag_part"] = np.max(np.abs(q.imag + d.Theta.real))
    res["a1_routes"] = d.a1_route_gap
    res["theta_routes"] = d.theta_route_gap
    # b_ap formula versus the spectral derivative of b
    ratio = state.Zt * inv
    bap_formula = (
        g.deriv(state.Zt) * inv
        + state.Zt * g.deriv(inv)
        - 1j * g.deriv(ratio.imag + g.hilbert(ratio.imag))
    )
    res["b_ap"] = np.max(np.abs(g.deriv(d.b).real - bap_formula))
    # acceleration cross-route: sigma D_a Theta versus the system form
    Ztt_bar_cross = 1j - 1j * d.A1 * inv + state.sigma * inv * g.deriv(d.Theta)
    res["ztt_routes"] = np.max(np.abs(np.conj(d.Ztt) - Ztt_bar_cross))
    return res


def test_identity_suite_smoke():
    rng = np.random.default_rng(7)
    g = make_grid(256)
    for sigma in (0.0, 1e-2):
        st = random_smooth_state(g, rng, sigma=sigma)
        for name, val in _identity_residuals(st).items():
            assert val < 1e-8, (name, val)


# -- right-hand side and stepping ---------------------------------------------


def test_flat_rhs_zero():
    g = make_grid(128)
    for sigma in (0.0, 0.1):
        out = rhs_eulerian(flat_state(g, sigma))
        assert all(np.max(np.abs(x)) == 0.0 for x in out)


def test_flat_equilibrium_stepping():
    g = make_grid(128)
    cfg = StepperConfig()
    for sigma in (0.0, 1e-2):
        st = flat_state(g, sigma)
        dt = 0.5 * cfl_bound(st)
        for _ in range(200):
            st = step_rk4(st, cfg, dt)
        assert np.max(np.abs(st.Zp - 1.0)) < 1e-13
        assert np.max(np.abs(st.Zt)) < 1e-13


SIGMA_FREE = ("b", "A1", "omega", "Ztap", "flux", "flux_ap", "min_abs_Zp")


@pytest.mark.parametrize("sigma_a", [1e-2, 0.0])
def test_a_twin_takes_the_sigma_free_fields_of_its_state(sigma_a):
    # the twin of a is replace(a, sigma=0.0), which takes a's
    # sigma-free fields and forms its own Z_tt, whether a was derived
    # before or not
    g = make_grid(128)
    rng = np.random.default_rng(128)
    a = _rough_state(g, rng, sigma_a)
    for derived_before in (False, True):
        state = replace(a)
        if derived_before:
            compute_derived(state)
        twin = zero_tension_twin(state, "")
        assert twin == replace(a, sigma=0.0)
        der_a, der_b = compute_derived(state), compute_derived(twin)
        for name in SIGMA_FREE:
            assert getattr(der_b, name) is getattr(der_a, name), name
        for st, der in ((state, der_a), (twin, der_b)):
            lone = compute_derived(replace(st))
            for name in (f.name for f in fields(evolution.DerivedFields) if f.name != "grid"):
                got, ref = np.asarray(getattr(der, name)), np.asarray(getattr(lone, name))
                assert got.tobytes() == ref.tobytes(), (st.sigma, name)


def test_states_that_are_no_twin_derive_as_before():
    # copies of a's arrays, a capillary state with a's arrays, and
    # replace(a, sigma=0.0) itself, which zero_tension_twin alone derives as
    # a twin, each take their own row
    g = make_grid(128)
    rng = np.random.default_rng(129)
    a = _rough_state(g, rng, 1e-2)
    for b in (replace(a, sigma=0.0),
              replace(a, sigma=0.0, Zp=a.Zp.copy(), Zt=a.Zt.copy()),
              replace(a, sigma=0.0, Zt=a.Zt.copy()),
              replace(a, Zp=a.Zp.copy()),
              replace(a, sigma=3e-2)):
        der_a, der_b = derive_states((replace(a), b))
        assert der_b.A1 is not der_a.A1
        for st, der in ((a, der_a), (b, der_b)):
            for name, ref in derived_unbatched(st).items():
                got = np.asarray(getattr(der, name))
                assert got.tobytes() == np.asarray(ref).tobytes(), (st.sigma, name)


@pytest.mark.parametrize("sigma_a", [1e-2, 0.0])
def test_a_degenerate_twin_fails_with_the_tag_of_its_state_first(sigma_a):
    g = make_grid(64)
    Zp = np.ones(64, complex)
    Zp[5] = 1e-12
    a = make_state(g, np.zeros(64, complex), Zp, np.zeros(64, complex), sigma_a)
    with pytest.raises(DegenerateJacobianError, match=r"^\[a\] min \|Z_ap\| = 1\.000e-12"):
        zero_tension_twin(a, "[a] ")
    assert "derived" not in a._memo
    with pytest.raises(DegenerateJacobianError, match=r"^\[solution a\] min \|Z_ap\|"):
        twin_pair(a)


@pytest.mark.parametrize("t_final, min_steps, message", [
    (-0.05, 4, "t_final must be finite and positive, got -0.05"),
    (0.0, 4, "t_final must be finite and positive, got 0.0"),
    (float("nan"), 4, "t_final must be finite and positive, got nan"),
    (float("inf"), 4, "t_final must be finite and positive, got inf"),
    (0.25, 0, "min_steps must be >= 1, got 0"),
    (0.25, -3, "min_steps must be >= 1, got -3"),
])
def test_plan_steps_refuses_a_run_that_is_not_forward(t_final, min_steps, message):
    # such a t_final used to plan a backward run, divide by zero or fail to
    # convert a NaN, and min_steps = 0 to divide by zero
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        plan_steps(1.0, t_final, 0.5, min_steps, 1000)


@pytest.mark.parametrize("dt", [-0.0125, 0.0, -0.0, float("nan")])
def test_steps_refuse_a_dt_that_is_not_positive(monkeypatch, dt):
    # advance used to accept any dt <= bound, so a negative one ran backward
    pair = build_pair(PairRunSpec(sigma=1e-3, epsilon=0.5, n_points=64))
    stages = []
    monkeypatch.setattr(evolution, "rk4", lambda *args: stages.append(args))
    with pytest.raises(CFLViolationError, match=r"^dt = \S+ is not positive$"):
        step_rk4(pair.state_b, StepperConfig(), dt)
    with pytest.raises(CFLViolationError, match=r"^\[solution a\] dt = \S+ is not positive$"):
        co_step(pair, StepperConfig(), dt)
    assert stages == []


def test_cfl_violation_raises():
    g = make_grid(128)
    st = flat_state(g, 1e-2)
    with pytest.raises(CFLViolationError):
        step_rk4(st, StepperConfig(), 100.0 * cfl_bound(st))


def test_advance_refuses_a_capillary_state_behind_a_sigma_zero_one():
    # the capillary transforms run on the leading rows only, so (b, a) would
    # step a without its surface tension (1.0e-4 off in Z_t after one step)
    g = make_grid(128)
    b = random_smooth_state(g, np.random.default_rng(8), amp=0.1)
    a = replace(b, sigma=0.01)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(a), cfl_bound(b))
    with pytest.raises(ValueError, match=r"capillary states \(sigma != 0\) must come first"):
        evolution.advance((b, a), cfg, dt)
    (new_a, new_b), _ = evolution.advance((a, b), cfg, dt)
    for new, old in ((new_a, a), (new_b, b)):
        assert np.max(np.abs(new.Zt - step_rk4(old, cfg, dt).Zt)) < 1e-14


def test_steps_refuse_a_nan_surface_tension(monkeypatch):
    # replace bypasses make_state; the CFL check must refuse the NaN bound
    # before any RK4 stage runs
    g = make_grid(64)
    st = random_smooth_state(g, np.random.default_rng(11), sigma=1e-2, amp=0.1)
    dt = 0.4 * cfl_bound(st)
    bad = replace(st, sigma=float("nan"))
    assert np.isnan(cfl_bound(bad))
    with pytest.raises(CFLViolationError, match="bound = nan"):
        plan_steps(cfl_bound(bad), 1.0, 0.5, 1, 100)
    stages = []
    monkeypatch.setattr(evolution, "rk4", lambda *args: stages.append(args))
    with pytest.raises(CFLViolationError, match="bound = nan"):
        step_rk4(bad, StepperConfig(), dt)
    pair = init_pair(bad, replace(st, sigma=0.0))
    with pytest.raises(CFLViolationError, match=r"^\[solution a\] .*bound = nan"):
        co_step(pair, StepperConfig(), dt)
    assert stages == []


def test_holomorphicity_guard_refuses_a_nan_mass(monkeypatch):
    # a NaN removed mass of Zbar_t beside a finite one of Z_ap - 1
    g = make_grid(64)
    st = random_smooth_state(g, np.random.default_rng(12), sigma=1e-2, amp=0.1)
    finish = evolution._finish

    def nan_mass_of_zbar_t(grid, y, m):
        out, mass = finish(grid, y, m)
        mass[1, -1] = np.nan
        return out, mass

    monkeypatch.setattr(evolution, "_finish", nan_mass_of_zbar_t)
    with pytest.raises(HolomorphicityError, match="mass nan of Zbar_t"):
        step_rk4(st, StepperConfig(), 0.4 * cfl_bound(st))


def test_steps_leave_their_input_states_and_maps_as_they_were():
    # the finish writes over the stack that rk4 returns, never over what a
    # step is given: the arrays of the states, of their kept derived fields
    # and of the maps keep their bytes; the states and maps of a co_step
    # are views of its finish's array, and are stepped again here
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    pair = co_step(pair, cfg, dt)
    derived = derive_states((pair.state_a, pair.state_b))
    held = (pair.state_a, pair.state_b, *derived, pair.k_a, pair.k_b)
    arrays = [v for x in held for v in vars(x).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2 * 3 + 2 * 9 + 2 * 2
    before = [a.copy() for a in arrays]
    step_rk4(pair.state_a, cfg, dt)
    step_rk4(pair.state_b, cfg, dt)
    co_step(pair, cfg, dt)
    assert same_bytes(arrays, before)


@pytest.mark.parametrize("bad", [{"sigma": float("nan")}, {"sigma": float("inf")},
                                 {"time": float("nan")}, {"time": float("inf")}])
def test_make_state_refuses_non_finite_sigma_or_time(bad):
    g = make_grid(16)
    st = flat_state(g)
    args = {"sigma": 0.0, "time": 0.0, **bad}
    with pytest.raises(ValueError, match="finite"):
        make_state(g, st.Zdev, st.Zp, st.Zt, **args)


def test_rk4_self_convergence_order():
    rng = np.random.default_rng(7)
    g = make_grid(128)
    st0 = random_smooth_state(g, rng, sigma=1e-2, amp=0.1)
    dt0 = 0.5 * cfl_bound(st0)
    finals = {}
    for div in (1, 2, 4):
        st = st0
        cfg = StepperConfig()
        dt = dt0 / div
        for _ in range(16 * div):
            st = step_rk4(st, cfg, dt)
        finals[div] = st
    e1 = np.max(np.abs(finals[1].Zp - finals[2].Zp))
    e2 = np.max(np.abs(finals[2].Zp - finals[4].Zp))
    assert 10.0 < e1 / e2 < 24.0


def test_energy_continuity_over_steps():
    rng = np.random.default_rng(7)
    from crestwave.energies import energy_sigma

    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=1e-2, amp=0.08)
    states, _ = evolve_series(st, 100)
    totals = [energy_sigma(s).total for s in states]
    assert all(np.isfinite(t) for t in totals)
    jumps = np.abs(np.diff(np.array(totals))) / (np.abs(np.array(totals[:-1])) + 1e-30)
    assert np.max(jumps) < 0.05


# -- dynamic identities -----------------------------------------------------------


def dynamic_identity_residuals(st0, n_steps, dt):
    """Residuals of the material-derivative identities at the midpoint time
    of a run, using centered time differences (O(dt^2) probes)."""
    g = st0.grid
    states, _ = evolve_series(st0, n_steps, dt=dt)
    i = n_steps // 2
    prev_, mid, next_ = states[i - 1], states[i], states[i + 1]
    d = compute_derived(mid)
    b_ap = g.deriv(d.b).real
    res = {}
    # D_t g = -Im( (1/Zbar_ap) d_a Zbar_t ), g the branch of arg(Z_ap) that
    # each state derives from its own Z_ap (seed_angle)
    lhs = material_derivative_fd(g, prev_.g, next_.g, d.b, mid.g, dt).real
    rhs = -(g.deriv(np.conj(mid.Zt)) / np.conj(mid.Zp)).imag
    res["Dtg"] = float(np.max(np.abs(lhs - rhs)))
    # D_t |Z_ap| = |Z_ap| (Re D_a Z_t - b_ap)
    lhs = material_derivative_fd(
        g, np.abs(prev_.Zp), np.abs(next_.Zp), d.b, np.abs(mid.Zp), dt
    ).real
    rhs = np.abs(mid.Zp) * ((d.Ztap / mid.Zp).real - b_ap)
    res["DtZapabs"] = float(np.max(np.abs(lhs - rhs)))
    # D_t (1/Z_ap) = -(1/Z_ap)(D_a Z_t - b_ap)
    lhs = material_derivative_fd(g, 1 / prev_.Zp, 1 / next_.Zp, d.b, 1 / mid.Zp, dt)
    rhs = -(1 / mid.Zp) * (d.Ztap / mid.Zp - b_ap)
    res["DtoneoverZap"] = float(np.max(np.abs(lhs - rhs)))
    # [d_a, D_t] f = b_ap d_a f on the probe f = Zbar_t; with the centered
    # material derivative the time parts commute with d_a exactly, so this
    # residual sits at rounding level independent of dt
    probe = [np.conj(s.Zt) for s in (prev_, mid, next_)]
    dt_f = material_derivative_fd(g, probe[0], probe[2], d.b, probe[1], dt)
    dt_df = material_derivative_fd(
        g, g.deriv(probe[0]), g.deriv(probe[2]), d.b, g.deriv(probe[1]), dt
    )
    comm = g.deriv(dt_f) - dt_df
    res["commutator"] = float(np.max(np.abs(comm - b_ap * g.deriv(probe[1]))))
    return res


def test_dynamic_identities_second_order():
    rng = np.random.default_rng(7)
    g = make_grid(128)
    st0 = random_smooth_state(g, rng, sigma=0.0, amp=0.15)
    dt = 0.25 * cfl_bound(st0)
    coarse = dynamic_identity_residuals(st0, 8, dt)
    fine = dynamic_identity_residuals(st0, 16, dt / 2)
    for name in ("Dtg", "DtZapabs", "DtoneoverZap"):
        ratio = coarse[name] / fine[name]
        assert 3.2 < ratio < 4.8, (name, ratio, coarse[name], fine[name])
    assert coarse["commutator"] < 1e-10
    assert fine["commutator"] < 1e-10


@pytest.mark.parametrize("case", ["capillary", "gravity", "crest_pair"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=hst.integers(0, 2**32 - 1), amp=hst.floats(0.02, 0.12))
def test_stacked_rk4_steps_as_its_blocks_would_alone(case, seed, amp):
    # advance combines its RK4 stages on one stack of the rows Zdev | Z_ap |
    # Z_t (| packed map rows); combined block by block instead, by numpy
    # calls of each block's own, 20 steps give the same bytes: the states,
    # and for the pair its maps
    rng = np.random.default_rng(seed)
    if case == "crest_pair":
        phase = np.exp(2j * np.pi * rng.random())
        spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.5j * amp * phase,
                           n_points=128)
        x0 = build_pair(spec)
        step, bounds = co_step, (2, 4, 6)
        dt = 0.3 * min(cfl_bound(x0.state_a), cfl_bound(x0.state_b))
    else:
        x0 = random_smooth_state(make_grid(128), rng, sigma=1e-2 if case == "capillary" else 0.0,
                                 amp=amp)
        step, bounds = step_rk4, (1, 2)
        dt = 0.3 * cfl_bound(x0)
    cfg = StepperConfig()
    stacked = [x0]
    for _ in range(20):
        stacked.append(step(stacked[-1], cfg, dt))
    calls = []

    def by_blocks(y0, rhs, dt, k1):
        calls.append(y0.shape)
        return rk4_by_blocks(y0, rhs, dt, k1, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "rk4", by_blocks)
        x = x0
        for expected in stacked[1:]:
            x = step(x, cfg, dt)
            assert x == expected
    # one stack per step, whose last block (Z_t of one state, or the packed
    # row of two maps) is one row
    assert calls == [(bounds[-1] + 1, 128)] * 20


# -- Lagrangian map advance by the shared RK4 ---------------------------------------


def advance_map(map_, b_field, dt):
    """RK4 step of dh/dt = b(h) for a time-frozen drift field."""
    g = map_.grid

    def drift(y):
        return g.interpolate(b_field, g.nodes + y)

    y0 = map_.deviation
    return MonotoneMap(g, rk4(y0, drift, dt, drift(y0)))


def test_advance_map_trivial_flows():
    g = make_grid(128)
    ident = MonotoneMap.identity(g)
    out = advance_map(ident, np.zeros(128), 0.1)
    assert np.max(np.abs(out.deviation)) == 0.0
    out = advance_map(ident, np.full(128, 0.7), 0.2)
    assert np.max(np.abs(out.deviation - 0.14)) < 1e-14


def test_advance_map_sine_flow_characteristics():
    # dh/dt = sin(h): exact solution via separable integration
    g = make_grid(256)
    b = np.sin(g.nodes)
    m = MonotoneMap.identity(g)
    dt, n = 0.01, 40
    for _ in range(n):
        m = advance_map(m, b, dt)
    t = dt * n
    exact = 2.0 * np.arctan(np.tan(g.nodes / 2.0) * np.exp(t))
    # principal branch fixup for nodes past pi
    exact = np.where(g.nodes > np.pi, exact + 2 * np.pi, exact)
    assert np.max(np.abs(m.values - exact)) < 1e-9
    assert float(np.min(m.jac)) > 0.0


# -- inverse maps transported on the grid, as advance steps them -------------------


def transport_map(k, b_field, dt):
    """RK4 step of k_t + b k_x = 0 for a time-frozen drift field, as advance
    steps its map rows: the deviation moves at the rate -b (1 + D k_dev),
    and the step ends with the dealias filter of its finish."""
    g = k.grid

    def rate(y):
        return -b_field * (1.0 + g.deriv(y).real)

    dev = rk4(k.deviation, rate, dt, rate(k.deviation))
    return MonotoneMap(g, dealias(g, dev).real)


def _sine_flow_maps(dt, n_steps):
    """(h, k) after n_steps steps of dt in the frozen drift b = sin x: h by
    advance_map, k = h^{-1} by transport_map, both from the identity."""
    g = make_grid(256)
    b = np.sin(g.nodes)
    h = k = MonotoneMap.identity(g)
    for _ in range(n_steps):
        h = advance_map(h, b, dt)
        k = transport_map(k, b, dt)
    return h, k


def test_transported_inverse_map_of_the_sine_flow_is_exact():
    # h = 2 arctan(tan(a/2) e^t) solves dh/dt = sin h, so its inverse is
    # k(x, t) = 2 arctan(tan(x/2) e^{-t})
    dt, n = 0.01, 40
    h, k = _sine_flow_maps(dt, n)
    g = k.grid
    exact = 2.0 * np.arctan(np.tan(g.nodes / 2.0) * np.exp(-dt * n))
    # principal branch fixup for nodes past pi
    exact = np.where(g.nodes > np.pi, exact + 2 * np.pi, exact)
    assert np.max(np.abs(k.values - exact)) < 1e-9
    # the Lagrangian and the transported maps are each other's inverses to
    # within the RK4 time error, measured here by halving dt
    _, k_half = _sine_flow_maps(dt / 2, 2 * n)
    time_error = np.max(np.abs(k.deviation - k_half.deviation))
    gap = np.max(np.abs(inverse_map(h).deviation - k.deviation))
    assert 1e-12 < time_error < 1e-9
    assert gap <= 2.0 * time_error, (gap, time_error)


def test_co_step_maps_invert_the_lagrangian_maps_of_its_stage_drifts(monkeypatch):
    # the drift of every RK4 stage of co_step, recorded, moves Lagrangian
    # maps h_t = b o h by the interpolating RK4 of advance_map; co_step's
    # k_a and k_b are their inverses to within the time error
    st = random_smooth_state(make_grid(128), np.random.default_rng(21), amp=0.15)
    pair = init_pair(replace(st, sigma=1e-2), st)
    g = pair.state_a.grid
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    drifts = []
    derive = evolution._derive

    def recorded(*args):
        fields = derive(*args)
        drifts.append(fields[0])
        return fields

    monkeypatch.setattr(evolution, "_derive", recorded)
    h = np.zeros((2, g.n))
    for _ in range(20):
        b1 = np.array([d.b for d in derive_states((pair.state_a, pair.state_b))])
        drifts.clear()
        pair = co_step(pair, cfg, dt)
        b2, b3, b4 = drifts

        def rate(b, y):
            return np.array([g.interpolate(b_r, g.nodes + y_r) for b_r, y_r in zip(b, y)])

        r1 = rate(b1, h)
        r2 = rate(b2, h + 0.5 * dt * r1)
        r3 = rate(b3, h + 0.5 * dt * r2)
        r4 = rate(b4, h + dt * r3)
        h = h + (dt / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    for k, h_dev in zip((pair.k_a, pair.k_b), h):
        assert np.max(np.abs(h_dev)) > 1e-3
        # 7.5e-11 measured
        assert np.max(np.abs(inverse_map(k).deviation - h_dev)) < 1e-9


def test_refine_state_preserves_fields():
    rng = np.random.default_rng(7)
    g = make_grid(64)
    st = random_smooth_state(g, rng, amp=0.1)
    st2 = refine_state(st, 128)
    assert st2.grid.n == 128
    assert np.max(np.abs(st2.Zp[::2] - st.Zp)) < 1e-12


# -- the branch of arg(Z_ap) ---------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n_modes=hst.integers(1, 4),
    height=hst.floats(1.2, 3.0),
)
def test_seed_angle_of_a_row_winding_past_pi(seed, n_modes, height):
    # Z_ap = r exp(i theta) with theta of zero mean and height pi * height,
    # so its principal angle wraps past +-pi while arg winds zero times; by
    # Bernstein, 4 modes of height 3 pi move at most 0.93 between the 256
    # nodes
    grid = make_grid(256)
    rng = np.random.default_rng(seed)
    theta = random_real_field(grid, rng, n_modes=n_modes)
    theta -= theta.mean()
    theta *= np.pi * height / np.max(np.abs(theta))
    Zp = np.exp(0.3 * random_real_field(grid, rng, n_modes=n_modes) + 1j * theta)
    raw = np.angle(Zp)
    assert np.max(np.abs(np.diff(raw))) > np.pi
    g = seed_angle(Zp)
    assert np.max(np.abs(np.diff(np.append(g, g[0])))) < np.pi
    anchor = int(np.argmin(np.abs(Zp - 1.0)))
    assert g[anchor] == raw[anchor]
    # g = raw + 2 pi k rounds once, off by half an ulp of g and k times the
    # error of the double 2 pi; exp and the angle add a few 1e-16
    err = np.abs(np.exp(1j * g) - Zp / np.abs(Zp))
    assert np.all(err <= 1e-15 + 4.0 * np.spacing(np.abs(g)))
    # the same whole turns as the np.unwrap form, whose rounded corrections
    # leave it about 1e-15 off: continued from it, or from g itself, the
    # branch lands on g bit for bit
    for prev in (seed_angle_unwrapped(Zp), g):
        assert continue_angle(Zp, prev).tobytes() == g.tobytes()


def test_seed_angle_of_a_stack_is_that_of_each_row():
    # rows that wind past +-pi and rows that do not, each as seeded alone
    grid = make_grid(256)
    rng = np.random.default_rng(11)
    rows = []
    for height in (0.5, 2.0, 3.0):
        theta = random_real_field(grid, rng, n_modes=4)
        theta *= np.pi * height / np.max(np.abs(theta - theta.mean()))
        rows.append(np.exp(0.3 * random_real_field(grid, rng, n_modes=4) + 1j * theta))
    stack = np.array(rows)
    for row, seeded in zip(stack, seed_angle(stack), strict=True):
        assert seeded.tobytes() == seed_angle(row).tobytes()


def test_a_stepped_state_hands_its_floor_minimum_to_its_derive():
    # advance keeps the min |Z_ap| of its post-step check on each new state,
    # and the derive of that state takes it instead of reducing |Z_ap| once
    # more (a planted value shows which it reads); a state from elsewhere
    # reduces its own
    rng = np.random.default_rng(3)
    st = random_smooth_state(make_grid(64), rng, sigma=1e-2, amp=0.1)
    new = step_rk4(st, StepperConfig(), 0.3 * cfl_bound(st))
    kept = new._memo["min_abs_Zp"]
    assert kept == float(np.abs(new.Zp).min())
    assert compute_derived(replace(new)).min_abs_Zp == kept
    new._memo["min_abs_Zp"] = 0.5
    assert compute_derived(new).min_abs_Zp == 0.5
    assert "min_abs_Zp" not in new._memo


# -- the step's plumbing against numpy, a symmetry and call order --------------------

# a part of a complex number: +0.0, or a magnitude in [1e-150, 1e150] of
# either sign, so that no part of z / |z| underflows
_PART = hst.one_of(hst.just(0.0), hst.floats(1e-150, 1e150), hst.floats(-1e150, -1e-150))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts=hst.lists(hst.tuples(_PART, _PART).filter(any), min_size=1, max_size=40))
def test_omega_by_a_real_reciprocal_is_the_complex_quotient_bit_for_bit(parts):
    """_derive takes omega = Z_ap / |Z_ap| as Z_ap * (1 / |Z_ap|).  numpy
    divides by a complex number with a zero imaginary part by Smith's
    method: it forms the reciprocal scl = 1 / |z| and multiplies each part,
    (re + im * 0) scl and (im - re * 0) scl, so each part of the quotient
    is one rounding of the product, as in the multiply.  The two differ
    only in the sign of a zero part of the result: at a part of z that is
    -0.0 (for z = -1 - 0j the quotient is -1 + 0j, the product -1 - 0j),
    or at a part whose product underflows to -0.0, which the magnitudes
    drawn here rule out.  Arrays of up to 40 values take numpy's vector
    loops and their tails."""
    z = np.array([complex(re, im) for re, im in parts])
    abs_z = np.abs(z)
    assert same_bytes([z * (1.0 / abs_z)], [z / abs_z])


def _step_arrays(x):
    """The arrays of a state, or of a pair's states and maps."""
    if isinstance(x, PairState):
        return [*_step_arrays(x.state_a), *_step_arrays(x.state_b),
                x.k_a.deviation, x.k_a.jac, x.k_b.deviation, x.k_b.jac]
    return [x.Zdev, x.Zp, x.Zt]


# a step and a roll of the labels commute up to rounding: each array within
# ROLL_TOLERANCE times its size (at least 1); measured at most 4.4e-15 on
# Zdev, whose values reach 2 pi + j dx, and 5e-16 on every other array
ROLL_TOLERANCE = 1e-14


@pytest.mark.parametrize("case", ["capillary", "crest_pair"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=hst.sampled_from([64, 128, 256]), j=hst.integers(1, 255),
       seed=hst.integers(0, 2**32 - 1))
def test_steps_commute_with_a_roll_of_the_labels(case, n, j, seed):
    # the system is autonomous and translation invariant in the label, so
    # stepping a rolled state or pair gives the rolled step; the crest
    # pair is stepped once first, so that its maps are not the identity
    j %= n
    rng = np.random.default_rng(seed)
    cfg = StepperConfig()
    if case == "crest_pair":
        phase = np.exp(2j * np.pi * rng.random())
        x = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.5, velocity_amplitude=0.05j * phase,
                                   n_points=n))
        step, roll = co_step, rolled_pair
        dt = 0.3 * min(cfl_bound(x.state_a), cfl_bound(x.state_b))
        x = co_step(x, cfg, dt)
    else:
        x = random_smooth_state(make_grid(n), rng, sigma=1e-2, amp=0.12)
        step, roll = step_rk4, rolled_state
        dt = 0.3 * cfl_bound(x)
    want = _step_arrays(roll(step(x, cfg, dt), j))
    got = _step_arrays(step(roll(x, j), cfg, dt))
    for a, b in zip(got, want, strict=True):
        assert np.max(np.abs(a - b)) <= ROLL_TOLERANCE * max(1.0, np.max(np.abs(b)))


# the arrays that a derive computes, which derived_unbatched also gives
_DERIVED_ARRAYS = ("b", "A1", "omega", "Ztt", "Ztap", "flux", "flux_ap")


def _fresh(x):
    """x with nothing kept: a state or pair as made, sharing the arrays."""
    if isinstance(x, PairState):
        return PairState(replace(x.state_a), replace(x.state_b), x.k_a, x.k_b)
    return replace(x)


def _derived(states):
    return [getattr(d, name) for d in derive_states(states) for name in _DERIVED_ARRAYS]


def _order_calls():
    """name -> (call, derived states): derives and steps of a capillary
    state, a gravity state and a crest pair on grids of 64 and 128 points,
    each call on fresh copies of its inputs, returning the arrays it gives;
    a derive also names its states."""
    cfg = StepperConfig()
    calls = {}
    for n in (64, 128):
        rng = np.random.default_rng(n)
        grid = make_grid(n)
        for name, sigma in (("capillary", 1e-2), ("gravity", 0.0)):
            st = random_smooth_state(grid, rng, sigma=sigma, amp=0.1)
            dt = 0.3 * cfl_bound(st)
            calls[f"derive {name} {n}"] = (lambda st=st: _derived((_fresh(st),)), (st,))
            calls[f"step {name} {n}"] = (
                lambda st=st, dt=dt: _step_arrays(step_rk4(_fresh(st), cfg, dt)), ())
        pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.5, velocity_amplitude=0.05j,
                                      n_points=n))
        dt = 0.3 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
        pair = co_step(pair, cfg, dt)
        states = (pair.state_a, pair.state_b)
        calls[f"derive pair {n}"] = (
            lambda states=states: _derived(tuple(map(_fresh, states))), states)
        calls[f"co_step {n}"] = (
            lambda pair=pair, dt=dt: _step_arrays(co_step(_fresh(pair), cfg, dt)), ())
    return calls


def test_derives_and_steps_do_not_depend_on_the_calls_before_them():
    # whatever a derive or a step may keep or reuse between calls (today
    # the symbol tables, cached by grid and kinds) must not leak into the
    # next call: each call, interleaved with the others across grids, map
    # counts and sigmas, gives the bytes it gives when it runs first
    calls = _order_calls()
    first = {}
    for name, (call, _) in calls.items():
        spectral._symbol_table.cache_clear()
        first[name] = call()
    names = list(calls)
    interleaved = names[1::2] + names[::-2] + names[::3] + names
    for name in interleaved:
        assert same_bytes(calls[name][0](), first[name]), name
    for name, (_, states) in calls.items():
        if states:
            want = [ref for st in states
                    for ref in map(derived_unbatched(st).get, _DERIVED_ARRAYS)]
            assert same_bytes(first[name], want), name
