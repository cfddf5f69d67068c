import numpy as np
import pytest

from crestwave.brackets import MonotoneMap
from crestwave.errors import CFLViolationError, DegenerateJacobianError
from crestwave.evolution import (
    StepperConfig,
    cfl_bound,
    compute_derived,
    curvature_field,
    curvature_geometric,
    flat_state,
    make_state,
    refine_state,
    rhs_eulerian,
    rk4,
    step_rk4,
    validate_state,
)
from crestwave.spectral import make_grid

from helpers import evolve_series, material_derivative_fd, random_smooth_state

RNG = np.random.default_rng(7)


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


def test_curvature_routes_agree():
    g = make_grid(256)
    st = random_smooth_state(g, RNG)
    d = compute_derived(st)
    kappa = curvature_field(d)
    kappa_geo = curvature_geometric(st)
    assert np.max(np.abs(kappa - kappa_geo)) < 1e-10
    mu = 1e-4
    st2 = make_state(g, 1j * mu * np.exp(-1j * g.nodes), 1 + mu * np.exp(-1j * g.nodes),
                     np.zeros(256, complex), 0.0)
    k2 = curvature_field(compute_derived(st2))
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
    res["b_ap"] = np.max(np.abs(d.b_ap - bap_formula))
    # acceleration cross-route: sigma D_a Theta versus the system form
    Ztt_bar_cross = 1j - 1j * d.A1 * inv + state.sigma * inv * g.deriv(d.Theta)
    res["ztt_routes"] = np.max(np.abs(np.conj(d.Ztt) - Ztt_bar_cross))
    return res


def test_identity_suite_smoke():
    g = make_grid(256)
    for sigma in (0.0, 1e-2):
        st = random_smooth_state(g, RNG, sigma=sigma)
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


def test_cfl_violation_raises():
    g = make_grid(128)
    st = flat_state(g, 1e-2)
    with pytest.raises(CFLViolationError):
        step_rk4(st, StepperConfig(), 100.0 * cfl_bound(st))


def test_rk4_self_convergence_order():
    g = make_grid(128)
    st0 = random_smooth_state(g, RNG, sigma=1e-2, amp=0.1)
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
    from crestwave.energies import energy_sigma

    g = make_grid(128)
    st = random_smooth_state(g, RNG, sigma=1e-2, amp=0.08)
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
    res = {}
    # D_t g = -Im( (1/Zbar_ap) d_a Zbar_t )
    lhs = material_derivative_fd(g, prev_.g, next_.g, d.b, mid.g, dt).real
    rhs = -(g.deriv(np.conj(mid.Zt)) / np.conj(mid.Zp)).imag
    res["Dtg"] = float(np.max(np.abs(lhs - rhs)))
    # D_t |Z_ap| = |Z_ap| (Re D_a Z_t - b_ap)
    lhs = material_derivative_fd(
        g, np.abs(prev_.Zp), np.abs(next_.Zp), d.b, np.abs(mid.Zp), dt
    ).real
    rhs = np.abs(mid.Zp) * ((d.Ztap / mid.Zp).real - d.b_ap)
    res["DtZapabs"] = float(np.max(np.abs(lhs - rhs)))
    # D_t (1/Z_ap) = -(1/Z_ap)(D_a Z_t - b_ap)
    lhs = material_derivative_fd(g, 1 / prev_.Zp, 1 / next_.Zp, d.b, 1 / mid.Zp, dt)
    rhs = -(1 / mid.Zp) * (d.Ztap / mid.Zp - d.b_ap)
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
    res["commutator"] = float(np.max(np.abs(comm - d.b_ap * g.deriv(probe[1]))))
    return res


def test_dynamic_identities_second_order():
    g = make_grid(128)
    st0 = random_smooth_state(g, RNG, sigma=0.0, amp=0.15)
    dt = 0.25 * cfl_bound(st0)
    coarse = dynamic_identity_residuals(st0, 8, dt)
    fine = dynamic_identity_residuals(st0, 16, dt / 2)
    for name in ("Dtg", "DtZapabs", "DtoneoverZap"):
        ratio = coarse[name] / fine[name]
        assert 3.2 < ratio < 4.8, (name, ratio, coarse[name], fine[name])
    assert coarse["commutator"] < 1e-10
    assert fine["commutator"] < 1e-10


# -- Lagrangian map advance by the shared RK4 ---------------------------------------


def advance_map(map_, b_field, dt):
    """RK4 step of dh/dt = b(h) for a time-frozen drift field."""
    g = map_.grid

    def drift(y):
        return (g.interpolate_real(b_field, g.nodes + y[0]),)

    y0 = (map_.deviation,)
    (dev,) = rk4(y0, drift, dt, drift(y0))
    return MonotoneMap(g, dev)


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
    assert float(np.min(m.jacobian())) > 0.0


# -- validation -------------------------------------------------------------------


def test_validate_state_flat_and_contaminated():
    g = make_grid(128)
    st = flat_state(g)
    diag = validate_state(st)
    assert diag.passed
    assert diag.holo_residual_Zp == 0.0 and diag.dZ_consistency == 0.0
    bad_Zp = st.Zp + 1e-3 * np.exp(3j * g.nodes)
    st2 = make_state(g, st.Zdev, bad_Zp, st.Zt, 0.0)
    diag2 = validate_state(st2)
    assert not diag2.passed
    assert abs(diag2.holo_residual_Zp - 1e-3 * np.sqrt(g.length)) < 1e-6


def test_refine_state_preserves_fields():
    g = make_grid(64)
    st = random_smooth_state(g, RNG, amp=0.1)
    st2 = refine_state(st, 128)
    assert st2.grid.n == 128
    assert np.max(np.abs(st2.Zp[::2] - st.Zp)) < 1e-12
