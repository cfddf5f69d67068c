import numpy as np
import pytest
from dataclasses import replace

from crestwave.brackets import commutator_bracket, htilcal_apply
from crestwave.errors import HolomorphicityError
from crestwave.evolution import StepperConfig, cfl_bound, compute_derived, flat_state
from crestwave.pair import (
    PairRunSpec,
    build_pair,
    co_step,
    delta_field,
    delta_selectors,
    init_pair,
    run_convergence_study,
    run_pair_once,
)
from crestwave.spectral import make_grid

from helpers import random_smooth_state

RNG = np.random.default_rng(33)


def _smooth_pair(grid, sigma_a=0.0, same=True, amp=0.15):
    st = random_smooth_state(grid, RNG, sigma=0.0, amp=amp)
    st_a = replace(st, sigma=sigma_a)
    if same:
        return init_pair(st_a, st)
    st_b = random_smooth_state(grid, RNG, sigma=0.0, amp=amp)
    return init_pair(st_a, st_b)


def test_init_pair_validation():
    g = make_grid(128)
    g2 = make_grid(64)
    st = random_smooth_state(g, RNG)
    with pytest.raises(ValueError):
        init_pair(st, random_smooth_state(g2, RNG))
    with pytest.raises(ValueError):
        init_pair(st, replace(st, sigma=0.1))


def test_identical_pair_all_deltas_vanish():
    g = make_grid(128)
    pair = _smooth_pair(g)
    for name in delta_selectors():
        field = delta_field(pair, name)
        assert np.max(np.abs(field)) < 1e-9, name


def test_unknown_selector_rejected():
    g = make_grid(128)
    pair = _smooth_pair(g)
    with pytest.raises(ValueError):
        delta_field(pair, "nope")


def test_delta_product_rule_exact():
    # Delta(fg) = U(f_b) Delta(g) + Delta(f) g_a with band-limited factors
    g = make_grid(256)
    st_a = random_smooth_state(g, RNG, amp=0.2)
    st_b = random_smooth_state(g, RNG, amp=0.2)
    pair = init_pair(replace(st_a, sigma=0.0), st_b)
    # use low-degree fields so products stay fully resolved
    fa, ga = st_a.Zp, 1.0 / st_a.Zp
    fb, gb = st_b.Zp, 1.0 / st_b.Zp
    fb = g.dealias(fb)
    gb = g.dealias(gb)
    U = lambda f: g.interpolate(f, pair.map_tilde.values)
    d = lambda xa, xb: xa - U(xb)
    lhs = d(fa * ga, fb * gb)
    rhs = U(fb) * d(ga, gb) + d(fa, fb) * ga
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_delta_commutator_decomposition():
    # Delta [f, H] d_a g = [Delta f, H] d_a g_a + [U f_b, H - Htilcal] d_a g_a
    #                      + U { [f_b, H] d_a (U^{-1} Delta g) }
    g = make_grid(256)
    st = random_smooth_state(g, RNG, amp=0.15)
    pair0 = init_pair(replace(st, sigma=1e-2), st)
    cfg = StepperConfig()
    dt = 0.4 * min(cfl_bound(pair0.state_a), cfl_bound(pair0.state_b))
    pair = pair0
    for _ in range(10):
        pair = co_step(pair, cfg, dt)
    a, b = pair.state_a, pair.state_b
    htil = pair.map_tilde
    U = lambda f: g.interpolate(f, htil.values)
    Uinv = lambda f: g.interpolate(f, htil.inverse().values)
    fa, fb = a.Zt, b.Zt
    ga, gb = 1.0 / a.Zp, 1.0 / b.Zp
    lhs = commutator_bracket(g, fa, ga) - U(commutator_bracket(g, fb, gb))
    delta_f = fa - U(fb)
    delta_g = ga - U(gb)
    term1 = commutator_bracket(g, delta_f, ga)
    Ufb = U(fb)
    dga = g.deriv(ga)
    term2 = Ufb * g.hilbert(dga) - g.hilbert(Ufb * dga)
    term2 -= Ufb * htilcal_apply(g, dga, htil) - htilcal_apply(g, Ufb * dga, htil)
    term3 = U(commutator_bracket(g, fb, Uinv(delta_g)))
    resid = np.max(np.abs(lhs - (term1 + term2 + term3)))
    scale = max(1.0, np.max(np.abs(lhs)))
    assert resid < 5e-7 * scale


def test_material_derivative_commutes_with_composition():
    # (D_t)_a (U f_b) = U ((D_t)_b f_b) along co-evolved trajectories
    g = make_grid(128)
    st = random_smooth_state(g, RNG, amp=0.15)
    pair = init_pair(replace(st, sigma=1e-2), st)
    cfg = StepperConfig()
    dt = 0.2 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))

    def residual(dt_local):
        snaps = [pair]
        p = pair
        for _ in range(2):
            p = co_step(p, cfg, dt_local)
            snaps.append(p)
        prev_, mid, next_ = snaps
        probe = lambda p_: 1.0 / p_.state_b.Zp
        U = lambda f, p_: g.interpolate(f, p_.map_tilde.values)
        db_mid = compute_derived(mid.state_b)
        da_mid = compute_derived(mid.state_a)
        lhs = (U(probe(next_), next_) - U(probe(prev_), prev_)) / (2 * dt_local)
        lhs = lhs + da_mid.b * g.deriv(U(probe(mid), mid))
        dtb = (probe(next_) - probe(prev_)) / (2 * dt_local) + db_mid.b * g.deriv(probe(mid))
        rhs = U(dtb, mid)
        return float(np.max(np.abs(lhs - rhs)))

    r1 = residual(dt)
    r2 = residual(dt / 2)
    assert 3.0 < r1 / r2 < 5.5, (r1, r2)


def test_co_step_guards_holomorphicity_per_solution():
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=64))
    cfg = StepperConfig(holo_tolerance=1e-30)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    with pytest.raises(HolomorphicityError, match=r"^\[solution a\] projected"):
        co_step(pair, cfg, dt)


def test_flat_pair_stays_flat():
    g = make_grid(128)
    pair = init_pair(flat_state(g, 1e-2), flat_state(g, 0.0))
    cfg = StepperConfig()
    dt = 0.5 * cfl_bound(pair.state_a)
    for _ in range(50):
        pair = co_step(pair, cfg, dt)
    assert np.max(np.abs(pair.state_a.Zp - 1.0)) < 1e-13
    assert np.max(np.abs(pair.map_tilde.deviation)) < 1e-13


def test_delta_zero_stability_long_run():
    # identical pair with sigma_a = 0: differences stay at rounding level
    g = make_grid(128)
    rng = np.random.default_rng(2024)
    st = random_smooth_state(g, rng, sigma=0.0, amp=0.08)
    pair = init_pair(st, replace(st, sigma=0.0))
    cfg = StepperConfig()
    dt = 0.25 * cfl_bound(pair.state_a)
    jac_bounds = []
    for _ in range(1000):
        pair = co_step(pair, cfg, dt)
        jac = pair.map_tilde.jacobian()
        jac_bounds.append((jac.min(), jac.max()))
    for name in ("Zt", "one_over_Zp", "A1"):
        assert np.max(np.abs(delta_field(pair, name))) < 1e-9, name
    # Lemma-5.3-style monitor: two-sided bounds on htilde_ap hold throughout
    mins = min(j[0] for j in jac_bounds)
    maxs = max(j[1] for j in jac_bounds)
    assert 0.9 < mins <= maxs < 1.1


def test_run_pair_once_failure_is_captured():
    spec = PairRunSpec(sigma=1.0, epsilon=0.2, n_points=64, t_final=10.0,
                       min_steps=4, max_steps=8)
    res = run_pair_once(spec)
    assert not res.ok
    assert "CFLViolationError" in res.error


def test_small_study_slopes():
    specs = [
        PairRunSpec(sigma=s, epsilon=0.2, nu=0.35, velocity_amplitude=0.05j,
                    n_points=128, t_final=0.1, min_steps=16, record_every=8)
        for s in (1e-3, 1e-4)
    ]
    out = run_convergence_study(specs)
    assert all(r.ok for r in out.runs)
    assert 0.9 < out.slope_e0_vs_sigma < 1.1
    assert out.growth_uniformity < 3.0
    # continuity: the difference-energy total moves smoothly between records
    for r in out.runs:
        totals = np.array([rep.total for rep in r.delta_reports])
        ratios = totals[1:] / totals[:-1]
        assert np.all(ratios < 4.0) and np.all(ratios > 0.25)


def test_parallel_study_matches_serial():
    # the stepper configuration reaches the worker processes; n = 128
    # because unfiltered steps at n = 64 leave more positive-mode mass than
    # the holomorphicity guard admits
    specs = [
        PairRunSpec(sigma=s, epsilon=0.2, nu=0.35, velocity_amplitude=0.05j,
                    n_points=128, t_final=0.05, min_steps=8, record_every=4)
        for s in (1e-2, 1e-3)
    ]
    stepper = StepperConfig(filter_on=False)
    serial = run_convergence_study(specs, stepper=stepper, jobs=1)
    parallel = run_convergence_study(specs, stepper=stepper, jobs=2)
    for rs, rp in zip(serial.runs, parallel.runs, strict=True):
        assert rs.ok and rp.ok
        assert rs.n_steps == rp.n_steps and rs.dt == rp.dt
        for family in ("delta_reports", "f_delta_reports", "sigma_a_reports"):
            assert [r.to_json_dict() for r in getattr(rs, family)] == [
                r.to_json_dict() for r in getattr(rp, family)
            ]
