import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from dataclasses import fields, replace

from crestwave import brackets, evolution, spectral
from crestwave import pair as pair_module
from crestwave.brackets import InverseFlowMap, MonotoneMap
from crestwave.energies import EnergyReport, energy_delta, energy_sigma, f_delta_norm
from crestwave.errors import DegenerateJacobianError, HolomorphicityError, MonotonicityError
from crestwave.evolution import (
    DerivedFields,
    StepperConfig,
    cfl_bound,
    compute_derived,
    flat_state,
    make_state,
    step_rk4,
)
from crestwave.pair import (
    PairRunResult,
    PairRunSpec,
    PairState,
    build_pair,
    co_step,
    drive_pair,
    init_pair,
    run_convergence_study,
    run_pair_once,
)
from crestwave.spectral import make_grid

from helpers import folding_maps, random_monotone_map, random_smooth_state, same
from oracles import (
    SELECTORS,
    commutator_bracket,
    compose_map_apply,
    compose_maps,
    continue_angle,
    dealias,
    delta_field,
    htilcal_apply,
    inverse_map,
)


def _smooth_pair(grid, rng, sigma_a=0.0, shared=True, amp=0.15):
    st = random_smooth_state(grid, rng, sigma=0.0, amp=amp)
    st_a = replace(st, sigma=sigma_a)
    if shared:
        return init_pair(st_a, st)
    st_b = random_smooth_state(grid, rng, sigma=0.0, amp=amp)
    return init_pair(st_a, st_b)


def test_init_pair_validation():
    rng = np.random.default_rng(33)
    g = make_grid(128)
    g2 = make_grid(64)
    st = random_smooth_state(g, rng)
    with pytest.raises(ValueError):
        init_pair(st, random_smooth_state(g2, rng))
    with pytest.raises(ValueError):
        init_pair(st, replace(st, sigma=0.1))


def test_identical_pair_all_deltas_vanish():
    rng = np.random.default_rng(33)
    g = make_grid(128)
    pair = _smooth_pair(g, rng)
    for name in SELECTORS:
        field = delta_field(pair, name)
        assert np.max(np.abs(field)) < 1e-9, name


def test_delta_product_rule_exact():
    rng = np.random.default_rng(33)
    # Delta(fg) = U(f_b) Delta(g) + Delta(f) g_a with band-limited factors
    g = make_grid(256)
    st_a = random_smooth_state(g, rng, amp=0.2)
    st_b = random_smooth_state(g, rng, amp=0.2)
    pair = init_pair(replace(st_a, sigma=0.0), st_b)
    # use low-degree fields so products stay fully resolved
    fa, ga = st_a.Zp, 1.0 / st_a.Zp
    fb, gb = st_b.Zp, 1.0 / st_b.Zp
    fb = dealias(g, fb)
    gb = dealias(g, gb)
    U = lambda f: g.interpolate(f, pair.map_tilde.values)
    d = lambda xa, xb: xa - U(xb)
    lhs = d(fa * ga, fb * gb)
    rhs = U(fb) * d(ga, gb) + d(fa, fb) * ga
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_delta_commutator_decomposition():
    rng = np.random.default_rng(33)
    # Delta [f, H] d_a g = [Delta f, H] d_a g_a + [U f_b, H - Htilcal] d_a g_a
    #                      + U { [f_b, H] d_a (U^{-1} Delta g) }
    g = make_grid(256)
    st = random_smooth_state(g, rng, amp=0.15)
    pair0 = init_pair(replace(st, sigma=1e-2), st)
    cfg = StepperConfig()
    dt = 0.4 * min(cfl_bound(pair0.state_a), cfl_bound(pair0.state_b))
    pair = pair0
    for _ in range(10):
        pair = co_step(pair, cfg, dt)
    a, b = pair.state_a, pair.state_b
    htil = pair.map_tilde
    U = lambda f: g.interpolate(f, htil.values)
    Uinv = lambda f: g.interpolate(f, inverse_map(htil).values)
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
    rng = np.random.default_rng(33)
    # (D_t)_a (U f_b) = U ((D_t)_b f_b) along co-evolved trajectories
    g = make_grid(128)
    st = random_smooth_state(g, rng, amp=0.15)
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


def test_halpha_term_matches_the_route_through_both_inverses():
    # f_delta_norm pulls 1 / k_b,alpha back through htilde in its stack of
    # b fields; the oracle takes h_alpha o h^{-1} = 1 / k_alpha of each
    # solution and pulls it back on its own
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.1, velocity_amplitude=0.05j,
                                  n_points=256))
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    for _ in range(20):
        pair = co_step(pair, cfg, dt)
    value = f_delta_norm(pair).components["fd_delta_halpha_L2"]
    oracle = pair.state_a.grid.l2_norm(delta_field(pair, "h_alpha"))
    assert value > 1e-6
    assert abs(value - oracle) <= 1e-12
    # the Lagrangian route to the same field: h = k^{-1} by Newton, and its
    # spectral Jacobian pulled back through k; the two routes differ by the
    # truncation of the maps, whose modes at the dealias cutoff are 2e-9
    # here (3.5e-9 measured)
    for k in (pair.k_a, pair.k_b):
        lagrangian = compose_map_apply(k.grid, inverse_map(k).jac, k)
        assert np.max(np.abs(lagrangian - 1.0 / k.jac)) <= 1e-8


@pytest.mark.parametrize("n, sigma, epsilon", [(768, 0.05 ** 1.5, 0.05), (2048, 1e-5, 0.1)])
def test_differences_of_a_new_pair_are_at_rounding_level(n, sigma, epsilon):
    # both maps are the identity and both solutions hold the same data, so
    # every difference but the sigma term of Z_tt is rounding: the pull-backs
    # evaluate at the grid nodes, where a misweighting kernel would show
    pair = build_pair(PairRunSpec(sigma=sigma, epsilon=epsilon, velocity_amplitude=0.05j,
                                  n_points=n))
    comp = dict(f_delta_norm(pair).components)
    assert comp.pop("fd_delta_Ztt_Hhalf") > 1e-6
    assert max(comp.values()) < 1e-12, comp


def test_htilde_is_built_once_by_a_record(monkeypatch):
    # co_step does not build it; energy_delta builds it by one preimage
    # solve of k_b at the values of k_a, which carries the 22 real rows of b
    # that the record pulls back, and f_delta_norm and energy_sigma reuse
    # it; no map is inverted
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=128))
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    pair = co_step(pair, cfg, dt)
    assert "map_tilde" not in vars(pair)
    solved = []
    preimage = MonotoneMap.preimage

    def counted(self, y, fields=()):
        solved.append((self, y, fields))
        return preimage(self, y, fields)

    monkeypatch.setattr(MonotoneMap, "preimage", counted)
    energy_delta(pair)
    htilde = vars(pair)["map_tilde"]
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    assert len(solved) == 1 and solved[0][0] is pair.k_b
    assert np.array_equal(solved[0][1], pair.k_a.values)
    assert len(solved[0][2]) == 22
    assert vars(pair)["map_tilde"] is htilde


def test_pull_back_has_the_bits_of_compose_map_apply_whether_htilde_is_kept_or_not():
    # on a pair without htilde the fields ride along the solve that builds
    # it, which the pair then keeps; on a pair that keeps it they are
    # pulled back through it alone; both give compose_map_apply bit for bit
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=128))
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    pair = co_step(pair, StepperConfig(), dt)
    g = pair.state_a.grid
    fields = np.random.default_rng(5).standard_normal((4, g.n))
    solved = PairState(*(replace(st) for st in (pair.state_a, pair.state_b)), pair.k_a, pair.k_b)
    htilde, pulled = solved._pull_back(list(fields))
    assert vars(solved)["map_tilde"] is htilde
    expected = compose_map_apply(g, fields, htilde).tobytes()
    assert pulled.tobytes() == expected
    kept = PairState(*(replace(st) for st in (pair.state_a, pair.state_b)), pair.k_a, pair.k_b)
    htilde_kept = kept.map_tilde
    assert kept._pull_back(list(fields))[0] is htilde_kept and same(htilde_kept, htilde)
    assert kept._pull_back(list(fields))[1].tobytes() == expected


def test_htilde_of_folding_maps_matches_the_route_through_the_inverse_of_k_b():
    # the oracle inverts k_b as a map and pulls its deviation back through
    # k_a, so it carries the truncation of that inverse, whose modes decay
    # like exp(-0.031 |k|) for k_b,x = 1 - 0.9 cos x: 4096 points resolve it
    # (1024 points leave 3e-12).  Both routes refuse the folded htilde
    g = make_grid(4096)
    k_a, k_b = folding_maps(g)
    pair = PairState(None, None, k_a, k_b)
    with pytest.raises(MonotonicityError, match=r"^\[htilde\] min h_ap"):
        pair.map_tilde
    inverse_b = inverse_map(k_b)
    with pytest.raises(MonotonicityError):
        compose_maps(inverse_b, k_a)
    oracle = k_a.values + compose_map_apply(g, inverse_b.deviation, k_a)
    assert np.max(np.abs(k_b.preimage(k_a.values)[0] - oracle)) <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=hst.integers(0, 2**32 - 1),
    n_modes=hst.integers(1, 8),
    max_slope=hst.floats(0.01, 0.6),
)
def test_htilde_of_random_maps_matches_the_route_through_the_inverse_of_k_b(
    seed, n_modes, max_slope
):
    # 512 points resolve the inverses of these maps (256 leave 3e-8)
    g = make_grid(512)
    rng = np.random.default_rng(seed)
    k_a, k_b = (random_monotone_map(g, rng, n_modes=n_modes, max_slope=max_slope) for _ in "ab")
    htilde = PairState(None, None, k_a, k_b).map_tilde
    oracle = compose_maps(inverse_map(k_b), k_a)
    assert np.max(np.abs(htilde.deviation - oracle.deviation)) <= 1e-13


def test_a_record_whose_htilde_is_not_monotone_names_htilde_and_its_time():
    # the run goes on from t = 0.5 to t_final
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=64,
                       t_final=0.75)
    built = build_pair(spec)
    states = [replace(st, time=0.5) for st in (built.state_a, built.state_b)]
    pair = PairState(*states, *folding_maps(built.state_a.grid))
    with pytest.raises(MonotonicityError, match=r"^\[htilde\] min h_ap = \S+ below floor 1e-06 "
                       r"\(record at t = 0\.5\)$"):
        drive_pair(pair, PairRunResult(spec))


def test_co_step_guards_holomorphicity_per_solution(monkeypatch):
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=64))
    monkeypatch.setattr(evolution, "HOLO_TOLERANCE", 1e-30)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    # the message names the field, its removed mass and tolerance * scale
    with pytest.raises(HolomorphicityError, match=r"^\[solution a\] projected positive-mode mass "
                       r"\S+ of Z_ap - 1 above tolerance 1\.0e-30 \* \S+$"):
        co_step(pair, StepperConfig(), dt)


def test_co_step_tags_a_degenerate_solution_b():
    g = make_grid(64)
    Zp = np.ones(64, complex)
    Zp[7] = 1e-10
    st_b = make_state(g, np.zeros(64, complex), Zp, np.zeros(64, complex), 0.0)
    pair = init_pair(flat_state(g, 1e-2), st_b)
    with pytest.raises(DegenerateJacobianError,
                       match=r"^\[solution b\] min \|Z_ap\| = 1\.000e-10 below 1e-08$"):
        co_step(pair, StepperConfig(), 1e-4)


def _degenerate_b_pair():
    g = make_grid(64)
    Zp = np.ones(64, complex)
    Zp[5] = 1e-12
    st_b = make_state(g, np.zeros(64, complex), Zp, np.zeros(64, complex), 0.0)
    return init_pair(flat_state(g, 1e-2), st_b)


DEGENERATE_B = r"^\[solution b\] min \|Z_ap\| = 1\.000e-12 below 1e-08$"


@pytest.mark.parametrize("family", [energy_delta, f_delta_norm])
def test_a_record_tags_a_degenerate_solution_b(family):
    with pytest.raises(DegenerateJacobianError, match=DEGENERATE_B):
        family(_degenerate_b_pair())


def test_drive_pair_tags_a_degenerate_solution_b():
    result = PairRunResult(PairRunSpec(sigma=1e-2, epsilon=0.1, n_points=64))
    with pytest.raises(DegenerateJacobianError, match=DEGENERATE_B):
        drive_pair(_degenerate_b_pair(), result)
    assert result.delta_reports == []


def test_co_step_tags_a_post_step_failure_of_solution_b(monkeypatch):
    # a flat solution a stays exactly flat and removes no mass; b does
    monkeypatch.setattr(evolution, "HOLO_TOLERANCE", 1e-30)
    g = make_grid(64)
    st_b = random_smooth_state(g, np.random.default_rng(5), amp=0.1)
    pair = init_pair(flat_state(g, 1e-2), st_b)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    with pytest.raises(HolomorphicityError, match=r"^\[solution b\] projected positive-mode mass "
                       r"\S+ of (Z_ap - 1|Zbar_t) above tolerance 1\.0e-30 \* \S+$"):
        co_step(pair, StepperConfig(), dt)


def test_co_step_tags_a_map_failure_of_solution_b(monkeypatch):
    # with the floor at 1, the guard admits only k_ap = 1: k_a of a flat
    # solution a stays the identity, k_b moves and fails first on its
    # largest k_ap, as min h_ap = 1 / max k_ap below the floor
    g = make_grid(64)
    st_b = random_smooth_state(g, np.random.default_rng(5), amp=0.1)
    pair = init_pair(flat_state(g, 1e-2), st_b)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    monkeypatch.setattr(brackets, "JACOBIAN_FLOOR", 1.0)
    with pytest.raises(MonotonicityError, match=r"^\[solution b\] min h_ap = \S+ below floor"):
        co_step(pair, StepperConfig(), dt)


def _skewed_deviation(grid):
    """A map deviation with Jacobian 1 + (cos x + cos 2x / 2) / 2, whose
    range [0.625, 1.75] is lopsided (and [0.25, 1.375] for its negative),
    so that a floor can fail one side alone."""
    x = grid.nodes
    return 0.5 * (np.sin(x) + 0.25 * np.sin(2.0 * x))


@pytest.mark.parametrize("sign, floor, message", [
    # k_ap in [0.625, 1.75]: max k_ap above 1 / 0.6, min k_ap above 0.6
    (1.0, 0.6, r"^min h_ap = 5\.714e-01 below floor 6e-01$"),
    # k_ap in [0.25, 1.375]: min k_ap below 0.5, max k_ap below 1 / 0.5
    (-1.0, 0.5, r"^max h_ap = 4\.000e\+00 above 2$"),
])
def test_inverse_flow_map_guard_bounds_k_ap_from_both_sides(monkeypatch, sign, floor, message):
    # h_ap = 1 / k_ap o k, so the floor on h_ap bounds k_ap from above and
    # the ceiling 1 / floor on h_ap bounds it from below
    g = make_grid(64)
    dev = sign * _skewed_deviation(g)
    k_ap = InverseFlowMap(g, dev).jac
    low, high = (0.625, 1.75) if sign > 0 else (0.25, 1.375)
    # the extreme at x = 0 is a node; the other lies between nodes
    assert abs(k_ap.min() - low) < 1e-3 and abs(k_ap.max() - high) < 1e-3
    monkeypatch.setattr(brackets, "JACOBIAN_FLOOR", floor)
    with pytest.raises(MonotonicityError, match=message):
        InverseFlowMap(g, dev)


def test_each_member_steps_as_it_would_alone():
    # neither the partner nor the maps enter a solution's own step
    g = make_grid(128)
    pair = _smooth_pair(g, np.random.default_rng(17), sigma_a=1e-2, shared=False)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    alone_a, alone_b = pair.state_a, pair.state_b
    for _ in range(50):
        pair = co_step(pair, cfg, dt)
        alone_a = step_rk4(alone_a, cfg, dt)
        alone_b = step_rk4(alone_b, cfg, dt)
    for member, alone in ((pair.state_a, alone_a), (pair.state_b, alone_b)):
        assert member.time == alone.time
        # g, the branch of arg(Z_ap), is derived from Zp and read as a property
        for name in ("Zdev", "Zp", "Zt", "g"):
            assert getattr(member, name).tobytes() == getattr(alone, name).tobytes(), name


def test_branch_continued_in_time_is_the_branch_each_state_derives():
    # continuity in time: the previous step's branch continued pointwise to
    # the new Z_ap is the branch the new state seeds on its own
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=256))
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    for _ in range(60):
        new = co_step(pair, cfg, dt)
        for old, member in ((pair.state_a, new.state_a), (pair.state_b, new.state_b)):
            assert continue_angle(member.Zp, old.g).tobytes() == member.g.tobytes()
        pair = new


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
        jac = pair.map_tilde.jac
        jac_bounds.append((jac.min(), jac.max()))
    for name in ("Zt", "one_over_Zp", "A1"):
        assert np.max(np.abs(delta_field(pair, name))) < 1e-9, name
    # Lemma-5.3-style monitor: two-sided bounds on htilde_ap hold throughout
    mins = min(j[0] for j in jac_bounds)
    maxs = max(j[1] for j in jac_bounds)
    assert 0.9 < mins <= maxs < 1.1


@pytest.mark.parametrize("epsilon", [-0.05, float("nan")])
def test_build_pair_refuses_a_negative_or_nan_epsilon(epsilon):
    # such a label used to run the unmollified crest of epsilon = 0
    with pytest.raises(ValueError, match="mollification scale must be >= 0"):
        build_pair(PairRunSpec(sigma=1e-2, epsilon=epsilon, n_points=64))


@pytest.mark.parametrize("sigma", [-1e-4, float("nan")])
def test_build_pair_refuses_a_negative_or_nan_sigma(sigma):
    # such a pair used to build, and its first record gave NaN sigma-terms
    with pytest.raises(ValueError, match="surface tension must be finite and >= 0"):
        build_pair(PairRunSpec(sigma=sigma, epsilon=0.1, n_points=64))


@pytest.mark.parametrize("sigma", [1e-2, 0.0])
def test_a_built_pair_arrives_with_the_fields_of_a_lone_derive(sigma):
    # both members are derived in build_pair, b from a's sigma-free fields
    pair = build_pair(PairRunSpec(sigma=sigma, epsilon=0.2, velocity_amplitude=0.05j,
                                  n_points=128))
    for st in (pair.state_a, pair.state_b):
        kept = vars(st)["derived"]
        lone = compute_derived(replace(st))
        for name in (f.name for f in fields(DerivedFields) if f.name != "grid"):
            got, ref = np.asarray(getattr(kept, name)), np.asarray(getattr(lone, name))
            assert got.tobytes() == ref.tobytes(), (st.sigma, name)


@pytest.mark.parametrize("t_final", [-0.05, 0.0])
def test_run_pair_once_refuses_a_t_final_that_is_not_positive(t_final):
    # -0.05 used to run backward to ok=True, 0.0 to raise ZeroDivisionError
    spec = PairRunSpec(sigma=1e-3, epsilon=0.5, n_points=64, t_final=t_final, min_steps=4)
    with pytest.raises(ValueError, match="t_final must be finite and positive"):
        run_pair_once(spec)


@pytest.mark.parametrize("time", [0.25, 0.5, float("nan")])
def test_drive_pair_refuses_a_pair_at_or_past_t_final(time):
    # plan_steps used to name the remaining duration, 0.0, -0.25 or nan, as
    # t_final
    spec = PairRunSpec(sigma=1e-3, epsilon=0.5, n_points=64, t_final=0.25)
    built = build_pair(spec)
    pair = PairState(*(replace(st, time=time) for st in (built.state_a, built.state_b)),
                     built.k_a, built.k_b)
    with pytest.raises(ValueError, match=rf"^the pair's time {time} is not below t_final = 0\.25$"):
        drive_pair(pair, PairRunResult(spec))


@pytest.mark.parametrize("record_every", [0, -1])
def test_run_pair_once_refuses_a_record_every_below_one(record_every):
    # 0 used to raise ZeroDivisionError after the first step, which ended a
    # sweep, and -1 to record after every step
    spec = PairRunSpec(sigma=1e-3, epsilon=0.5, n_points=64, t_final=0.05, min_steps=4,
                       record_every=record_every)
    with pytest.raises(ValueError, match=f"^record_every must be >= 1, got {record_every}$"):
        run_pair_once(spec)


def test_run_pair_once_failure_is_captured():
    spec = PairRunSpec(sigma=1.0, epsilon=0.2, n_points=64, t_final=10.0,
                       min_steps=4, max_steps=8)
    res = run_pair_once(spec)
    assert not res.ok
    assert "CFLViolationError" in res.error


def test_pair_failure_names_its_step_and_time():
    # the unfiltered n=64 crest leaves positive-mode mass far above tolerance
    spec = PairRunSpec(sigma=1e-3, epsilon=0.2, velocity_amplitude=0.05j, n_points=64,
                       dealias=1.0, t_final=0.05, min_steps=16)
    with pytest.raises(HolomorphicityError,
                       match=r"^\[solution [ab]\] projected .* \(step 1 of 16, t = 0\)$"):
        drive_pair(build_pair(spec), PairRunResult(spec))
    res = run_pair_once(spec)
    assert not res.ok
    assert res.error.endswith(" (step 1 of 16, t = 0)")


def test_energy_reports_match_a_rebuilt_pair():
    # reports of a stepped pair, whose states and maps carry what co_step and
    # earlier reports kept on them, equal those of a copy built from scratch
    spec = PairRunSpec(sigma=1e-3, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    for _ in range(3):
        energy_delta(pair), f_delta_norm(pair)
        pair = co_step(pair, cfg, dt)
    first = (energy_delta(pair), f_delta_norm(pair), energy_sigma(pair.state_a))
    again = (energy_delta(pair), f_delta_norm(pair), energy_sigma(pair.state_a))
    grid = make_grid(128)
    states = [make_state(grid, s.Zdev.copy(), s.Zp.copy(), s.Zt.copy(), s.sigma, s.time)
              for s in (pair.state_a, pair.state_b)]
    # the copy derives its own htilde from the two maps, each rebuilt from
    # its data: the deviation and the Jacobian that the step's finish gave it
    maps = [InverseFlowMap(grid, k.deviation.copy(), k.jac.copy())
            for k in (pair.k_a, pair.k_b)]
    copy = PairState(*states, *maps)
    rebuilt = (energy_delta(copy), f_delta_norm(copy), energy_sigma(copy.state_a))
    for reps in (again, rebuilt):
        for rep, ref in zip(reps, first):
            assert rep.components.keys() == ref.components.keys()
            for name, value in ref.components.items():
                assert abs(rep.components[name] - value) <= 1e-13 * abs(value), name
    assert any(v > 0 for v in first[0].components.values())


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
    # the unfiltered grid of the specs reaches the worker processes; n = 128
    # because unfiltered steps at n = 64 leave more positive-mode mass than
    # the holomorphicity guard admits
    specs = [
        PairRunSpec(sigma=s, epsilon=0.2, nu=0.35, velocity_amplitude=0.05j,
                    n_points=128, dealias=1.0, t_final=0.05, min_steps=8, record_every=4)
        for s in (1e-2, 1e-3)
    ]
    serial = run_convergence_study(specs, jobs=1)
    parallel = run_convergence_study(specs, jobs=2)
    for rs, rp in zip(serial.runs, parallel.runs, strict=True):
        assert rs.ok and rp.ok
        assert rs.n_steps == rp.n_steps and rs.dt == rp.dt
        for family in ("delta_reports", "f_delta_reports", "sigma_a_reports"):
            assert [r.to_json_dict() for r in getattr(rs, family)] == [
                r.to_json_dict() for r in getattr(rp, family)
            ]


@pytest.mark.parametrize("n_specs, jobs, pooled", [(1, 4, []), (3, 8, [3])])
def test_a_study_starts_at_most_one_worker_per_spec(monkeypatch, n_specs, jobs, pooled):
    # a pool starts all max_workers processes at its first submit, and the
    # study used to ask for jobs of them however few specs it had; a pool
    # that maps in this process records the count, and every run is a
    # failed stand-in, so no process starts and nothing is stepped
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(pair_module, "run_pair_once", PairRunResult)
    specs = [PairRunSpec(sigma=10.0 ** -k, epsilon=0.2) for k in range(n_specs)]
    out = run_convergence_study(specs, jobs=jobs)
    assert pools == pooled
    assert [r.spec for r in out.runs] == specs[::-1]


def test_a_study_at_epsilon_0_fits_no_scaling_slope(monkeypatch):
    # sigma / epsilon^{3/2} used to divide by zero once every run had
    # succeeded; each run is a successful stand-in with E_delta and F_delta
    # equal to its sigma, so nothing is stepped
    def run(spec):
        report = EnergyReport("delta", 0.0, {"total": spec.sigma})
        return PairRunResult(spec, ok=True, delta_reports=[report], f_delta_reports=[report])

    monkeypatch.setattr(pair_module, "run_pair_once", run)
    out = run_convergence_study([PairRunSpec(sigma=s, epsilon=0.0) for s in (1e-3, 1e-4)])
    assert out.slope_e0_vs_scaling is None
    assert out.slope_e0_vs_sigma == pytest.approx(1.0)
    assert out.slope_supf_vs_sigma == pytest.approx(1.0)


def test_stepped_maps_carry_the_jacobians_of_their_deviations():
    # the finish gives each new map 1 + D k_dev from the spectrum of its
    # step; a map built from the deviation alone takes 1 + deriv(k_dev),
    # which differs by rounding only
    spec = PairRunSpec(sigma=1e-3, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    for _ in range(20):
        pair = co_step(pair, cfg, dt)
    for k in (pair.k_a, pair.k_b):
        alone = InverseFlowMap(k.grid, k.deviation)
        assert np.max(np.abs(k.jac - 1.0)) > 1e-4
        assert np.max(np.abs(alone.jac - k.jac)) <= 1e-12


@pytest.mark.parametrize("k_ap_min", [0.0, -0.5])
def test_inverse_flow_map_guard_refuses_a_given_folded_jacobian(k_ap_min):
    # k_ap <= 0 is a fold of k, where h_ap is unbounded, whatever the
    # deviation says
    g = make_grid(64)
    dev = 0.1 * np.sin(g.nodes)
    jac = 1.0 + 0.1 * np.cos(g.nodes)
    jac[7] = k_ap_min
    with pytest.raises(MonotonicityError, match=r"^max h_ap = inf above "):
        InverseFlowMap(g, dev, jac)


@pytest.mark.parametrize("k_ap", [0.0, -0.0, -1.0])
def test_inverse_flow_map_guard_refuses_a_jacobian_folded_everywhere(k_ap):
    # with no positive k_ap there is no min h_ap = 1 / max k_ap to test; the
    # guard used to divide by a zero maximum, or read a negative one as a
    # min h_ap below the floor
    g = make_grid(16)
    with pytest.raises(MonotonicityError, match=r"^max h_ap = inf above "):
        InverseFlowMap(g, np.zeros(16), np.full(16, k_ap))


def test_htilde_names_a_preimage_solve_that_does_not_converge(monkeypatch):
    g = make_grid(128)
    st = random_smooth_state(g, np.random.default_rng(4), amp=0.1)
    pair = PairState(st, replace(st), InverseFlowMap.identity(g),
                     InverseFlowMap(g, 0.9 * np.sin(g.nodes)))
    monkeypatch.setattr(brackets, "NEWTON_CAP", 1)
    with pytest.raises(MonotonicityError,
                       match=r"^\[htilde\] preimage not converged after 1 Newton steps"):
        pair.map_tilde


def test_states_maps_and_pairs_compare_by_their_data():
    # copies are the same whatever each keeps, and a one-ulp change of one
    # array, a later time or swapped members are not
    g = make_grid(64)
    pair = _smooth_pair(g, np.random.default_rng(6), sigma_a=1e-2, shared=False)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    pair = co_step(pair, StepperConfig(), dt)
    energy_delta(pair)
    a, k = pair.state_a, pair.k_b
    state_copy = make_state(g, a.Zdev.copy(), a.Zp.copy(), a.Zt.copy(), a.sigma, a.time)
    map_copy = InverseFlowMap(g, k.deviation.copy(), k.jac.copy())
    assert same(a, state_copy) and same(k, map_copy)
    assert same(pair, PairState(state_copy, pair.state_b, pair.k_a, map_copy))
    Zt = a.Zt.copy()
    Zt[5] = complex(np.nextafter(Zt[5].real, np.inf), Zt[5].imag)
    assert not same(a, replace(a, Zt=Zt)) and not same(a, replace(a, time=a.time + dt))
    assert not same(a, pair.state_b)
    assert not same(pair, PairState(*(pair.state_b, a), pair.k_a, pair.k_b))
    jac = k.jac.copy()
    jac[0] = np.nextafter(jac[0], 0.0)
    other_map = InverseFlowMap(g, k.deviation, jac)
    assert not same(pair, PairState(pair.state_a, pair.state_b, pair.k_a, other_map))


# rounds of a step and a record of a pair at n = 2048: 11 that grow the heap,
# then 11 repeats of the 12th, which print their minor page faults
WARM_ROUNDS = """
import resource
import crestwave as cw

pair = cw.pair.build_pair(cw.PairRunSpec(sigma=1e-5, epsilon=0.1,
                                         velocity_amplitude=0.05j, n_points=2048))
cfg = cw.StepperConfig()
dt = 0.5 * min(cw.cfl_bound(pair.state_a), cw.cfl_bound(pair.state_b))

def round_from(p):
    p = cw.co_step(p, cfg, dt)
    der_a, der_b = cw.compute_derived(p.state_a), cw.compute_derived(p.state_b)
    cw.energy_delta(p), cw.f_delta_norm(p, der_a, der_b), cw.energy_sigma(p.state_a)
    return p

for _ in range(11):
    pair = round_from(pair)
for _ in range(11):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    round_from(pair)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not spectral._pin_heap_thresholds(), reason="libc has no mallopt")
def test_warm_records_and_steps_take_no_page_faults():
    # importing crestwave pins glibc's heap thresholds, so the arrays a step
    # or a record frees stay in the heap for the next one: once the heap has
    # grown, rounds that repeat the same work fault in (almost) nothing.  On
    # glibc's dynamic thresholds the heap was trimmed and regrown, and the
    # last 10 rounds took 2674 minor faults.  The rounds run in a fresh
    # interpreter, whose heap is not the one that earlier tests left
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", WARM_ROUNDS],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    faults = [int(count) for count in run.stdout.split()]
    assert len(faults) == 11
    assert sum(faults[1:]) <= 20, faults
