"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.  Tolerances are pinned here and nowhere else."""

import numpy as np
import pytest
from dataclasses import replace

from crestwave.energies import energy_aux, energy_delta, energy_high, energy_sigma
from crestwave.evolution import (
    StepperConfig,
    cfl_bound,
    compute_derived,
    flat_state,
    step_rk4,
)
from crestwave.initial_data import CrestSpec, crest_data
from crestwave.pair import PairRunSpec, init_pair, run_convergence_study
from crestwave.spectral import make_grid

from helpers import (
    linearized_frequency_fd,
    measure_mode_frequency,
    random_holomorphic,
    random_monotone_map,
    random_real_field,
    random_smooth_state,
    refine_state,
)
from oracles import (
    commutator_bracket,
    compose_map_apply,
    dealias,
    hcal_apply,
    hcal_quadrature_oracle,
    linf_norm,
    mollify_data,
    poisson_smooth,
    project,
    triple_bracket_line_oracle,
    triple_bracket_periodic,
)
from test_evolution import _identity_residuals, dynamic_identity_residuals

RNG = np.random.default_rng(1234567)


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_operator_exactness():
    g = make_grid(256)
    a = g.nodes
    worst = 0.0
    for k in (1, 3, 17, 60):
        for sgn in (+1, -1):
            mode = np.exp(sgn * 1j * k * a)
            worst = max(worst, np.max(np.abs(g.hilbert(mode) + sgn * mode)))
            half = g.multiply_symbol(mode, np.abs(g.k) ** 0.5)
            worst = max(worst, np.max(np.abs(half - np.sqrt(k) * mode)) / np.sqrt(k))
            ph = project(g, mode, "H")
            pa = project(g, mode, "A")
            expect_h = mode if sgn < 0 else 0.0
            worst = max(worst, np.max(np.abs(ph - expect_h)))
            worst = max(worst, np.max(np.abs(ph + pa - mode)))
            sm = poisson_smooth(g, mode, 0.3)
            worst = max(worst, np.max(np.abs(sm - np.exp(-0.3 * k) * mode)))
    assert worst < 1e-12
    _report(1, f"single-mode operator residual {worst:.2e} < 1e-12 at N=256")


# -- 2 ---------------------------------------------------------------------------


def test_criterion_02_identity_suite():
    g = make_grid(256)
    worst = {}
    for i in range(50):
        sigma = 0.0 if i % 2 == 0 else 1e-2
        st = random_smooth_state(g, RNG, sigma=sigma, amp=0.22)
        for name, val in _identity_residuals(st).items():
            worst[name] = max(worst.get(name, 0.0), val)
    assert all(v < 1e-8 for v in worst.values()), worst
    txt = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(2, f"50-state identity residuals: {txt} (all < 1e-8)")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_dynamic_identities():
    g = make_grid(128)
    st0 = random_smooth_state(g, RNG, sigma=0.0, amp=0.15)
    dt = 0.25 * cfl_bound(st0)
    coarse = dynamic_identity_residuals(st0, 8, dt)
    fine = dynamic_identity_residuals(st0, 16, dt / 2)
    ratios = {}
    for name in ("Dtg", "DtZapabs", "DtoneoverZap"):
        ratios[name] = coarse[name] / fine[name]
        assert 3.2 < ratios[name] < 4.8, (name, ratios[name])
    # the centered-difference commutator identity closes algebraically
    assert max(coarse["commutator"], fine["commutator"]) < 1e-10
    txt = ", ".join(f"{k}: ratio={v:.2f}" for k, v in ratios.items())
    _report(3, f"dt-halving ratios {txt} (4 +- 20%); commutator residual "
               f"{max(coarse['commutator'], fine['commutator']):.1e}")


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_flat_equilibrium():
    g = make_grid(256)
    worst = 0.0
    for sigma in (0.0, 1e-2):
        st = flat_state(g, sigma)
        dt = 0.5 * cfl_bound(st)
        cfg = StepperConfig()
        for _ in range(1000):
            st = step_rk4(st, cfg, dt)
        worst = max(
            worst,
            float(np.max(np.abs(st.Zp - 1.0))),
            float(np.max(np.abs(st.Zt))),
            float(np.max(np.abs(st.Zdev))),
        )
    assert worst < 1e-10
    _report(4, f"flat state drift after 1e3 steps, sigma in (0, 1e-2): {worst:.2e} < 1e-10")


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_dispersion():
    g = make_grid(256)
    rows = []
    for sigma in (0.0, 1e-2):
        for k in (1, 2, 4):
            predicted = np.sqrt(k + sigma * k ** 3)
            oracle = linearized_frequency_fd(g, k, sigma)
            assert abs(oracle - predicted) < 2e-3 * predicted
            measured = measure_mode_frequency(g, k, sigma, amp=1e-6, periods=6.0)
            rel = abs(measured - predicted) / predicted
            rows.append((sigma, k, rel))
            assert rel < 1e-2, (sigma, k, measured, predicted)
    worst = max(r[2] for r in rows)
    _report(5, f"measured frequencies match sqrt(|k| + sigma |k|^3) within {worst:.2e} "
               "(tolerance 1e-2), linearization oracle agrees with the formula")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_taylor_sign_floor():
    floors = []
    g = make_grid(256)
    cfg = StepperConfig()
    for seed, sigma in ((606, 0.0), (607, 1e-2)):
        st = random_smooth_state(g, np.random.default_rng(seed), sigma=sigma, amp=0.1)
        assert float(np.min(np.abs(st.Zp))) > 0.6
        mins = []
        for _ in range(400):
            dt = 0.3 * cfl_bound(st)
            st = step_rk4(st, cfg, dt)
            mins.append(float(compute_derived(st).A1.min()))
        floors.append(min(mins))
    crest = mollify_data(crest_data(CrestSpec(nu=0.35, velocity_amplitude=0.05j),
                                    make_grid(512)), 0.1)
    crest = replace(crest, sigma=0.1 ** 1.5)
    mins = []
    for _ in range(300):
        dt = 0.4 * cfl_bound(crest)
        crest = step_rk4(crest, StepperConfig(), dt)
        mins.append(float(compute_derived(crest).A1.min()))
    floors.append(min(mins))
    assert min(floors) >= 1.0 - 1e-8
    _report(6, f"min A1 across all monitored runs = {min(floors):.12f} >= 1 - 1e-8")


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_self_convergence():
    g = make_grid(128)
    st0 = random_smooth_state(g, RNG, sigma=1e-2, amp=0.1)
    dt0 = 0.5 * cfl_bound(st0)
    finals = {}
    for div in (1, 2, 4):
        st = st0
        for _ in range(16 * div):
            st = step_rk4(st, StepperConfig(), dt0 / div)
        finals[div] = st
    e1 = max(np.max(np.abs(finals[1].Zp - finals[2].Zp)),
             np.max(np.abs(finals[1].Zt - finals[2].Zt)))
    e2 = max(np.max(np.abs(finals[2].Zp - finals[4].Zp)),
             np.max(np.abs(finals[2].Zt - finals[4].Zt)))
    ratio = e1 / e2
    assert 12.0 < ratio < 20.0  # 16 +- 25%

    st = random_smooth_state(g, np.random.default_rng(7001), sigma=1e-2, amp=0.08)
    assert float(np.min(np.abs(st.Zp))) > 0.6
    st2 = refine_state(st, 256)
    worst = 0.0
    for fam in (energy_sigma, energy_high, energy_aux):
        ra, rb = fam(st), fam(st2)
        for k in ra.components:
            va, vb = ra.components[k], rb.components[k]
            worst = max(worst, abs(va - vb) / max(1.0, abs(va)))
    assert worst < 1e-8
    _report(7, f"RK4 Richardson ratio {ratio:.1f} in [12, 20]; N-doubling energy "
               f"change {worst:.2e} < 1e-8")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_appendix_operator_properties():
    g = make_grid(256)
    # composition chain rule (interpolation tolerance)
    worst_chain = 0.0
    for _ in range(10):
        m = random_monotone_map(g, RNG, max_slope=0.45)
        f = np.exp(np.cos(g.nodes)) * np.exp(1j * np.sin(g.nodes + 0.3))
        lhs = g.deriv(compose_map_apply(g, f, m))
        rhs = m.jac * compose_map_apply(g, g.deriv(f), m)
        worst_chain = max(worst_chain, float(np.max(np.abs(lhs - rhs))))
    assert worst_chain < 1e-7

    # conjugation identity against the singular quadrature
    worst_hcal = 0.0
    for _ in range(10):
        m = random_monotone_map(g, RNG, max_slope=0.45)
        f = np.exp(1j * np.sin(2 * g.nodes)) * np.cos(g.nodes)
        worst_hcal = max(
            worst_hcal,
            float(np.max(np.abs(hcal_apply(g, f, m) - hcal_quadrature_oracle(g, f, m)))),
        )
    assert worst_hcal < 1e-9

    # difference product rule, exact up to rounding on resolved fields
    st_a = random_smooth_state(g, RNG, amp=0.2)
    st_b = random_smooth_state(g, RNG, amp=0.2)
    pair = init_pair(replace(st_a, sigma=0.0), st_b)
    U = lambda f: g.interpolate(f, pair.map_tilde.values)
    fa, ga = st_a.Zp, dealias(g, 1.0 / st_a.Zp)
    fb, gb = dealias(g, st_b.Zp), dealias(g, 1.0 / st_b.Zp)
    lhs = fa * ga - U(fb * gb)
    rhs = U(fb) * (ga - U(gb)) + (fa - U(fb)) * ga
    prod_resid = float(np.max(np.abs(lhs - rhs)))
    assert prod_resid < 1e-12

    # line-oracle triple-bracket identity, residual decaying with resolution
    f = lambda x: np.exp(-((x - 0.5) / 1.4) ** 2)
    hfun = lambda x: np.sin(0.7 * x) * np.exp(-(x / 2.2) ** 2)
    gfun = lambda x: np.exp(-((x + 0.8) / 1.1) ** 2)
    from oracles import commutator_line_oracle

    resids = []
    for n in (512, 1024, 2048):
        x, dcomm = commutator_line_oracle(f, gfun, window=40.0, resolution=n, derivative=True)
        hgrid = x[1] - x[0]
        nd = lambda arr: (-np.roll(arr, -2) + 8 * np.roll(arr, -1)
                          - 8 * np.roll(arr, 1) + np.roll(arr, 2)) / (12 * hgrid)
        fd, gd = nd(f(x)), nd(gfun(x))
        _, t1 = commutator_line_oracle(lambda xx: np.interp(xx, x, hfun(x) * fd), gfun,
                                       window=40.0, resolution=n)
        _, t2 = commutator_line_oracle(f, lambda xx: np.interp(xx, x, hfun(x) * gd),
                                       window=40.0, resolution=n)
        _, t3 = triple_bracket_line_oracle(hfun, f, lambda xx: np.interp(xx, x, gd),
                                           window=40.0, resolution=n)
        resids.append(float(np.max(np.abs(hfun(x) * dcomm - (t1 + t2 - t3)))))
    assert resids[-1] < resids[0] and resids[-1] < 2e-4

    # boundedness ensembles (constants reported, finiteness asserted)
    comm_ratios, triple_ratios = [], []
    for _ in range(100):
        f1 = dealias(g, random_real_field(g, RNG, 8, 1.0) + 1j * random_real_field(g, RNG, 8, 1.0))
        f2 = dealias(g, random_real_field(g, RNG, 8, 1.0) + 1j * random_real_field(g, RNG, 8, 1.0))
        f3 = random_holomorphic(g, RNG, n_modes=8, amp=1.0)
        comm = commutator_bracket(g, f1, f2)
        comm_ratios.append(
            g.l2_norm(comm) / (linf_norm(g, g.deriv(f1)) * g.l2_norm(f2))
        )
        trip = triple_bracket_periodic(g, f1, f2, f3)
        triple_ratios.append(
            g.l2_norm(trip)
            / (g.l2_norm(g.deriv(f1)) * g.l2_norm(g.deriv(f2)) * g.l2_norm(f3))
        )
    hcal_ratios, diff_ratios = [], []
    gsm = make_grid(128)
    for _ in range(100):
        m = random_monotone_map(gsm, RNG, max_slope=0.5)
        fr = dealias(gsm, RNG.standard_normal(128) + 1j * RNG.standard_normal(128))
        hcal_ratios.append(gsm.l2_norm(hcal_apply(gsm, fr, m)) / gsm.l2_norm(fr))
        dev = float(np.max(np.abs(m.jac - 1.0)))
        diff = gsm.l2_norm(gsm.hilbert(fr) - hcal_apply(gsm, fr, m))
        diff_ratios.append(diff / (dev * gsm.l2_norm(fr)))
    for ratios in (comm_ratios, triple_ratios, hcal_ratios, diff_ratios):
        assert np.isfinite(ratios).all() and max(ratios) < 50.0
    _report(
        8,
        "chain rule resid {:.1e}; conjugation vs quadrature {:.1e}; product rule "
        "{:.1e}; line identity resid {:.1e}->{:.1e}; ensemble constants: commutator "
        "{:.2f}, triple {:.2f}, hcal {:.2f}, (H-Hcal)/|h'-1| {:.2f}".format(
            worst_chain, worst_hcal, prod_resid, resids[0], resids[-1],
            max(comm_ratios), max(triple_ratios), max(hcal_ratios), max(diff_ratios),
        ),
    )


# -- 9 ---------------------------------------------------------------------------


def test_criterion_09_crest_curvature_scaling():
    nu = 0.35
    grid = make_grid(4096, length=8 * np.pi)
    base = crest_data(CrestSpec(nu=nu), grid)
    eps_list = (0.2, 0.1, 0.05, 0.025)
    kappas = []
    for eps in eps_list:
        der = compute_derived(mollify_data(base, eps))
        kappas.append(float(np.max(np.abs(der.Theta.real))))
    slope = float(np.polyfit(np.log(eps_list), np.log(kappas), 1)[0])
    assert abs(slope - (-nu)) < 0.1 * nu
    _report(9, f"curvature sup scaling slope {slope:.4f} vs -nu = {-nu} "
               f"(within 10%), kappas={['%.3f' % k for k in kappas]}")


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_initial_difference_energy_scaling():
    grid = make_grid(256)
    base = mollify_data(crest_data(CrestSpec(nu=0.35, velocity_amplitude=0.05j), grid), 0.2)
    sigmas = (1e-2, 1e-3, 1e-4, 1e-5)
    e0 = []
    for s in sigmas:
        pair = init_pair(replace(base, sigma=s), replace(base, sigma=0.0))
        e0.append(energy_delta(pair).total)
    slope = float(np.polyfit(np.log(sigmas), np.log(e0), 1)[0])
    assert 0.9 <= slope <= 1.1
    _report(10, f"log E_delta(0) vs log sigma slope = {slope:.4f} in [0.9, 1.1]")


# -- 11 and 12 share their pair runs ----------------------------------------------


@pytest.fixture(scope="module")
def scaling_regime_runs():
    specs = [
        PairRunSpec(sigma=eps ** 1.5, epsilon=eps, nu=0.35, velocity_amplitude=0.05j,
                    n_points=768, t_final=0.25, min_steps=64, record_every=16)
        for eps in (0.2, 0.1, 0.05)
    ]
    return run_convergence_study(specs)


@pytest.fixture(scope="module")
def sigma_limit_runs():
    specs = [
        PairRunSpec(sigma=s, epsilon=0.1, nu=0.35, velocity_amplitude=0.05j,
                    n_points=768, t_final=0.25, min_steps=64, record_every=16)
        for s in (1e-3, 1e-4, 1e-5)
    ]
    return run_convergence_study(specs)


def test_criterion_11_scaling_regime_uniformity(scaling_regime_runs):
    study = scaling_regime_runs
    assert all(r.ok for r in study.runs), [r.error for r in study.runs]
    assert study.e0_max_over_min < 5.0
    sig_growth = []
    for r in study.runs:
        totals = [rep.total for rep in r.sigma_a_reports]
        sig_growth.append(max(totals) / totals[0])
        assert max(totals) <= 10.0 * totals[0]
    _report(
        11,
        f"sigma = eps^1.5 family: E_delta(0) max/min = {study.e0_max_over_min:.2f} < 5; "
        f"E_sigma(a) growth over run per eps: {['%.3f' % v for v in sig_growth]} "
        "(all within factor 10)",
    )


def test_criterion_12_zero_surface_tension_limit(sigma_limit_runs):
    study = sigma_limit_runs
    assert all(r.ok for r in study.runs), [r.error for r in study.runs]
    assert study.growth_uniformity < 3.0
    runs = sorted(study.runs, key=lambda r: r.spec.sigma)
    sup_f = [r.f_delta_sup for r in runs]
    assert all(sup_f[i] < sup_f[i + 1] for i in range(len(sup_f) - 1))
    # F_delta -> 0 as sigma -> 0: positive slope of log sup F vs log sigma
    assert study.slope_supf_vs_sigma > 0
    _report(
        12,
        f"growth-ratio uniformity {study.growth_uniformity:.3f} < 3; sup F_delta "
        f"= {['%.2e' % v for v in sup_f]} decreasing with sigma "
        f"(log-log slope {study.slope_supf_vs_sigma:.3f}, trend F -> 0 confirmed)",
    )


# -- 13 --------------------------------------------------------------------------


def test_criterion_13_empirical_envelopes_labeled(scaling_regime_runs, sigma_limit_runs):
    # existence times and proof constants are not quantitatively reproducible;
    # the bounded-growth envelopes of criteria 11-12 stand in for them and are
    # recorded as empirical fits only
    for study in (scaling_regime_runs, sigma_limit_runs):
        assert study.growth_ratio_max is not None and np.isfinite(study.growth_ratio_max)
    _report(
        13,
        "proof constants covered by empirical envelopes: growth-ratio maxima "
        f"{scaling_regime_runs.growth_ratio_max:.3f} (eps-family) and "
        f"{sigma_limit_runs.growth_ratio_max:.3f} (sigma-family), labeled empirical",
    )
