import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from crestwave.cli import write_reports_csv
from crestwave.energies import (
    EnergyReport,
    _state_blocks,
    energy_aux,
    energy_delta,
    energy_high,
    energy_sigma,
    f_delta_norm,
)
from crestwave.evolution import (
    StepperConfig,
    cfl_bound,
    compute_derived,
    derive_states,
    flat_state,
    make_state,
)
from crestwave.pair import PairRunSpec, PairState, build_pair, co_step, init_pair
from crestwave.spectral import make_grid

from helpers import random_real_field, random_smooth_state, refine_state, rolled_pair, rolled_state
from oracles import (
    blocks_chained,
    dealias,
    energy_aux_terms,
    energy_delta_terms,
    energy_sigma_terms,
    f_delta_norm_terms,
    linf_norm,
    weighted_norm,
)

TWO_PI = 2 * np.pi


# -- weighted norms ---------------------------------------------------------------


def test_norm_examples():
    g = make_grid(128)
    st = flat_state(g)
    mode = np.exp(2j * g.nodes)
    assert abs(weighted_norm(st, mode, "Hhalf") ** 2 - 2 * TWO_PI) < 1e-12
    const = (3 - 4j) * np.ones(128)
    assert weighted_norm(st, const, "Hhalf") < 1e-12
    assert abs(weighted_norm(st, const, "Linf") - 5.0) < 1e-14
    d = compute_derived(st)
    assert abs(weighted_norm(st, d.omega, "Wspace") - 1.0) < 1e-13


def test_wspace_product_inequality():
    rng = np.random.default_rng(404)
    # ||w1 w2||_W <= ||w1||_W ||w2||_W pointwise product rule gives this
    g = make_grid(128)
    st = random_smooth_state(g, rng, amp=0.2)
    for _ in range(50):
        w1 = dealias(g, random_real_field(g, rng, 5, 0.8) + 1j * random_real_field(g, rng, 5, 0.8))
        w2 = dealias(g, random_real_field(g, rng, 5, 0.8) + 1j * random_real_field(g, rng, 5, 0.8))
        lhs = weighted_norm(st, w1 * w2, "Wspace")
        rhs = weighted_norm(st, w1, "Wspace") * weighted_norm(st, w2, "Wspace")
        assert lhs <= rhs * (1 + 1e-9)


def test_linfty_hhalf_weighted_interpolation():
    rng = np.random.default_rng(404)
    # ||f||_inf^2 <= C ||f/w||_2 ||w f'||_2 with weights away from zero
    g = make_grid(256)
    ratios = []
    for _ in range(60):
        f = dealias(g, random_real_field(g, rng, 8, 1.0) + 1j * random_real_field(g, rng, 8, 1.0))
        w = 1.0 + 0.6 * np.sin(g.nodes + rng.uniform(0, TWO_PI))
        num = linf_norm(g, f) ** 2
        den = g.l2_norm(f / w) * g.l2_norm(w * g.deriv(f))
        if den > 1e-14:
            ratios.append(num / den)
    print(f"\n  Linf-Hhalf interpolation constant over ensemble: {max(ratios):.3f}")
    assert max(ratios) < 10.0


# -- single-state energies -----------------------------------------------------------


def test_flat_energies_vanish():
    g = make_grid(128)
    for fam in (energy_sigma, energy_high, energy_aux):
        rep = fam(flat_state(g, sigma=0.02))
        assert rep.total == 0.0


def test_sigma_zero_leaves_four_terms():
    rng = np.random.default_rng(404)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=0.0)
    rep = energy_sigma(st)
    nonzero = {k for k, v in rep.components.items() if v > 1e-20}
    assert nonzero == {
        "dap_invZp_L2sq",
        "invZp_dap_invZp_Hhalfsq",
        "Ztapbar_L2sq",
        "invZp2_dap_Ztapbar_L2sq",
    }


def test_state_with_kept_energy_results_pickles():
    rng = np.random.default_rng(404)
    # what the energies keep on a state holds no closures, so the state
    # still crosses a process boundary
    st = random_smooth_state(make_grid(64), rng, sigma=1e-2)
    ref = [energy_sigma(st), energy_high(st), compute_derived(st).Ztt]
    back = pickle.loads(pickle.dumps(st))
    assert energy_sigma(back).components == ref[0].components
    assert energy_high(back).components == ref[1].components
    assert np.array_equal(compute_derived(back).Ztt, ref[2])


def test_blocks_of_a_pair_built_in_one_pass_equal_blocks_built_alone():
    rng = np.random.default_rng(405)
    g = make_grid(128)
    a = random_smooth_state(g, rng, sigma=1e-2, amp=0.15)
    b = random_smooth_state(g, rng, sigma=0.0, amp=0.15)
    energy_delta(init_pair(a, b))
    for st in (a, b):
        # replace starts with nothing kept: these blocks are built alone
        alone = replace(st)
        energy_sigma(alone)
        kept, ref = st._memo["energy_blocks"], alone._memo["energy_blocks"]
        assert kept.keys() == ref.keys()
        for name in ("inv", "d1", "d2", "d3", "Ztb1", "Ztb2", "Ztb3", "omega", "Theta", "log_Zp"):
            assert kept[name].tobytes() == ref[name].tobytes(), name
        assert energy_sigma(st).components == energy_sigma(alone).components


@pytest.mark.parametrize("n, fraction", [(256, 2 / 3), (768, 2 / 3), (256, 1.0)])
def test_block_ladders_match_the_chain_of_first_derivatives(n, fraction):
    # each ladder takes dealias D^j of one spectrum; the chain transforms
    # back and forth between derivatives, and its round trips leave rounding
    # at every mode that D^j amplifies by up to k_cut^j (measured up to 3x
    # eps k_cut^j sup|f|, 2.6e-9 relative on d3 at n = 768).  The eps = 0.05
    # crest keeps content above the dealias cutoff in 1/Z_ap,band, so a
    # ladder without the filter fails; on a dealias_fraction = 1 grid, D^j
    # zeroes the Nyquist mode as the chain does
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.05, velocity_amplitude=0.05j,
                                  n_points=n, dealias=fraction))
    a, b = pair.state_a, pair.state_b
    g = a.grid
    eps = np.finfo(float).eps
    k_cut = np.max(np.abs(g.k)[g.symbol_table(("dealias",))[0].real > 0])
    for st, blocks in zip((a, b), _state_blocks(a, b)):
        ref = blocks_chained(st)
        # the band, its filtered inverse and omega take the same transforms
        for name in ("inv", "omega"):
            assert np.array_equal(blocks[name], ref[name]), name
        sup_inv, sup_Ztb = np.max(np.abs(ref["inv"])), np.max(np.abs(st.Zt))
        for name, f_sup, j in (("d1", sup_inv, 1), ("d2", sup_inv, 2), ("d3", sup_inv, 3),
                               ("Ztb1", sup_Ztb, 1), ("Ztb2", sup_Ztb, 2), ("Ztb3", sup_Ztb, 3)):
            gap = np.max(np.abs(blocks[name] - ref[name]))
            assert gap <= 8 * eps * k_cut ** j * f_sup, (name, gap)
        gap = np.max(np.abs(blocks["Theta"] - ref["Theta"])) / np.max(np.abs(ref["Theta"]))
        assert gap <= 1e-12


def test_sigma_energy_monotone_in_sigma():
    rng = np.random.default_rng(404)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=0.0)
    values = []
    for s in (0.0, 1e-4, 1e-3, 1e-2, 1e-1):
        values.append(energy_sigma(replace(st, sigma=s)).total)
    assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def test_energy_high_single_mode_frozen_values():
    g = make_grid(128)
    delta = 0.1 - 0.05j
    Zt = np.conj(delta * np.exp(-1j * g.nodes))
    st = make_state(g, np.zeros(128, complex), np.ones(128, complex), Zt, 0.0)
    rep = energy_high(st)
    mag = abs(delta) ** 2 * TWO_PI
    assert abs(rep.components["Ztapbar_L2sq"] - mag) < 1e-13
    assert abs(rep.components["invZp2_dap_Ztapbar_L2sq"] - mag) < 1e-13
    assert abs(rep.components["invZp3_dap_Ztapbar_Hhalfsq"] - mag) < 1e-13
    assert rep.components["dap_invZp_L2sq"] == 0.0


def test_energy_aux_term_structure():
    rng = np.random.default_rng(404)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=0.0)
    st = replace(st, Zt=np.zeros(128, complex))
    rep = energy_aux(st)
    for name in ("invZp12_dap_Ztapbar_L2sq", "invZp52_dap2_Ztapbar_L2sq",
                 "invZp72_dap2_Ztapbar_Hhalfsq"):
        assert rep.components[name] == 0.0
    for name in ("Zp12_dap_invZp_Linfsq", "invZp12_dap2_invZp_L2sq",
                 "invZp52_dap3_invZp_L2sq"):
        assert rep.components[name] > 0.0


def test_spectral_convergence_on_refinement():
    g = make_grid(128)
    st = random_smooth_state(g, np.random.default_rng(7001), sigma=1e-2, amp=0.08)
    st2 = refine_state(st, 256)
    for fam in (energy_sigma, energy_high, energy_aux):
        a = fam(st)
        b = fam(st2)
        for k in a.components:
            va, vb = a.components[k], b.components[k]
            assert abs(va - vb) <= 1e-8 * max(1.0, abs(va)), (fam.__name__, k, va, vb)


# -- pair energies --------------------------------------------------------------------


def test_identical_pair_zero_delta_energy():
    rng = np.random.default_rng(404)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=0.0)
    pair = init_pair(st, replace(st, sigma=0.0))
    rep = energy_delta(pair)
    assert rep.total < 1e-25
    repf = f_delta_norm(pair)
    assert repf.total < 1e-12


def test_identical_data_sigma_weighted_terms_only():
    rng = np.random.default_rng(404)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=0.0)
    pair = init_pair(replace(st, sigma=1e-3), st)
    rep = energy_delta(pair)
    for name, val in rep.components.items():
        if name.startswith(("d1_a_", "d2_a_", "coupling")):
            assert val > 0.0, name
        else:
            assert val < 1e-25, name
    aux_b = energy_aux(pair.state_b).total
    assert abs(rep.components["coupling_sigma_aux_b"] - 1e-3 * aux_b) < 1e-15 * aux_b


def test_f_delta_velocity_mode_closed_forms():
    # b-solution differs by Zbar_t = delta e^{-ia}; leading-order components
    g = make_grid(128)
    delta = 1e-3
    st_a = flat_state(g, 0.0)
    Zt = np.conj(delta * np.exp(-1j * g.nodes))
    st_b = make_state(g, np.zeros(128, complex), np.ones(128, complex), Zt, 0.0)
    rep = f_delta_norm(init_pair(st_a, st_b))
    c = rep.components
    tol = 20 * delta ** 2
    assert abs(c["fd_delta_Zt_Hhalf"] - delta * np.sqrt(TWO_PI)) < tol
    assert abs(c["fd_delta_DapZt_L2"] - delta * np.sqrt(TWO_PI)) < tol
    assert abs(c["fd_delta_bap_L2"] - 2 * delta * np.sqrt(np.pi)) < tol
    assert abs(c["fd_delta_A1_L2"] - delta ** 2 * np.sqrt(TWO_PI)) < 1e-12
    assert c["fd_delta_Ztt_Hhalf"] < 1e-10
    assert c["fd_delta_invZp_Hhalf"] < 1e-12
    assert c["fd_delta_halpha_L2"] < 1e-10


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(404)
    g = make_grid(64)
    st = random_smooth_state(g, rng, sigma=1e-2, amp=0.1)
    reports = [energy_sigma(st)]
    path = tmp_path / "energy_sigma.csv"
    write_reports_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# crestwave-csv v1 family=sigma")
    header = lines[1].split(",")
    row = lines[2].split(",")
    assert header[0] == "time" and header[-1] == "total"
    assert len(header) == len(row) == 2 + len(reports[0].components)
    assert abs(float(row[-1]) - reports[0].total) < 1e-15

def test_write_reports_csv_refuses_before_opening(tmp_path):
    # a list of two families, and one whose report lacks a column of its
    # family, are refused before the file is opened: no truncated CSV
    st = random_smooth_state(make_grid(64), np.random.default_rng(404), sigma=1e-2, amp=0.1)
    sigma = energy_sigma(st)
    short = replace(sigma, components=dict(list(sigma.components.items())[1:]))
    for name, reports in (("mixed", [sigma, energy_high(st)]), ("short", [sigma, short])):
        path = tmp_path / f"{name}.csv"
        with pytest.raises(ValueError, match="sigma CSV takes sigma reports"):
            write_reports_csv(path, reports)
        assert not path.exists()
    # the header is the column list of the family's term table
    write_reports_csv(tmp_path / "ok.csv", [sigma])
    header = (tmp_path / "ok.csv").read_text().splitlines()[1]
    assert header == "time," + ",".join(sigma.columns) + ",total"


def test_reports_without_a_term_table_name_their_own_columns(tmp_path):
    # a family with no term table names its components, and its header
    # lines up with its rows
    custom = EnergyReport("custom", 0.5, {"x": 1.0, "y": 2.0})
    assert custom.columns == ("x", "y")
    write_reports_csv(tmp_path / "custom.csv", [custom, replace(custom, time=1.0)])
    lines = (tmp_path / "custom.csv").read_text().splitlines()
    assert lines[1:] == ["time,x,y,total", "0.5,1,2,3", "1,1,2,3"]
    with pytest.raises(ValueError, match="custom CSV takes custom reports"):
        write_reports_csv(tmp_path / "other.csv", [custom, replace(custom, components={"x": 1.0})])


def test_f_delta_norm_refuses_foreign_or_lone_derived_fields():
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=64))
    a, b = pair.state_a, pair.state_b
    der_a, der_b = compute_derived(a), compute_derived(b)
    assert f_delta_norm(pair, der_a, der_b).components == f_delta_norm(pair).components
    with pytest.raises(ValueError, match="together or neither"):
        f_delta_norm(pair, der_a)
    with pytest.raises(ValueError, match="together or neither"):
        f_delta_norm(pair, derived_b=der_b)
    # the fields of another state, here one whose velocity differs, are
    # refused, as are those of a state with equal but other arrays
    other = replace(b, Zt=b.Zt + 1e-3)
    with pytest.raises(ValueError, match="derived_b holds the derived fields of another state"):
        f_delta_norm(pair, der_a, compute_derived(other))
    twin = replace(a, Zp=a.Zp.copy())
    with pytest.raises(ValueError, match="derived_a holds the derived fields of another state"):
        f_delta_norm(pair, compute_derived(twin), der_b)
    # and so are those of a state that shares the arrays of a but not its
    # sigma, whose Z_tt differs
    doubled = replace(a, sigma=2 * a.sigma)
    with pytest.raises(ValueError, match="derived_a holds the derived fields of another state"):
        f_delta_norm(pair, compute_derived(doubled), der_b)


def test_pair_record_is_one_pass_whichever_family_is_read_first(monkeypatch):
    # energy_delta and f_delta_norm read one pass kept on the pair: the same
    # component bytes whichever is called first, and with or without the
    # derived fields, from one pull-back through htilde per pair
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    pair = co_step(pair, StepperConfig(), dt)
    pulls = []
    pull_back = PairState._pull_back

    def counted(self, fields):
        pulls.append(len(fields))
        return pull_back(self, fields)

    monkeypatch.setattr(PairState, "_pull_back", counted)

    def fresh():
        return PairState(replace(pair.state_a), replace(pair.state_b), pair.k_a, pair.k_b)

    def as_bytes(report):
        return tuple(report.components), np.array(list(report.components.values())).tobytes()

    delta_first = fresh()
    delta_1, f_delta_1 = energy_delta(delta_first), f_delta_norm(delta_first)
    f_delta_first = fresh()
    derived = derive_states((f_delta_first.state_a, f_delta_first.state_b))
    f_delta_2 = f_delta_norm(f_delta_first, *derived)
    delta_2 = energy_delta(f_delta_first)
    assert as_bytes(delta_1) == as_bytes(delta_2)
    assert as_bytes(f_delta_1) == as_bytes(f_delta_2)
    # without the derived fields
    assert as_bytes(f_delta_norm(fresh())) == as_bytes(f_delta_1)
    # a second read of either family takes no pass
    energy_delta(delta_first)
    f_delta_norm(f_delta_first)
    assert pulls == [22, 22, 22]


def test_term_tables_match_the_term_by_term_families():
    # the families of a stepped n = 256 pair from their term tables, one
    # pass per record, against the families written term by term on a
    # fresh copy of the pair: equal bit for bit but for the L-infinity
    # terms, whose stacked sup norms may round apart from single ones
    spec = PairRunSpec(sigma=1e-2, epsilon=0.1, velocity_amplitude=0.05j, n_points=256)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    for _ in range(4):
        pair = co_step(pair, cfg, dt)
    copy = PairState(replace(pair.state_a), replace(pair.state_b), pair.k_a, pair.k_b)
    checks = (
        (energy_delta(pair), energy_delta_terms(copy)),
        (f_delta_norm(pair), f_delta_norm_terms(copy)),
        (energy_sigma(pair.state_a), energy_sigma_terms(copy.state_a)),
        (energy_aux(pair.state_b), energy_aux_terms(copy.state_b)),
        (energy_aux(pair.state_a), energy_aux_terms(copy.state_a)),
    )
    for report, ref in checks:
        assert tuple(report.components) == tuple(ref) == report.columns
        for name, value in report.components.items():
            if "Linf" in name or name == "coupling_sigma_aux_b":
                assert abs(value - ref[name]) <= 1e-15 * abs(ref[name]), (report.family, name)
            else:
                assert np.float64(value).tobytes() == np.float64(ref[name]).tobytes(), name
        assert any(value > 0 for value in report.components.values())


# -- shift invariance ------------------------------------------------------------


def _roll_draw(n, seed):
    """A random smooth capillary state and a crest pair stepped once, so
    that its maps are not the identity, on a grid of n points; the crest
    pair needs eps 0.5 at n = 64, where eps 0.2 and 0.3 fail the
    holomorphicity check of its first steps."""
    rng = np.random.default_rng(seed)
    state = random_smooth_state(make_grid(n), rng, sigma=1e-2, amp=0.12)
    phase = np.exp(2j * np.pi * rng.random())
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.5, velocity_amplitude=0.05j * phase,
                                  n_points=n))
    dt = 0.3 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    return state, co_step(pair, StepperConfig(), dt)


def _component_gaps(report, rolled):
    assert tuple(rolled.components) == tuple(report.components)
    values = np.array(list(report.components.values()))
    return values, np.abs(np.array(list(rolled.components.values())) - values)


# a family of a rolled state, each component within ROLL_FAMILY_RTOL of its
# own size (measured at most 2.6e-14 over 30 draws, on an L-infinity term);
# a pair record of rolled states and maps, each component within
# ROLL_RECORD_RTOL of its family's total (measured at most 1.2e-14 of the
# total; its smallest components sit at rounding level, up to 5.8e-7 apart
# relative to themselves)
ROLL_FAMILY_RTOL = 1e-13
ROLL_RECORD_RTOL = 1e-13


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=hst.sampled_from([64, 128, 256]), j=hst.integers(1, 255),
       seed=hst.integers(0, 2**32 - 1))
def test_state_families_are_invariant_under_a_roll_of_the_labels(n, j, seed):
    # the energies are integrals over a period, so shifting the labels of a
    # state by j nodes changes no component beyond rounding
    j %= n
    state, pair = _roll_draw(n, seed)
    for st in (state, pair.state_a, pair.state_b):
        moved = rolled_state(st, j)
        for family in (energy_sigma, energy_high, energy_aux):
            values, gaps = _component_gaps(family(st), family(moved))
            assert np.all(gaps <= ROLL_FAMILY_RTOL * np.abs(values)), (family.__name__, gaps)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=hst.sampled_from([64, 128, 256]), j=hst.integers(1, 255),
       seed=hst.integers(0, 2**32 - 1))
def test_pair_record_is_invariant_when_both_states_and_both_maps_roll(n, j, seed):
    # htilde of the rolled maps is the rolled htilde, so every difference,
    # and with it every component of energy_delta and f_delta_norm, is that
    # of the pair up to rounding
    j %= n
    _, pair = _roll_draw(n, seed)
    moved = rolled_pair(pair, j)
    for family in (energy_delta, f_delta_norm):
        report = family(pair)
        values, gaps = _component_gaps(report, family(moved))
        assert np.all(gaps <= ROLL_RECORD_RTOL * report.total), (family.__name__, gaps)
