import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from crestwave.errors import HolomorphicityError
from crestwave.evolution import compute_derived
from crestwave.initial_data import CrestSpec, _binomial_series, crest_data
from crestwave.spectral import make_grid

from helpers import estimate_M, positive_mode_mass
from oracles import binomial_series_scalar, crest_unmollified, mollify_data



def test_crest_spec_validation():
    with pytest.raises(ValueError):
        CrestSpec(nu=0.7)
    with pytest.raises(ValueError):
        CrestSpec(nu=0.5)
    with pytest.raises(ValueError):
        CrestSpec(nu=0.3, regularization_delta=-0.1)
    with pytest.raises(ValueError):
        CrestSpec(nu=0.3, velocity_mode=1)
    with pytest.raises(ValueError, match="regularization_delta"):
        CrestSpec(nu=0.3, regularization_delta=float("nan"))


def test_degenerate_exponent_limit_is_flat():
    # nu -> 1 corresponds to exponent 0: the series collapses to 1
    coef = _binomial_series(0.0, 32)
    assert coef[0] == 1.0
    assert np.max(np.abs(coef[1:])) == 0.0
    coef2 = _binomial_series(-1e-12, 32)
    assert np.max(np.abs(coef2[1:])) < 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mu=hst.floats(-1.0, 0.0), n=hst.integers(1, 1025))
@example(mu=0.0, n=1025)
@example(mu=-1e-12, n=1025)
def test_binomial_series_has_the_bytes_of_the_scalar_recurrence(mu, n):
    # the recurrence on Python floats rounds as the numpy-scalar loop does
    assert _binomial_series(mu, n).tobytes() == binomial_series_scalar(mu, n).tobytes()


def test_binomial_series_is_kept_read_only_and_crest_data_repeats_its_bytes():
    _binomial_series.cache_clear()
    series = _binomial_series(-0.65, 33)
    assert _binomial_series(-0.65, 33) is series
    assert not series.flags.writeable
    with pytest.raises(ValueError):
        series[1] = 0.0
    # a fresh series, then the kept one
    _binomial_series.cache_clear()
    g = make_grid(64)
    spec = CrestSpec(nu=0.35, regularization_delta=0.05, velocity_amplitude=0.05j)
    first, again = crest_data(spec, g, sigma=1e-2), crest_data(spec, g, sigma=1e-2)
    assert _binomial_series.cache_info().hits == 1
    assert first == again


def test_crest_holomorphic_by_construction():
    g = make_grid(1024)
    st = crest_data(CrestSpec(nu=0.35, velocity_amplitude=0.03j), g)
    assert positive_mode_mass(g, st.Zp - 1.0) < 1e-10
    assert positive_mode_mass(g, np.conj(st.Zt)) < 1e-12
    assert abs(np.mean(st.Zp) - 1.0) < 1e-13
    assert np.max(np.abs(g.deriv(st.Zdev) - (st.Zp - 1.0))) < 1e-10


def test_crest_local_slope():
    g = make_grid(2048)
    nu = 0.35
    st = crest_data(CrestSpec(nu=nu, regularization_delta=0.0), g)
    ac = 0.5 * g.dx
    r = np.abs(g.nodes - ac)
    sel = (r > 20 * g.dx) & (r < 0.3)
    slope = np.polyfit(np.log(r[sel]), np.log(np.abs(st.Zp[sel])), 1)[0]
    assert abs(slope - (nu - 1.0)) < 0.03 * abs(nu - 1.0)


def test_crest_state_invariants():
    g = make_grid(512)
    for delta in (0.05, 0.0):
        st = crest_data(CrestSpec(nu=0.3, regularization_delta=delta), g)
        assert float(np.min(np.abs(st.Zp))) > 0.1
        assert positive_mode_mass(g, st.Zp - 1.0) < 1e-10


def test_mollify_identity_and_semigroup():
    g = make_grid(512)
    st = crest_data(CrestSpec(nu=0.4, regularization_delta=0.1,
                              velocity_amplitude=0.02j), g)
    same = mollify_data(st, 0.0)
    assert np.max(np.abs(same.Zp - st.Zp)) < 1e-12
    one = mollify_data(mollify_data(st, 0.07), 0.13)
    two = mollify_data(st, 0.2)
    assert np.max(np.abs(one.Zp - two.Zp)) < 1e-12
    assert np.max(np.abs(one.Zt - two.Zt)) < 1e-12


@pytest.mark.parametrize("n", [64, 768, 2048])
@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_crest_mollified_in_its_spectrum_is_the_mollified_crest(n, eps, delta):
    # the mollifier damps the crest's series before its one transform
    g = make_grid(n)
    spec = CrestSpec(nu=0.35, regularization_delta=delta, velocity_amplitude=0.05j,
                     velocity_mode=-3)
    fused = crest_data(spec, g, sigma=1e-2, epsilon=eps)
    ref = mollify_data(crest_data(spec, g, sigma=1e-2), eps)
    for name in ("Zdev", "Zp", "Zt"):
        field, expect = getattr(fused, name), getattr(ref, name)
        assert np.max(np.abs(field - expect)) <= 1e-12 * np.max(np.abs(expect)), name
    # Z_ap comes from its own series, not as 1 + D of a rounded Zdev, so its
    # positive modes are those of one transform round trip alone
    assert positive_mode_mass(g, fused.Zp - 1.0) <= 1e-15


@pytest.mark.parametrize("n", [64, 768])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_crest_of_zero_epsilon_keeps_the_unmollified_bytes(n, delta):
    g = make_grid(n)
    spec = CrestSpec(nu=0.35, regularization_delta=delta, velocity_amplitude=0.03 - 0.02j,
                     velocity_mode=-2)
    ref = crest_unmollified(spec, g, sigma=1e-3)
    for st in (crest_data(spec, g, sigma=1e-3), crest_data(spec, g, sigma=1e-3, epsilon=0.0)):
        for name in ("Zdev", "Zp", "Zt"):
            assert getattr(st, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("eps, message", [
    (-0.05, "mollification scale must be >= 0"),
    (float("nan"), "mollification scale must be >= 0"),
    (float("inf"), "mollification scale must be finite"),
])
def test_crest_data_refuses_a_bad_scale(eps, message):
    with pytest.raises(ValueError, match=message):
        crest_data(CrestSpec(nu=0.35), make_grid(64), epsilon=eps)


@pytest.mark.parametrize("eps", [-0.05, float("nan")])
def test_mollify_refuses_a_negative_or_nan_scale(eps):
    st = crest_data(CrestSpec(nu=0.35), make_grid(64))
    with pytest.raises(ValueError, match="mollification scale must be >= 0"):
        mollify_data(st, eps)


def test_mollified_crest_regular_and_curvature_growth():
    g = make_grid(2048)
    st = crest_data(CrestSpec(nu=0.35), g)
    kappas = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        stm = mollify_data(st, eps)
        assert float(np.min(np.abs(stm.Zp))) > 0.0
        der = compute_derived(stm)
        kappas.append(float(np.max(np.abs(der.Theta.real))))
    assert all(kappas[i] < kappas[i + 1] for i in range(len(kappas) - 1))


def test_estimate_m_flat_zero():
    g = make_grid(256)
    from crestwave.evolution import flat_state

    m = estimate_M(flat_state(g))
    assert m.total == 0.0


def test_estimate_m_single_mode_decay():
    g = make_grid(256)
    mu = 0.05
    Zp = 1.0 + mu * np.exp(-1j * g.nodes)
    from crestwave.evolution import make_state

    st = make_state(g, 1j * mu * np.exp(-1j * g.nodes), Zp, np.zeros(256, complex), 0.0)
    m = estimate_M(st, depth_ladder=[-1.0])
    # at depth y the mode carries e^{-|y|}; 1/Psi - 1 = -mu e^{-1} e^{-ia} + O(mu^2)
    expect = mu * np.exp(-1.0) * np.sqrt(2 * np.pi)
    assert abs(m.components["invPsi_minus1_L2"] - expect) < 20 * mu ** 2


def test_estimate_m_crest_growth_and_ladder_monotonicity():
    g = make_grid(1024)
    totals = []
    for delta in (0.1, 0.03, 0.01):
        st = crest_data(CrestSpec(nu=0.35, regularization_delta=delta), g)
        m = estimate_M(st)
        assert np.isfinite(m.total)
        totals.append(m.total)
    assert totals[0] < totals[1] < totals[2]
    st = crest_data(CrestSpec(nu=0.35, regularization_delta=0.05), g)
    coarse = estimate_M(st, depth_ladder=[-0.5, -0.125])
    fine = estimate_M(st, depth_ladder=[-0.5, -0.25, -0.125, -0.0625])
    assert fine.total >= coarse.total - 1e-12


def test_estimate_m_rejects_nonholomorphic():
    g = make_grid(256)
    from crestwave.evolution import make_state

    Zp = 1.0 + 0.05 * np.exp(2j * g.nodes)
    st = make_state(g, np.zeros(256, complex), Zp, np.zeros(256, complex), 0.0)
    with pytest.raises(HolomorphicityError):
        estimate_M(st)


@pytest.mark.parametrize("ladder", [[-0.5, float("nan")], [], [-0.5, 0.0], [-0.5, -float("inf")]])
def test_estimate_m_refuses_a_nan_nonnegative_or_empty_ladder(ladder):
    # a NaN or infinite depth would otherwise be dropped and an empty
    # ladder give 0
    st = crest_data(CrestSpec(nu=0.35, regularization_delta=0.05), make_grid(64))
    with pytest.raises(ValueError, match="depth ladder"):
        estimate_M(st, depth_ladder=ladder)
