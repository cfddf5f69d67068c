"""Raw FFT calls of one step and one pair record: each round of independent
Fourier multipliers is one stacked transform, a derive is two rounds, a
step's finish one FFT pair and a record's sup norms one stacked call, so
these counts only grow if a round is split."""

from dataclasses import replace

import numpy as np
import pytest

from crestwave.energies import energy_aux, energy_delta, energy_sigma, f_delta_norm
from crestwave.evolution import StepperConfig, cfl_bound, step_rk4
from crestwave.pair import PairRunSpec, build_pair, co_step
from crestwave.spectral import SpectralGrid

TRANSFORMS = ("fft", "ifft", "rfft", "irfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the numpy.fft transforms called from its set-up on; tests
    request it after the fixtures that build their inputs."""
    counts = dict.fromkeys(TRANSFORMS, 0)
    for name in TRANSFORMS:
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture
def stepped():
    """A crest pair one co_step in, its dt and stepper: nothing is kept on its
    states yet, as inside a run."""
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    return co_step(pair, cfg, dt), cfg, dt


# per step: four derives of two rounds, at any sigma, and one finish
# (dealias and projection as one FFT pair)
@pytest.mark.parametrize("member, expected", [
    ("state_a", {"fft": 9, "ifft": 9, "rfft": 0, "irfft": 0}),
    ("state_b", {"fft": 9, "ifft": 9, "rfft": 0, "irfft": 0}),
])
def test_step_rk4_transform_calls(stepped, fft_calls, member, expected):
    pair, cfg, dt = stepped
    step_rk4(getattr(pair, member), cfg, dt)
    assert fft_calls == expected


def test_co_step_transform_calls(stepped, fft_calls):
    # per stage one two-round derive of both solutions, whose first round
    # also differentiates k_a and k_b in stages 2 to 4; then one finish of
    # both solutions and both maps, and the Jacobians of the new k_a and
    # k_b; no spread (the rfft/irfft pairs), no inverse and no composition
    pair, cfg, dt = stepped
    co_step(pair, cfg, dt)
    assert fft_calls == {"fft": 11, "ifft": 11, "rfft": 0, "irfft": 0}


def test_co_step_makes_no_nufft_call(stepped, monkeypatch):
    # the maps are transported on the grid: no kernel weights, no spread
    # and no interpolation anywhere in a pair step
    pair, cfg, dt = stepped
    calls = []
    for name in ("nufft_kernel", "spread", "interpolate"):
        method = getattr(SpectralGrid, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(SpectralGrid, name, counted)
    co_step(pair, cfg, dt)
    assert calls == []
    # the counters see the calls of a record
    pair.map_tilde
    assert "nufft_kernel" in calls and "spread" in calls


def test_record_transform_calls(stepped, fft_calls):
    # energy_delta, f_delta_norm and energy_sigma(a), as drive_pair records:
    # 10 multiplier calls (the four stacked block calls of both states, D
    # Theta and D(htilde_ap - 1), the two rounds of one derive of both
    # states, b_ap of each state), the Jacobian of htilde, 10 H^1/2 norms,
    # and one stacked sup norm of five complex rows (one coefficient
    # transform for the stack); then one rfft/irfft pair for each of the
    # five seed grids (the real and imaginary parts of one row) and for each
    # of the three spreads: the two complex ones through htilde (the h_alpha
    # term rides in the one of f_delta_norm) and the real one of the Newton
    # solve of k_b(x) = k_a(alpha) that builds htilde
    pair, _, _ = stepped
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    assert fft_calls == {"fft": 22, "ifft": 11, "rfft": 8, "irfft": 8}


def test_record_takes_one_stacked_sup_norm(stepped, monkeypatch):
    # energy_delta stacks its three rows with sup |Z_ap^(1/2) D(1/Z_ap)| of
    # a and of b, and keeps those two on the states for energy_sigma(a)
    # and energy_aux(b), which then take no sup norm of their own
    pair, _, _ = stepped
    a, b = pair.state_a, pair.state_b
    shapes = []
    sup_norm = SpectralGrid.sup_norm

    def counted(self, f):
        shapes.append(np.shape(f))
        return sup_norm(self, f)

    monkeypatch.setattr(SpectralGrid, "sup_norm", counted)
    delta = energy_delta(pair)
    f_delta_norm(pair)
    sigma_a = energy_sigma(a)
    aux_b = energy_aux(b)
    assert shapes == [(5, a.grid.n)]
    assert delta.components["coupling_sigma_aux_b"] == a.sigma * aux_b.total
    # the kept values are those of one-row calls on fresh states
    assert energy_sigma(replace(a)).components == sigma_a.components
    assert energy_aux(replace(b)).components == aux_b.components
    assert shapes[1:] == [(1, a.grid.n), (1, a.grid.n)]
