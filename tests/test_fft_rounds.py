"""Raw FFT calls of one step and one pair record: each round of independent
Fourier multipliers is one stacked transform, a derive is two rounds and a
step's finish one FFT pair, so these counts only grow if a round is split."""

import numpy as np
import pytest

from crestwave.energies import energy_delta, energy_sigma, f_delta_norm
from crestwave.evolution import StepperConfig, cfl_bound, step_rk4
from crestwave.pair import PairRunSpec, build_pair, co_step

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
    # per stage one two-round derive of both solutions and one spread of
    # both drifts (the rfft/irfft pairs); then one finish of both solutions
    # and the Jacobians of h_a and h_b; no inverse and no composition
    pair, cfg, dt = stepped
    co_step(pair, cfg, dt)
    assert fft_calls == {"fft": 11, "ifft": 11, "rfft": 4, "irfft": 4}


def test_record_transform_calls(stepped, fft_calls):
    # energy_delta, f_delta_norm and energy_sigma(a), as drive_pair records:
    # 11 multiplier calls (the five stacked block rounds of both states,
    # D Theta and D(htilde_ap - 1), the two rounds of one derive of both
    # states, b_ap of each state), the Jacobians of h_a^{-1} and htilde,
    # 10 H^1/2 norms, four sup norms (the two real ones as one stack), the
    # two complex spreads through htilde and three real ones (the Newton
    # loop of h_a^{-1}, the composition of htilde, the h_alpha term through
    # h_a^{-1})
    pair, _, _ = stepped
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    assert fft_calls == {"fft": 29, "ifft": 18, "rfft": 3, "irfft": 4}
    # the h_alpha term goes through the inverse of h_a that htilde built
    assert "_inverse" not in vars(pair.map_b)
