"""Raw FFT calls of one step and one pair record: each round of independent
Fourier multipliers is one stacked transform, so these counts only grow if a
round is split."""

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


# per step: four derives of three rounds (two at sigma = 0), one stacked
# dealias and one stacked projection
@pytest.mark.parametrize("member, expected", [
    ("state_a", {"fft": 14, "ifft": 14, "rfft": 0, "irfft": 0}),
    ("state_b", {"fft": 10, "ifft": 10, "rfft": 0, "irfft": 0}),
])
def test_step_rk4_transform_calls(stepped, fft_calls, member, expected):
    pair, cfg, dt = stepped
    step_rk4(getattr(pair, member), cfg, dt)
    assert fft_calls == expected


def test_co_step_transform_calls(stepped, fft_calls):
    # per stage one three-round derive of both solutions and one spread of
    # both drifts (the rfft/irfft pairs); then one dealias and one
    # projection of both solutions, and the map Jacobians, inverse and
    # composition
    pair, cfg, dt = stepped
    co_step(pair, cfg, dt)
    assert fft_calls == {"fft": 20, "ifft": 20, "rfft": 6, "irfft": 6}


def test_record_transform_calls(stepped, fft_calls):
    # energy_delta, f_delta_norm and energy_sigma(a), as drive_pair records:
    # 16 multiplier calls (the five stacked block rounds of both states,
    # D Theta and D(htilde_ap - 1), the five derive rounds, D Z_t and b_ap
    # of each state), 10 H^1/2 norms, four sup norms (the two real ones as
    # one stack) and three spreads (the two stacks through htilde, the real
    # h_alpha term through h_a^{-1})
    pair, _, _ = stepped
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    assert fft_calls == {"fft": 32, "ifft": 21, "rfft": 1, "irfft": 2}
    # the h_alpha term goes through the inverse of h_a that co_step kept
    assert "_inverse" not in vars(pair.map_b)
