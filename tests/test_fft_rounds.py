"""Raw FFT calls of one step and one pair record: each round of independent
Fourier multipliers is one stacked transform, a derive is two rounds, a
step's finish one FFT pair and a record's sup norms one stacked call, so
these counts only grow if a round is split."""

from dataclasses import fields, replace

import numpy as np
import pytest

from crestwave import energies, evolution, spectral
from crestwave.energies import energy_delta, energy_sigma, f_delta_norm, state_energies
from crestwave.evolution import StepperConfig, cfl_bound, step_rk4
from crestwave.pair import PairRunSpec, build_pair, co_step
from crestwave.spectral import SpectralGrid

TRANSFORMS = ("fft", "ifft", "rfft", "irfft")


class TransformCalls(dict):
    """The number of calls of each transform, and in rows the (transform,
    row count) of every call, in order."""

    def __init__(self):
        super().__init__(dict.fromkeys(TRANSFORMS, 0))
        self.rows = []


@pytest.fixture
def fft_calls(monkeypatch):
    """The transforms called from its set-up on, counted at spectral's entry
    points (_fft, _ifft, _rfft, _irfft), through which every transform of
    the package goes; tests request it after the fixtures that build their
    inputs."""
    calls = TransformCalls()
    for name in TRANSFORMS:
        transform = getattr(spectral, "_" + name)

        def counted(a, *args, _name=name, _transform=transform, **kwargs):
            calls[_name] += 1
            calls.rows.append((_name, int(np.prod(np.shape(a)[:-1]))))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "_" + name, counted)
    return calls


@pytest.fixture
def stepped():
    """A crest pair one co_step in, its dt and stepper: nothing is kept on its
    states yet, as inside a run."""
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfg = StepperConfig()
    dt = 0.5 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    return co_step(pair, cfg, dt), cfg, dt


def test_build_pair_transform_calls(fft_calls):
    # the benchmark's set-up: build_pair, then the bounds of a and of b.
    # The crest's three spectra (Z_ap, Zdev, Zbar_t), mollified, come back
    # in one inverse transform; the identity maps carry their Jacobian, so
    # no zeros are transformed.  b shares a's arrays, so the derive of both
    # is that of a's one row (its rounds of 3 and 4 rows), and the bounds
    # read the kept fields
    spec = PairRunSpec(sigma=1e-2, epsilon=0.2, velocity_amplitude=0.05j, n_points=128)
    pair = build_pair(spec)
    cfl_bound(pair.state_a)
    cfl_bound(pair.state_b)
    assert fft_calls.rows == [("ifft", 3), ("fft", 3), ("ifft", 3), ("fft", 4), ("ifft", 4)]


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
    assert max(rows for _, rows in fft_calls.rows) <= 4


def test_co_step_transform_calls(stepped, fft_calls):
    # per stage one two-round derive of both solutions, whose first round
    # also differentiates the map row k_a + i k_b in stages 2 to 4; then
    # one finish of both solutions and that row, which also gives the new
    # maps' Jacobians; no spread (the rfft/irfft pairs), no inverse and no
    # composition
    pair, cfg, dt = stepped
    co_step(pair, cfg, dt)
    assert fft_calls == {"fft": 9, "ifft": 9, "rfft": 0, "irfft": 0}
    # round 1 transforms Z_t, ratio and the capillary omega (and k_a + i k_b
    # in stages 2 to 4); round 2 flux, conj(Z_tap), prod and the capillary
    # curv_im; the finish takes Zdev, Z_ap - 1, Z_t and the map row
    # forward and gives them back with D of the map row
    first = [("fft", 5), ("ifft", 5), ("fft", 7), ("ifft", 7)]
    stage = [("fft", 6), ("ifft", 6), ("fft", 7), ("ifft", 7)]
    assert fft_calls.rows == first + 3 * stage + [("fft", 7), ("ifft", 8)]
    assert max(rows for _, rows in fft_calls.rows) <= 8
    assert sum(rows for _, rows in fft_calls.rows) == 117


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


def test_steps_seed_and_continue_no_angle_branch(stepped, monkeypatch):
    # a state derives its branch of arg(Z_ap) when it is read, so no step
    # seeds one (the package has no routine that continues one)
    pair, cfg, dt = stepped
    calls = []
    for module in (evolution, energies):
        function = module.seed_angle

        def counted(*args, _function=function):
            calls.append("seed_angle")
            return _function(*args)

        monkeypatch.setattr(module, "seed_angle", counted)
    step_rk4(pair.state_a, cfg, dt)
    co_step(pair, cfg, dt)
    assert calls == []
    # the counters see the reads of a record: the blocks seed the branch of
    # the band of Z_ap, once for the states they are built for, and do not
    # read the state's own
    energy_sigma(pair.state_a)
    assert calls == ["seed_angle"]
    assert "angle" not in vars(pair.state_a)


def test_record_transform_calls(stepped, fft_calls):
    # energy_delta, f_delta_norm and energy_sigma(a), as drive_pair records,
    # from one pass kept on the pair: 9 multiplier FFT pairs (the three
    # stacked block rounds of both states, whose first takes Z_ap - 1 and
    # conj(Z_t) forward in one call, D Theta and D(htilde_ap - 1), the two
    # rounds of one derive of both states, b_ap of both states from one
    # stacked derivative and the Jacobian of htilde), one stacked H^1/2
    # transform and one coefficient transform for the one stacked sup norm;
    # then one rfft and one irfft for the one spread, which carries the rows
    # of k_b for the Newton solve of k_b(x) = k_a(alpha) that builds htilde
    # and the rows of b that the record pulls back through it, and one
    # complex ifft for the sup norm's seed grids, which it refines from its
    # own coefficients
    pair, _, _ = stepped
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    assert fft_calls == {"fft": 11, "ifft": 10, "rfft": 1, "irfft": 1}


def test_record_refines_once_per_spread_and_sup_norm(stepped, monkeypatch):
    # _refine, the one zero-padding routine, runs once for the one spread,
    # on the half spectra of the 2 rows of k_b with the 22 real rows of b
    # of both families, and once for the seed grids of the one stacked sup
    # norm, on the full spectra of its 5 complex rows
    pair, _, _ = stepped
    shapes = []
    refine = SpectralGrid._refine

    def counted(self, spec, factor, out=None):
        shapes.append((spec.shape, factor))
        return refine(self, spec, factor, out)

    monkeypatch.setattr(SpectralGrid, "_refine", counted)
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    n = pair.state_a.grid.n
    assert shapes == [((24, n // 2 + 1), 2), ((5, n), 4)]


def test_record_pulls_back_through_the_solves_spread_and_keeps_no_map_state(
    stepped, monkeypatch
):
    # one spread of the 2 rows of k_b and the 22 real rows of b of both
    # families; the Newton solve that builds htilde evaluates the kernel
    # weights once per iterate and gathers the deviation and the Jacobian
    # of k_b there in one call, and the pull-back gathers the 22 rows at
    # the values of htilde, those of the last iterate, with its weights: no
    # interpolate and no kernel evaluation of its own.  No map keeps
    # anything beyond its fields
    pair, _, _ = stepped
    n = pair.state_a.grid.n
    calls, points = [], []
    for name in ("spread", "interpolate", "nufft_kernel"):
        method = getattr(SpectralGrid, name)

        def counted(self, f, *args, _name=name, _method=method):
            calls.append((_name, np.shape(f)))
            if _name == "nufft_kernel":
                points.append(np.array(f))
            result = _method(self, f, *args)
            if _name != "spread":
                return result

            def gather(*args):
                out = result(*args)
                calls.append(("gather", out.shape))
                return out

            return gather

        monkeypatch.setattr(SpectralGrid, name, counted)
    energy_delta(pair)
    f_delta_norm(pair)
    energy_sigma(pair.state_a)
    newton = [("nufft_kernel", (n,)), ("gather", (2, n))]
    assert calls == [("spread", (24, n)), *newton, *newton, ("gather", (22, n))]
    # each evaluation is at a new iterate, the last at the values of htilde
    assert not np.array_equal(points[0], points[1])
    assert points[-1].tobytes() == pair.map_tilde.values.tobytes()
    for k in (pair.k_a, pair.k_b, pair.map_tilde):
        assert vars(k).keys() == {f.name for f in fields(k)}


def test_the_pull_back_makes_as_many_einsum_calls_whatever_its_row_count(stepped, monkeypatch):
    # htilde's targets fall in a few runs, whose windows a gather reads for
    # every row at once, so pulling 22 rows back through htilde takes as
    # many einsum calls as pulling one: a gather row by row would make one
    # call per row
    pair, _, _ = stepped
    rng = np.random.default_rng(7)
    einsum, counts = np.einsum, []
    for rows in (1, 2, 22):
        fields = rng.standard_normal((rows, pair.state_a.grid.n))
        calls = []
        monkeypatch.setattr(spectral.np, "einsum",
                            lambda *args, **kwargs: calls.append(1) or einsum(*args, **kwargs))
        pair._pull_back(fields)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts == [counts[0]] * 3


def test_record_takes_one_stacked_sup_norm(stepped, monkeypatch):
    # energy_delta stacks its three rows with sup |Z_ap^(1/2) D(1/Z_ap)| of
    # a (times sigma^(1/2)) and of b, as it evaluates the sigma family of a
    # and the aux family of b in its pass and keeps them on the states,
    # which then take no sup norm of their own
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
    (aux_b,) = state_energies(b, ("aux",))
    assert shapes == [(5, a.grid.n)]
    assert delta.components["coupling_sigma_aux_b"] == a.sigma * aux_b.total
    # the kept values are those of one-row calls on fresh states
    assert energy_sigma(replace(a)).components == sigma_a.components
    assert state_energies(replace(b), ("aux",))[0].components == aux_b.components
    assert shapes[1:] == [(1, a.grid.n), (1, a.grid.n)]
