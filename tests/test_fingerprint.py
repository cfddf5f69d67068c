"""The hash of perf/fingerprint.py, which checks that a change keeps every
byte of the benchmark's seed-0 runs, on a small crest pair."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from crestwave.evolution import StepperConfig, cfl_bound
from crestwave.pair import PairRunSpec, build_pair, init_pair

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "perf" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def _digest(pair, cfg, dt):
    """The digest of three co_steps of pair, recorded every second step."""
    h = hashlib.sha256()
    fingerprint.feed_pair_run(h, pair, cfg, dt, 3, 2)
    return h.hexdigest()


def test_pair_run_digest_repeats_and_moves_with_one_ulp_of_re_z_t():
    pair = build_pair(PairRunSpec(sigma=1e-2, epsilon=0.5, velocity_amplitude=0.05j,
                                  n_points=64))
    cfg = StepperConfig()
    dt = 0.3 * min(cfl_bound(pair.state_a), cfl_bound(pair.state_b))
    digest = _digest(pair, cfg, dt)
    # the second run reads the fields the first kept on the initial pair
    assert _digest(pair, cfg, dt) == digest
    a = pair.state_a
    Zt = a.Zt.copy()
    Zt.real = np.nextafter(Zt.real, np.inf)
    assert _digest(init_pair(replace(a, Zt=Zt), pair.state_b), cfg, dt) != digest
