import json
import os
from dataclasses import replace

import numpy as np
import pytest

from crestwave.checkpoint import load_checkpoint, save_checkpoint
from crestwave.cli import _study_specs, main
from crestwave.config import parse_config
from crestwave.errors import ConfigError
from crestwave.evolution import StepperConfig, cfl_bound, step_rk4
from crestwave.pair import build_pair
from crestwave.spectral import make_grid

from helpers import random_smooth_state

RNG = np.random.default_rng(88)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_config_defaults(tmp_path):
    path = _write(tmp_path, "min.ini", "[grid]\nn_points = 64\n")
    cfg = parse_config(path)
    assert cfg.grid.n_points == 64
    assert cfg.data.kind == "flat"
    assert cfg.stepper.dt_safety == 0.5
    assert cfg.output.families == ("sigma",)


def test_config_rejects_bad_values(tmp_path):
    path = _write(
        tmp_path,
        "bad.ini",
        "[data]\nkind = crest\nnu = 0.7\n\n[study]\nsigma_list = 1e-2, -1e-3\n\n"
        "[grid]\nn_points = 33\n",
    )
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msgs = "\n".join(err.value.violations)
    assert "nu" in msgs
    assert "sigma_list" in msgs
    assert "n_points" in msgs
    assert len(err.value.violations) >= 3  # everything reported at once


def test_config_rejects_unknown_keys(tmp_path):
    path = _write(tmp_path, "unk.ini", "[grid]\nn_pionts = 64\n\n[nope]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msgs = "\n".join(err.value.violations)
    assert "unknown key grid.n_pionts" in msgs
    assert "unknown section [nope]" in msgs


def test_env_override(tmp_path):
    path = _write(tmp_path, "env.ini", "[physics]\nsigma = 0.0\n")
    cfg = parse_config(path, env={"CRESTWAVE_PHYSICS_SIGMA": "0.25"})
    assert cfg.physics.sigma == 0.25
    with pytest.raises(ConfigError):
        parse_config(path, env={"CRESTWAVE_PHYSICS_SIGMA": "-1.0"})


FLAT_INI = """
[grid]
n_points = 128

[physics]
sigma = 0.01
t_final = 0.1

[output]
record_interval = 10
"""


def test_simulate_flat_run(tmp_path):
    cfgp = _write(tmp_path, "flat.ini", FLAT_INI)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    csv = open(os.path.join(out, "energy_sigma.csv")).read().splitlines()
    assert csv[0].startswith("# crestwave-csv")
    for line in csv[2:]:
        vals = [float(x) for x in line.split(",")[1:]]
        assert all(v == 0.0 for v in vals)
    assert os.path.exists(os.path.join(out, "final.ckpt"))


def test_simulate_determinism(tmp_path):
    cfgp = _write(tmp_path, "flat.ini", FLAT_INI)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["simulate", "--config", cfgp, "--out", out1, "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", out2, "--seed", "7"]) == 0
    b1 = open(os.path.join(out1, "energy_sigma.csv"), "rb").read()
    b2 = open(os.path.join(out2, "energy_sigma.csv"), "rb").read()
    assert b1 == b2


def test_cfl_exit_code(tmp_path):
    cfgp = _write(
        tmp_path,
        "stiff.ini",
        "[grid]\nn_points = 256\n\n[physics]\nsigma = 1.0\nt_final = 50.0\n\n"
        "[stepper]\nmax_steps = 10\n",
    )
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3


def test_validate_config_exit_codes(tmp_path):
    good = _write(tmp_path, "ok.ini", "[grid]\nn_points = 64\n")
    bad = _write(tmp_path, "bad.ini", "[grid]\nn_points = 3\n")
    assert main(["validate-config", "--config", good]) == 0
    assert main(["validate-config", "--config", bad]) == 2
    assert main(["validate-config", "--config", str(tmp_path / "missing.ini")]) == 2


def test_checkpoint_roundtrip_bitexact(tmp_path):
    g = make_grid(128)
    st = random_smooth_state(g, RNG, sigma=3e-3, amp=0.2)
    p = str(tmp_path / "st.ckpt")
    save_checkpoint(p, st)
    st2 = load_checkpoint(p)
    assert st2.grid == g
    assert st2.sigma == st.sigma and st2.time == st.time
    for a, b in ((st.Zdev, st2.Zdev), (st.Zp, st2.Zp), (st.Zt, st2.Zt), (st.g, st2.g)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw, n: raw[:-16],  # cut at a 16-byte boundary
        lambda raw, n: raw[: -8 * n],  # angle block missing
        lambda raw, n: raw + b"\x00",  # one trailing byte
    ],
    ids=["cut_16_bytes", "no_angle_block", "trailing_byte"],
)
def test_checkpoint_refuses_wrong_length(tmp_path, damage):
    g = make_grid(64)
    p = tmp_path / "st.ckpt"
    save_checkpoint(str(p), random_smooth_state(g, RNG, amp=0.1))
    p.write_bytes(damage(p.read_bytes(), g.n))
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(str(p))


def test_checkpoint_refuses_nan_field(tmp_path):
    g = make_grid(64)
    st = random_smooth_state(g, RNG, amp=0.1)
    Zt = st.Zt.copy()
    Zt[5] = np.nan
    p = str(tmp_path / "nan.ckpt")
    save_checkpoint(p, replace(st, Zt=Zt))
    with pytest.raises(ValueError, match="Zt contains non-finite"):
        load_checkpoint(p)


def test_resume_equals_uninterrupted(tmp_path):
    g = make_grid(128)
    st = random_smooth_state(g, RNG, sigma=1e-2, amp=0.1)
    cfg = StepperConfig()
    dt = 0.4 * cfl_bound(st)
    mid = st
    for _ in range(10):
        mid = step_rk4(mid, cfg, dt)
    p = str(tmp_path / "mid.ckpt")
    save_checkpoint(p, mid)
    resumed = load_checkpoint(p)
    a, b = mid, resumed
    for _ in range(10):
        a = step_rk4(a, cfg, dt)
        b = step_rk4(b, cfg, dt)
    assert np.max(np.abs(a.Zp - b.Zp)) < 1e-12
    assert np.max(np.abs(a.Zt - b.Zt)) < 1e-12


def test_pair_command(tmp_path):
    ini = """
[grid]
n_points = 128

[data]
kind = crest
nu = 0.35
epsilon = 0.2
vel_amp_im = 0.05

[physics]
sigma = 1e-3
t_final = 0.05

[output]
record_interval = 8

[study]
min_steps = 16
"""
    cfgp = _write(tmp_path, "pair.ini", ini)
    out = str(tmp_path / "pout")
    assert main(["pair", "--config", cfgp, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "energy_delta.csv"))
    assert os.path.exists(os.path.join(out, "energy_f_delta.csv"))
    import json

    rep = json.load(open(os.path.join(out, "pair_report.json")))
    assert rep["e_delta_initial"] > 0


def test_sweep_command(tmp_path):
    ini = """
[grid]
n_points = 128

[data]
kind = crest
nu = 0.35
vel_amp_im = 0.05

[physics]
t_final = 0.05

[study]
sigma_list = 1e-3, 1e-4
epsilon_list = 0.2
min_steps = 16

[output]
record_interval = 8
"""
    cfgp = _write(tmp_path, "sweep.ini", ini)
    out = str(tmp_path / "sout")
    assert main(["sweep", "--config", cfgp, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "study_summary.csv"))
    assert os.path.exists(os.path.join(out, "study_long.csv"))
    import json

    fits = json.load(open(os.path.join(out, "study_fits.json")))
    assert 0.9 < fits["slope_e0_vs_sigma"] < 1.1


def test_crest_scaling_command(tmp_path):
    ini = """
[grid]
n_points = 2048
length = 25.132741228718345

[data]
kind = crest
nu = 0.35

[study]
epsilon_list = 0.2, 0.1, 0.05
"""
    cfgp = _write(tmp_path, "cs.ini", ini)
    out = str(tmp_path / "cs")
    assert main(["crest-scaling", "--config", cfgp, "--out", out]) == 0
    import json

    rep = json.load(open(os.path.join(out, "crest_scaling.json")))
    assert abs(rep["slope"] - (-0.35)) < 0.1 * 0.35


PAIR_VS_SWEEP_INI = """
[grid]
n_points = 128

[data]
kind = crest
nu = 0.35
epsilon = 0.2
vel_amp_im = 0.05

[physics]
sigma = 1e-2
t_final = 0.1

[output]
record_interval = 4

[study]
sigma_list = 1e-2
epsilon_list = 0.2
min_steps = 1
"""


def test_pair_and_one_point_sweep_share_the_dt_policy(tmp_path):
    # the CFL bound, not min_steps, sets dt here
    cfgp = _write(tmp_path, "pair.ini", PAIR_VS_SWEEP_INI)
    pout, sout = str(tmp_path / "pair"), str(tmp_path / "sweep")
    assert main(["pair", "--config", cfgp, "--out", pout]) == 0
    assert main(["sweep", "--config", cfgp, "--out", sout]) == 0
    rep = json.load(open(os.path.join(pout, "pair_report.json")))
    lines = open(os.path.join(sout, "study_summary.csv")).read().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert (int(row["n_steps"]), float(row["dt"])) == (rep["n_steps"], rep["dt"])
    for fam in ("delta", "f_delta"):
        swept = os.path.join(sout, f"run_000_sigma1.000e-02_eps2.000e-01_{fam}.csv")
        with open(os.path.join(pout, f"energy_{fam}.csv"), "rb") as a, open(swept, "rb") as b:
            assert a.read() == b.read()


def test_sweep_specs_carry_the_dealias_fraction(tmp_path):
    ini = PAIR_VS_SWEEP_INI.replace("n_points = 128", "n_points = 128\ndealias = 0.5")
    (spec,) = _study_specs(parse_config(_write(tmp_path, "d.ini", ini)))
    assert spec.dealias == 0.5
    assert build_pair(spec).state_a.grid.dealias_fraction == 0.5
