import json
import os
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crestwave import cli, pair
from crestwave.checkpoint import load_checkpoint, save_checkpoint
from crestwave.cli import _pair_spec, _study_specs, main
from crestwave.config import parse_config
from crestwave.errors import (
    CFLViolationError,
    ConfigError,
    CrestwaveError,
    DegenerateJacobianError,
    HolomorphicityError,
    MonotonicityError,
)
from crestwave.evolution import (
    StepperConfig, cfl_bound, compute_derived, flat_state, seed_angle, step_rk4,
)
from crestwave.pair import PairState, build_pair
from crestwave.spectral import SpectralGrid, make_grid

from helpers import folding_maps, random_smooth_state



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
    # empty: simulate picks the families by sigma
    assert cfg.output.families == ()


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


def test_readme_example_config_parses(tmp_path):
    # the ```ini block under "## CLI", inline "; ..." comments included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1]
    block = cli_section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(_write(tmp_path, "readme.ini", block), env={})
    assert cfg.grid.n_points == 512 and cfg.data.kind == "crest"
    assert cfg.data.checkpoint == "" and cfg.output.families == ("sigma",)


@pytest.mark.parametrize("key", ["filter_on = false", "holo_tolerance = 1e-8"])
def test_removed_stepper_keys_are_unknown(tmp_path, capsys, key):
    cfgp = _write(tmp_path, "old.ini", f"[grid]\nn_points = 64\n\n[stepper]\n{key}\n")
    assert main(["validate-config", "--config", cfgp]) == 2
    name = key.split(" =")[0]
    assert capsys.readouterr().err == f"config error: unknown key stepper.{name}\n"


def test_env_override(tmp_path):
    path = _write(tmp_path, "env.ini", "[physics]\nsigma = 0.0\n")
    cfg = parse_config(path, env={"CRESTWAVE_PHYSICS_SIGMA": "0.25"})
    assert cfg.physics.sigma == 0.25
    with pytest.raises(ConfigError):
        parse_config(path, env={"CRESTWAVE_PHYSICS_SIGMA": "-1.0"})
    with pytest.raises(ConfigError, match="physics.sigma: expected a finite number"):
        parse_config(path, env={"CRESTWAVE_PHYSICS_SIGMA": "nan"})


FLAT_INI = """
[grid]
n_points = 128

[physics]
sigma = 0.01
t_final = 0.1

[output]
record_interval = 10
"""


@pytest.mark.parametrize(
    "ini, name",
    [
        (FLAT_INI.replace("t_final = 0.1", "t_final = inf"), "physics.t_final"),
        (FLAT_INI.replace("sigma = 0.01", "sigma = inf"), "physics.sigma"),
        (FLAT_INI.replace("sigma = 0.01", "sigma = nan"), "physics.sigma"),
        (FLAT_INI.replace("n_points = 128", "n_points = 128\nlength = inf"), "grid.length"),
        (FLAT_INI + "\n[data]\nepsilon = inf\n", "data.epsilon"),
        (FLAT_INI + "\n[study]\nsigma_list = 1e-2, nan\n", "study.sigma_list"),
    ],
    ids=["t_final", "sigma-inf", "sigma-nan", "length", "epsilon", "sigma_list"],
)
def test_config_refuses_non_finite_numbers(tmp_path, capsys, ini, name):
    cfgp = _write(tmp_path, "nonfinite.ini", ini)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
    assert f"config error: {name}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flat_run(tmp_path):
    cfgp = _write(tmp_path, "flat.ini", FLAT_INI)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfgp, "--out", out]) == 0
    csv = Path(out, "energy_sigma.csv").read_text().splitlines()
    assert csv[0].startswith("# crestwave-csv")
    for line in csv[2:]:
        vals = [float(x) for x in line.split(",")[1:]]
        assert all(v == 0.0 for v in vals)
    assert os.path.exists(os.path.join(out, "final.ckpt"))


@pytest.mark.parametrize(
    "sigma, families, written",
    [
        ("0.0", "", ["sigma", "high", "aux"]),
        ("0.0", "families = sigma\n", ["sigma"]),
        ("0.01", "", ["sigma"]),
    ],
    ids=["zero-default", "zero-explicit-sigma", "capillary-default"],
)
def test_simulate_records_the_families_by_sigma_unless_listed(tmp_path, sigma, families, written):
    ini = FLAT_INI.replace("sigma = 0.01", f"sigma = {sigma}") + families
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, "f.ini", ini), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("energy_*.csv")) == sorted(
        f"energy_{f}.csv" for f in written
    )
    assert json.loads((out / "run_report.json").read_text())["families"] == written


def test_zero_sigma_simulate_takes_one_sup_norm_per_record(tmp_path, monkeypatch):
    # the L-infinity term of energy_sigma is sigma times sup |Z_ap^(1/2)
    # D(1/Z_ap)|^2, and a term of zero weight takes no norm, so at sigma = 0
    # only energy_aux takes that sup
    calls = []
    sup_norm = SpectralGrid.sup_norm

    def counted(self, f):
        calls.append(np.shape(f))
        return sup_norm(self, f)

    monkeypatch.setattr(SpectralGrid, "sup_norm", counted)
    ini = FLAT_INI.replace("sigma = 0.01", "sigma = 0.0")
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, "z.ini", ini), "--out", str(out)]) == 0
    records = len((out / "energy_aux.csv").read_text().splitlines()) - 2
    assert records > 1
    assert calls == [(1, 128)] * records


def test_simulate_determinism(tmp_path):
    cfgp = _write(tmp_path, "flat.ini", FLAT_INI)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["simulate", "--config", cfgp, "--out", out1, "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfgp, "--out", out2, "--seed", "7"]) == 0
    b1 = Path(out1, "energy_sigma.csv").read_bytes()
    b2 = Path(out2, "energy_sigma.csv").read_bytes()
    assert b1 == b2


def test_cfl_exit_code(tmp_path):
    cfgp = _write(
        tmp_path,
        "stiff.ini",
        "[grid]\nn_points = 256\n\n[physics]\nsigma = 1.0\nt_final = 50.0\n\n"
        "[stepper]\nmax_steps = 10\n",
    )
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "error, err, code",
    [
        (CFLViolationError("x"), "CFL failure: x\n", 3),
        (DegenerateJacobianError("x"), "degeneracy failure: x\n", 4),
        (HolomorphicityError("x"), "holomorphicity failure: x\n", 5),
        (MonotonicityError("x"), "degeneracy failure (map): x\n", 4),
        (CrestwaveError("x"), "run failure: x\n", 1),
        (ConfigError(["x", "y"]), "config error: x\nconfig error: y\n", 2),
    ],
    ids=["cfl", "degenerate", "holomorphicity", "monotonicity", "crestwave", "config"],
)
def test_each_failure_kind_has_its_stderr_label_and_exit_code(
    tmp_path, capsys, monkeypatch, error, err, code
):
    def fail(cfg):
        raise error

    monkeypatch.setattr(cli, "build_initial_state", fail)
    cfgp = _write(tmp_path, "flat.ini", FLAT_INI)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr() == ("", err)


def test_validate_config_exit_codes(tmp_path):
    good = _write(tmp_path, "ok.ini", "[grid]\nn_points = 64\n")
    bad = _write(tmp_path, "bad.ini", "[grid]\nn_points = 3\n")
    assert main(["validate-config", "--config", good]) == 0
    assert main(["validate-config", "--config", bad]) == 2
    assert main(["validate-config", "--config", str(tmp_path / "missing.ini")]) == 2


@pytest.mark.parametrize("text", [
    b"[grid]\nn_points = 64\n\n[grid]\nlength = 3.0\n",
    b"[grid]\nn_points = 64\nn_points = 32\n",
    b"n_points = 64\n",
    # byte 0xff starts no UTF-8 sequence
    b"[grid]\nn_points = 64 ; \xff\n",
], ids=["repeated_section", "repeated_key", "no_section_header", "not_utf8"])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "broken.ini"
    path.write_bytes(text)
    path = str(path)
    with pytest.raises(ConfigError, match="broken.ini"):
        parse_config(path)
    assert main(["validate-config", "--config", path]) == 2
    assert "broken.ini" in capsys.readouterr().err


def test_simulate_refuses_a_family_it_does_not_record(tmp_path, capsys):
    cfgp = _write(tmp_path, "delta.ini", FLAT_INI + "families = delta\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
    assert "delta" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_a_repeated_family(tmp_path, capsys):
    cfgp = _write(tmp_path, "twice.ini", FLAT_INI + "families = sigma, high, sigma\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
    assert "output.families lists sigma more than once" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate-config", "--config", cfgp]) == 2


def test_checkpoint_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(88)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=3e-3, amp=0.2)
    p = str(tmp_path / "st.ckpt")
    save_checkpoint(p, st)
    st2 = load_checkpoint(p)
    assert st2.grid == g
    assert st2.sigma == st.sigma and st2.time == st.time
    for a, b in ((st.Zdev, st2.Zdev), (st.Zp, st2.Zp), (st.Zt, st2.Zt), (st.g, st2.g)):
        assert np.array_equal(a, b)
    # layout version 2: the three complex fields and no angle block
    raw = Path(p).read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    assert json.loads(raw[12 : 12 + hlen])["version"] == 2
    assert len(raw) == 12 + hlen + 48 * g.n


def _write_version_1(path, state, g):
    """A layout version 1 checkpoint of state whose angle block is g, written
    byte by byte: magic, header length, header, the three complex fields,
    then g as n little-endian float64."""
    grid = state.grid
    header = {
        "version": 1, "n_points": grid.n, "length": grid.length,
        "dealias_fraction": grid.dealias_fraction, "sigma": state.sigma, "time": state.time,
        "fields": ["Zdev", "Zp", "Zt"], "angle_field": True,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = [np.asarray(a, dtype="<c16") for a in (state.Zdev, state.Zp, state.Zt)]
    body.append(np.asarray(g, dtype="<f8"))
    path.write_bytes(
        b"CWCHKPT1" + struct.pack("<I", len(blob)) + blob + b"".join(a.tobytes() for a in body)
    )


def test_version_1_checkpoint_loads_only_with_the_branch_of_its_z_ap(tmp_path):
    rng = np.random.default_rng(88)
    st = random_smooth_state(make_grid(128), rng, sigma=3e-3, amp=0.2)
    st = step_rk4(st, StepperConfig(), 0.4 * cfl_bound(st))
    p = tmp_path / "v1.ckpt"
    _write_version_1(p, st, seed_angle(st.Zp))
    loaded = load_checkpoint(str(p))
    assert loaded == st and loaded.g.tobytes() == st.g.tobytes()
    # another whole turn at one node, or one ulp more, is not that branch
    for damage in (lambda x: x + 2.0 * np.pi, lambda x: np.nextafter(x, np.inf)):
        g = seed_angle(st.Zp)
        g[17] = damage(g[17])
        _write_version_1(p, st, g)
        with pytest.raises(ValueError, match="angle block"):
            load_checkpoint(str(p))


def _edit_header(edit):
    """Damage that replaces the JSON header of a checkpoint by edit(header)."""

    def damage(raw, n):
        (hlen,) = struct.unpack_from("<I", raw, 8)
        blob = json.dumps(edit(json.loads(raw[12 : 12 + hlen]))).encode()
        return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :]

    return damage


def _without(key):
    return _edit_header(lambda h: {k: v for k, v in h.items() if k != key})


def _setting(key, value):
    return _edit_header(lambda h: {**h, key: value})


HEADER_NUMBERS = ("n_points", "length", "dealias_fraction", "sigma", "time")


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda raw, n: raw[:-16], "bytes"),  # cut at a 16-byte boundary
        (_setting("version", 1), "bytes"),  # a version 1 file without its angle block
        (lambda raw, n: raw[: -8 * n], "bytes"),  # cut by the size of an angle block
        (lambda raw, n: raw + b"\x00", "bytes"),  # one trailing byte
        (lambda raw, n: raw[:8] + struct.pack("<I", len(raw)) + raw[12:], "runs past the end"),
        (_edit_header(lambda h: [1]), "not a JSON object"),
        (_edit_header(lambda h: {"version": 1}), "n_points = None is not an integer"),
        *[(_without(key), f"{key} = None is not") for key in HEADER_NUMBERS],
        *[(_setting(key, "64"), f"{key} = '64' is not") for key in HEADER_NUMBERS],
        (_setting("n_points", 64.0), "n_points = 64.0 is not an integer"),
        (_setting("sigma", float("nan")), "sigma = nan is not a finite number"),
        (_setting("time", True), "time = True is not a finite number"),
    ],
    ids=[
        "cut_16_bytes", "no_angle_block", "cut_8n_bytes", "trailing_byte", "header_past_end",
        "header_list", "header_version_only",
        *[f"no_{key}" for key in HEADER_NUMBERS],
        *[f"string_{key}" for key in HEADER_NUMBERS],
        "float_n_points", "nan_sigma", "bool_time",
    ],
)
def test_checkpoint_refuses_wrong_length(tmp_path, damage, match):
    rng = np.random.default_rng(88)
    # a file of the wrong length or with a malformed header is refused
    g = make_grid(64)
    p = tmp_path / "st.ckpt"
    save_checkpoint(str(p), random_smooth_state(g, rng, amp=0.1))
    p.write_bytes(damage(p.read_bytes(), g.n))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(str(p))


@pytest.mark.parametrize("version", [True, 1.0, 2.0, "2"],
                         ids=["true", "float_1", "float_2", "string_2"])
def test_checkpoint_refuses_a_version_that_is_not_an_exact_int(tmp_path, version):
    # True and 1.0 compare equal to 1 and 2.0 to 2, so each goes on a file
    # that is valid in the layout of that version: only the header differs
    rng = np.random.default_rng(88)
    st = random_smooth_state(make_grid(64), rng, amp=0.1)
    p = tmp_path / "st.ckpt"
    if version == 1:
        _write_version_1(p, st, seed_angle(st.Zp))
    else:
        save_checkpoint(str(p), st)
    assert load_checkpoint(str(p)) == st
    p.write_bytes(_setting("version", version)(p.read_bytes(), st.grid.n))
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version!r}"):
        load_checkpoint(str(p))


def test_checkpoint_refuses_nan_field(tmp_path):
    rng = np.random.default_rng(88)
    g = make_grid(64)
    st = random_smooth_state(g, rng, amp=0.1)
    Zt = st.Zt.copy()
    Zt[5] = np.nan
    p = str(tmp_path / "nan.ckpt")
    save_checkpoint(p, replace(st, Zt=Zt))
    with pytest.raises(ValueError, match="Zt contains non-finite"):
        load_checkpoint(p)


@pytest.mark.parametrize("command", ["simulate", "pair"])
def test_unloadable_checkpoint_is_a_config_error(tmp_path, capsys, command):
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"junk")
    ini = FLAT_INI + f"\n[data]\nkind = checkpoint\ncheckpoint = {junk}\n"
    cfgp = _write(tmp_path, "ckpt.ini", ini)
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: data.checkpoint {str(junk)!r}: "
        "not a crestwave checkpoint (magic b'junk')\n"
    )


@pytest.mark.parametrize("command", ["simulate", "pair"])
def test_checkpoint_header_nested_too_deeply_is_a_config_error(tmp_path, capsys, command):
    # json.loads recurses once per bracket, so this header used to end the
    # command with a RecursionError traceback
    deep = tmp_path / "deep.ckpt"
    blob = b"[" * 200000
    deep.write_bytes(b"CWCHKPT1" + struct.pack("<I", len(blob)) + blob)
    ini = FLAT_INI + f"\n[data]\nkind = checkpoint\ncheckpoint = {deep}\n"
    cfgp = _write(tmp_path, "deep.ini", ini)
    assert main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: data.checkpoint {str(deep)!r}: "
        "checkpoint header nests too deeply to decode\n"
    )


@pytest.mark.parametrize("grid", [make_grid(64), make_grid(128, length=4 * np.pi),
                                  make_grid(128, dealias_fraction=0.5)])
@pytest.mark.parametrize("command", ["simulate", "pair"])
def test_checkpoint_with_another_grid_is_a_config_error(tmp_path, capsys, command, grid):
    ckpt = str(tmp_path / "other.ckpt")
    save_checkpoint(ckpt, flat_state(grid, 0.01))
    ini = FLAT_INI + f"\n[data]\nkind = checkpoint\ncheckpoint = {ckpt}\n"
    cfgp = _write(tmp_path, "ckpt.ini", ini)
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: data.checkpoint {ckpt!r}: SpectralGrid(n_points={grid.n}, "
        f"length={grid.length!r}, dealias_fraction={grid.dealias_fraction!r}) differs from "
        f"[grid] SpectralGrid(n_points=128, length={2 * np.pi!r}, "
        f"dealias_fraction={2 / 3!r})\n"
    )
    assert not out.exists()


def test_resume_equals_uninterrupted(tmp_path):
    rng = np.random.default_rng(88)
    g = make_grid(128)
    st = random_smooth_state(g, rng, sigma=1e-2, amp=0.1)
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

    rep = json.loads(Path(out, "pair_report.json").read_text())
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
    assert os.path.exists(os.path.join(out, "study_long.csv"))
    lines = Path(out, "study_summary.csv").read_text().splitlines()
    assert lines[:2] == [
        "# crestwave-csv v1 study-summary",
        "sigma,epsilon,ok,error,n_steps,dt,e_delta_initial,e_delta_sup,growth_ratio,f_delta_sup",
    ]
    assert len(lines) == 4
    import json

    fits = json.loads(Path(out, "study_fits.json").read_text())
    assert 0.9 < fits["slope_e0_vs_sigma"] < 1.1


@pytest.mark.parametrize("eps_list", ["0.1", "0.1, 0.1"])
def test_crest_scaling_of_one_distinct_epsilon_fits_no_slope(tmp_path, eps_list):
    ini = f"[grid]\nn_points = 64\n\n[data]\nkind = crest\n\n[study]\nepsilon_list = {eps_list}\n"
    cfgp = _write(tmp_path, "cs.ini", ini)
    out = tmp_path / "cs"
    assert main(["crest-scaling", "--config", cfgp, "--out", str(out)]) == 0
    assert json.loads((out / "crest_scaling.json").read_text())["slope"] is None


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

    rep = json.loads(Path(out, "crest_scaling.json").read_text())
    assert abs(rep["slope"] - (-0.35)) < 0.1 * 0.35


def test_crest_scaling_curvature_is_that_of_the_pair_of_its_epsilon(tmp_path):
    # crest-scaling and build_pair mollify the crest of [data] in one place
    ini = ("[grid]\nn_points = 128\n\n[data]\nkind = flat\nnu = 0.3\ndelta = 0.02\n"
           "vel_amp_im = 0.05\n\n[physics]\nsigma = 1e-3\n\n[study]\n"
           "epsilon_list = 0.2, 0.05\n")
    cfgp = _write(tmp_path, "cs.ini", ini)
    out = tmp_path / "cs"
    assert main(["crest-scaling", "--config", cfgp, "--out", str(out)]) == 0
    rows = json.loads((out / "crest_scaling.json").read_text())["rows"]
    cfg = parse_config(cfgp)
    for eps, curvature in rows:
        a = build_pair(_pair_spec(cfg, cfg.physics.sigma, eps)).state_a
        assert curvature == float(np.max(np.abs(compute_derived(a).Theta.real)))


OUTPUTS_INI = """
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

[study]
sigma_list = 1e-3
epsilon_list = 0.2, 0.1
min_steps = 16

[output]
record_interval = 8
"""

# (exit code, JSON report, {CSV: the kind on its schema line}) of each
# command on OUTPUTS_INI; the sweep run at eps 0.1 fails at step 1 with a
# HolomorphicityError, after its first record
RUN_TAGS = ("run_000_sigma1.000e-03_eps1.000e-01", "run_001_sigma1.000e-03_eps2.000e-01")
OUTPUTS = {
    "simulate": (0, "run_report.json", {"energy_sigma.csv": "family=sigma"}),
    "pair": (0, "pair_report.json", {
        "energy_delta.csv": "family=delta",
        "energy_f_delta.csv": "family=f_delta",
        "energy_sigma_a.csv": "family=sigma",
    }),
    "sweep": (6, "study_fits.json", {
        **{f"{tag}_{fam}.csv": f"family={fam}" for tag in RUN_TAGS for fam in ("delta", "f_delta")},
        "study_long.csv": "study-long",
        "study_summary.csv": "study-summary",
    }),
    "crest-scaling": (0, "crest_scaling.json", {"crest_scaling.csv": "crest-scaling"}),
}


@pytest.mark.parametrize("command", OUTPUTS)
def test_each_command_writes_its_files_in_their_formats(tmp_path, command):
    code, report, csvs = OUTPUTS[command]
    cfgp = _write(tmp_path, "outputs.ini", OUTPUTS_INI)
    out = tmp_path / "out"
    assert main([command, "--config", cfgp, "--out", str(out), "--seed", "17"]) == code
    written = {p.name for p in out.iterdir()}
    assert written == {report, *csvs} | ({"final.ckpt"} if command == "simulate" else set())
    for name, kind in csvs.items():
        schema, header, *rows = (out / name).read_text().splitlines()
        assert schema == f"# crestwave-csv v1 {kind}"
        assert rows and all(len(row.split(",")) == len(header.split(",")) for row in rows)
    rep = json.loads((out / report).read_text())
    assert (rep["command"], rep["seed"]) == (command, 17)
    if command == "sweep":
        assert (rep["n_runs"], rep["n_failed"]) == (2, 1)
        assert list(rep["failures"].values())[0].startswith("HolomorphicityError")


def test_each_failed_sweep_run_keeps_its_own_failure(tmp_path):
    # two runs of one (sigma, eps) point fail alike at step 1; each failure
    # is keyed by its run's tag, the tag of its CSVs, so neither hides the other
    text = OUTPUTS_INI.replace("sigma_list = 1e-3\nepsilon_list = 0.2, 0.1",
                               "sigma_list = 1e-3, 1e-3\nepsilon_list = 0.1")
    assert text != OUTPUTS_INI
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, "twice.ini", text), "--out", str(out)]) == 6
    rep = json.loads((out / "study_fits.json").read_text())
    tags = [f"run_{i:03d}_sigma1.000e-03_eps1.000e-01" for i in range(2)]
    assert rep["n_failed"] == len(rep["failures"]) == 2
    assert sorted(rep["failures"]) == tags
    assert all(error.startswith("HolomorphicityError") for error in rep["failures"].values())
    assert {f"{tag}_delta.csv" for tag in tags} <= {p.name for p in out.iterdir()}


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
    rep = json.loads(Path(pout, "pair_report.json").read_text())
    lines = Path(sout, "study_summary.csv").read_text().splitlines()
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


@pytest.mark.parametrize("kind", ["flat", "checkpoint"])
def test_sweep_refuses_data_other_than_crest(tmp_path, capsys, kind):
    ckpt = str(tmp_path / "st.ckpt")
    save_checkpoint(ckpt, flat_state(make_grid(128), 1e-2))
    data = f"kind = {kind}\ncheckpoint = {ckpt}"
    cfgp = _write(tmp_path, "sweep.ini", PAIR_VS_SWEEP_INI.replace("kind = crest", data))
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep takes data.kind = crest only, got {kind!r}\n"
    )
    assert not out.exists()


def test_eps32_sweep_without_epsilons_is_a_config_error(tmp_path, capsys):
    ini = PAIR_VS_SWEEP_INI.replace("epsilon_list = 0.2", "couple = eps32")
    cfgp = _write(tmp_path, "eps32.ini", ini)
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep with study.couple = eps32 needs a study.epsilon_list\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_velocity_mode_outside_the_grid_is_a_config_error(tmp_path, capsys, command):
    ini = PAIR_VS_SWEEP_INI.replace("n_points = 128", "n_points = 64").replace(
        "vel_amp_im = 0.05", "vel_amp_im = 0.05\nvel_mode = -40"
    )
    cfgp = _write(tmp_path, "mode.ini", ini)
    out = tmp_path / "o"
    assert main([command, "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: data.vel_mode must be >= -31 on n_points = 64 when a velocity "
        "amplitude is set, got -40\n"
    )
    assert not out.exists()


def test_crest_scaling_refuses_a_bad_nu_of_any_kind(tmp_path, capsys):
    # crest-scaling builds a crest from [data] whatever its kind
    ini = "[grid]\nn_points = 64\n\n[data]\nkind = flat\nnu = 0.7\n"
    cfgp = _write(tmp_path, "nu.ini", ini)
    out = tmp_path / "o"
    assert main(["crest-scaling", "--config", cfgp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: data.nu must lie in (0, 1/2), got 0.7\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--jobs", "2"], ["pair", "--jobs", "2"], ["crest-scaling", "--jobs", "2"],
     ["sweep", "--jobs", "0"], ["sweep", "--jobs", "-3"]],
)
def test_jobs_is_a_positive_sweep_option(tmp_path, argv):
    cfgp = _write(tmp_path, "sweep.ini", PAIR_VS_SWEEP_INI)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", cfgp, "--out", str(out)])
    assert exit_.value.code == 2
    assert not out.exists()


def test_simulate_failure_names_its_step_and_time(tmp_path, capsys):
    # the unfiltered n=64 crest leaves positive-mode mass far above tolerance
    ini = """
[grid]
n_points = 64
dealias = 1

[data]
kind = crest
nu = 0.35
epsilon = 0.2
vel_amp_im = 0.05

[physics]
sigma = 1e-3
t_final = 0.05
"""
    cfgp = _write(tmp_path, "unfiltered.ini", ini)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("holomorphicity failure: projected")
    assert err.rstrip().endswith(" (step 1 of 1, t = 0)")


def test_pair_exits_4_on_a_record_whose_htilde_is_not_monotone(tmp_path, capsys, monkeypatch):
    # the pair of the config, with flow maps whose composition folds
    monkeypatch.setattr(
        pair, "init_pair", lambda a, b: PairState(a, b, *folding_maps(a.grid))
    )
    ini = """
[grid]
n_points = 64

[data]
kind = crest
nu = 0.35
epsilon = 0.2
vel_amp_im = 0.05

[physics]
sigma = 1e-3
t_final = 0.05
"""
    cfgp = _write(tmp_path, "folding.ini", ini)
    assert main(["pair", "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"degeneracy failure \(map\): \[htilde\] min h_ap = \S+ below floor 1e-06 "
        r"\(record at t = 0\)\n",
        err,
    ), err
