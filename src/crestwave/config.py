"""Run configuration: INI-style files, environment overrides, validation.

Schema (all keys optional, unknown sections or keys are rejected):

    [grid]     n_points, length, dealias
    [data]     kind = flat | crest | checkpoint, nu, delta, epsilon,
               vel_amp_re, vel_amp_im, vel_mode, checkpoint
    [physics]  sigma, t_final
    [stepper]  dt_safety, max_steps
    [output]   directory, families, record_interval
    [study]    sigma_list, epsilon_list, couple = product | eps32, jobs,
               min_steps

Environment variables CRESTWAVE_<SECTION>_<KEY> override file values.
Every number must be finite.  Validation reports every violation at once.
The CLI also requires a kind = checkpoint file to hold the [grid] grid,
and sweep to run kind = crest data, with a study.epsilon_list when
couple = eps32.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .energies import STATE_FAMILIES
from .errors import ConfigError
from .spectral import DEFAULT_DEALIAS_FRACTION, DEFAULT_LENGTH


@dataclass
class GridBlock:
    n_points: int = 256
    length: float = DEFAULT_LENGTH
    dealias: float = DEFAULT_DEALIAS_FRACTION


@dataclass
class DataBlock:
    kind: str = "flat"
    nu: float = 0.35
    delta: float = 0.0
    epsilon: float = 0.0
    vel_amp_re: float = 0.0
    vel_amp_im: float = 0.0
    vel_mode: int = -1
    checkpoint: str = ""


@dataclass
class PhysicsBlock:
    sigma: float = 0.0
    t_final: float = 1.0


@dataclass
class StepperBlock:
    dt_safety: float = 0.5
    max_steps: int = 200000


@dataclass
class OutputBlock:
    directory: str = "out"
    # () records by sigma: sigma, or sigma, high and aux when sigma = 0
    families: tuple = ()
    record_interval: int = 10


@dataclass
class StudyBlock:
    sigma_list: tuple = ()
    epsilon_list: tuple = ()
    couple: str = "product"
    jobs: int = 1
    min_steps: int = 64


@dataclass
class RunConfig:
    grid: GridBlock = field(default_factory=GridBlock)
    data: DataBlock = field(default_factory=DataBlock)
    physics: PhysicsBlock = field(default_factory=PhysicsBlock)
    stepper: StepperBlock = field(default_factory=StepperBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    study: StudyBlock = field(default_factory=StudyBlock)


def _parse_value(name, raw, default, errors):
    raw = raw.strip()
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return _finite(raw)
        if isinstance(default, tuple):
            if raw == "":
                return ()
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if name.endswith("_list"):
                return tuple(_finite(s) for s in items)
            return tuple(items)
        return raw
    except ValueError as exc:
        errors.append(f"{name}: {exc}")
        return default


def _finite(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def parse_config(path, env=None):
    """Read, override and validate a configuration file.

    Raises ConfigError carrying the complete list of violations, or naming
    the file when configparser cannot parse it.
    """
    env = os.environ if env is None else env
    errors = []
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a repeated section or key, no section header or bytes that are
        # not UTF-8; on one line
        reason = str(exc).replace("\n", " ")
        raise ConfigError([f"cannot parse config file {path!r}: {reason}"]) from None
    if not read:
        raise ConfigError([f"cannot read config file {path!r}"])

    cfg = RunConfig()
    sections = vars(cfg)
    for section in parser.sections():
        if section not in sections:
            errors.append(f"unknown section [{section}]")
            continue
        block = sections[section]
        for key, raw in parser.items(section):
            if not hasattr(block, key):
                errors.append(f"unknown key {section}.{key}")
                continue
            default = getattr(block, key)
            setattr(block, key, _parse_value(f"{section}.{key}", raw, default, errors))

    for section, block in sections.items():
        for key in vars(block):
            ev = env.get(f"CRESTWAVE_{section.upper()}_{key.upper()}")
            if ev is not None:
                default = getattr(type(block)(), key)
                setattr(block, key, _parse_value(f"{section}.{key}", ev, default, errors))

    _validate(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg, errors):
    g, d, p, st, o, su = cfg.grid, cfg.data, cfg.physics, cfg.stepper, cfg.output, cfg.study
    if g.n_points < 8 or g.n_points % 2 != 0:
        errors.append(f"grid.n_points must be even and >= 8, got {g.n_points}")
    if not g.length > 0:
        errors.append(f"grid.length must be positive, got {g.length}")
    if not (0 < g.dealias <= 1):
        errors.append(f"grid.dealias must lie in (0, 1], got {g.dealias}")

    if d.kind not in ("flat", "crest", "checkpoint"):
        errors.append(f"data.kind must be flat | crest | checkpoint, got {d.kind!r}")
    # every kind: crest-scaling builds a crest from [data] whatever the kind
    if not (0.0 < d.nu < 0.5):
        errors.append(f"data.nu must lie in (0, 1/2), got {d.nu}")
    if d.delta < 0:
        errors.append(f"data.delta must be >= 0, got {d.delta}")
    if d.epsilon < 0:
        errors.append(f"data.epsilon must be >= 0, got {d.epsilon}")
    if d.vel_mode >= 0:
        errors.append(f"data.vel_mode must be a negative integer, got {d.vel_mode}")
    elif (d.vel_amp_re or d.vel_amp_im) and -d.vel_mode > g.n_points // 2 - 1:
        errors.append(
            f"data.vel_mode must be >= {1 - g.n_points // 2} on n_points = {g.n_points} "
            f"when a velocity amplitude is set, got {d.vel_mode}"
        )
    if d.kind == "checkpoint":
        if not d.checkpoint:
            errors.append("data.checkpoint path required for kind = checkpoint")
        elif not os.path.isfile(d.checkpoint):
            errors.append(f"data.checkpoint file not found: {d.checkpoint!r}")

    if p.sigma < 0:
        errors.append(f"physics.sigma must be >= 0, got {p.sigma}")
    if not p.t_final > 0:
        errors.append(f"physics.t_final must be positive, got {p.t_final}")

    if not (0 < st.dt_safety <= 1):
        errors.append(f"stepper.dt_safety must lie in (0, 1], got {st.dt_safety}")
    if st.max_steps < 1:
        errors.append(f"stepper.max_steps must be >= 1, got {st.max_steps}")

    if o.record_interval < 1:
        errors.append(f"output.record_interval must be >= 1, got {o.record_interval}")
    bad = [f for f in o.families if f not in STATE_FAMILIES]
    if bad:
        errors.append(
            f"output.families accepts {', '.join(STATE_FAMILIES)} (the families simulate "
            f"records), got {', '.join(bad)}"
        )
    repeated = sorted({f for f in o.families if o.families.count(f) > 1})
    if repeated:
        errors.append(f"output.families lists {', '.join(repeated)} more than once")

    for s in su.sigma_list:
        if s < 0:
            errors.append(f"study.sigma_list entries must be >= 0, got {s}")
    for e in su.epsilon_list:
        if not (0 < e <= 1):
            errors.append(f"study.epsilon_list entries must lie in (0, 1], got {e}")
    if su.couple not in ("product", "eps32"):
        errors.append(f"study.couple must be product | eps32, got {su.couple!r}")
    if su.jobs < 1:
        errors.append(f"study.jobs must be >= 1, got {su.jobs}")
    if su.min_steps < 1:
        errors.append(f"study.min_steps must be >= 1, got {su.min_steps}")
