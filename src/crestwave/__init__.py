"""Pseudo-spectral 2D capillary-gravity water waves in conformal
coordinates, weighted energy functionals, and a two-solution co-evolution
harness for the zero-surface-tension limit."""

from . import pair
from .brackets import InverseFlowMap, MonotoneMap
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .energies import (
    EnergyReport,
    energy_delta,
    energy_sigma,
    f_delta_norm,
    state_energies,
)
from .errors import (
    CFLViolationError,
    ConfigError,
    CrestwaveError,
    DegenerateJacobianError,
    HolomorphicityError,
    MonotonicityError,
)
from .evolution import (
    DerivedFields,
    StepperConfig,
    WaveState,
    cfl_bound,
    compute_derived,
    derive_states,
    flat_state,
    make_state,
    step_rk4,
)
from .initial_data import CrestSpec, crest_data
from .pair import (
    PairRunSpec,
    PairState,
    co_step,
    init_pair,
    run_convergence_study,
    run_pair_once,
)
from .spectral import SpectralGrid, make_grid

__all__ = [
    # spectral
    "SpectralGrid", "make_grid",
    # brackets
    "MonotoneMap", "InverseFlowMap",
    # evolution
    "WaveState", "DerivedFields", "StepperConfig", "make_state", "flat_state",
    "compute_derived", "derive_states", "cfl_bound", "step_rk4",
    # energies and initial data
    "EnergyReport", "energy_sigma", "state_energies", "energy_delta", "f_delta_norm",
    "CrestSpec", "crest_data",
    # pair
    "pair", "PairState", "PairRunSpec", "init_pair", "co_step", "run_pair_once",
    "run_convergence_study",
    # checkpoint, config, errors
    "save_checkpoint", "load_checkpoint", "RunConfig", "parse_config", "CrestwaveError",
    "ConfigError", "CFLViolationError", "DegenerateJacobianError", "HolomorphicityError",
    "MonotonicityError",
]

__version__ = "0.1.0"
