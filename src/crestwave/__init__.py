"""Pseudo-spectral 2D capillary-gravity water waves in conformal
coordinates, weighted energy functionals, and a two-solution co-evolution
harness for the zero-surface-tension limit."""

from .brackets import (
    MonotoneMap,
    commutator_bracket,
    compose_map_apply,
    compose_maps,
    hcal_apply,
    htilcal_apply,
    invert_map,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .energies import (
    EnergyReport,
    energy_aux,
    energy_delta,
    energy_high,
    energy_sigma,
    f_delta_norm,
    weighted_norm,
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
    curvature_field,
    flat_state,
    make_state,
    rhs_eulerian,
    step_rk4,
    validate_state,
)
from .initial_data import CrestSpec, crest_data, estimate_M, mollify_data
from .pair import (
    PairRunSpec,
    PairState,
    co_step,
    delta_field,
    init_pair,
    run_convergence_study,
    run_pair_once,
)
from .spectral import (
    SpectralGrid,
    apply_multiplier,
    dealias_filter,
    harmonic_extension_norms,
    hilbert,
    make_grid,
    poisson_smooth,
    project_holomorphic,
)

__version__ = "0.1.0"
