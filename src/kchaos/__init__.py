"""Krylov-space chaos diagnostics.

Builds spin-chain and banded random-matrix Hamiltonians, runs the Lanczos
recursion with full orthogonalization, and measures how the saturation of
spread complexity and the dispersion of the Lanczos coefficients track the
integrability-to-chaos transition alongside level-spacing statistics.
"""

from .errors import (
    ConfigError,
    DegenerateSpectrumError,
    NumericalError,
    OrthogonalityLossError,
)
from .hamiltonians import (
    Hamiltonian,
    ParityBasis,
    SpectralData,
    build_banded_random,
    build_goe,
    build_ising_sector,
    eigendecompose,
    parity_basis,
)
from .krylov import (
    LanczosResult,
    SaturationReport,
    complexity_values,
    default_time_grid,
    krylov_amplitudes,
    lanczos_full_orth,
    saturation,
)
from .measures import (
    MEAN_R_GOE,
    MEAN_R_POISSON,
    DispersionConfig,
    eta,
    normalize_to_eta,
    r_ratio_mean,
    sigma_moving,
)
from .perturbation import (
    BoundSweep,
    ScalingReport,
    bound_rhs,
    overlap_scaling_check,
    run_bound_sweep,
)
from .states import (
    GaussianProfile,
    UniformComplement,
    select_center_states,
    state_all_up,
    state_eigenstate,
    state_perturbed,
    state_random,
    state_uniform_eigenbasis,
)
from .sweeps import (
    Family,
    SweepConfig,
    SweepTable,
    derive_seed,
    run_banded_sweep,
    run_ising_sweep,
)

__version__ = "0.1.0"
