"""Coupled light-spin polarization fluctuation dynamics.

Simulates the wave-type Heisenberg dynamics of the light Stokes components
coupled to collective atomic spin fluctuations, and quantifies the quantum
readout and memory channels via SQL-normalized variances of mode-filtered
output observables.
"""

__version__ = "0.1.0"

from .model import PhysicalParams, DimensionlessGroups, Grid, derive_groups, canonical_params
from .kernels import FieldRecord, SpinRecord, output_field, output_spin
from .lattice import (
    StabilityError,
    TransferMatrix,
    integrate,
    build_transfer_matrix,
    symplectic_form,
    symplectic_residual,
)
from .spectral import (
    dispersion_p_of_s,
    group_velocity,
    measure_packet_velocity,
    laplace_identity_residual,
)
from .variance import (
    VarianceBreakdown,
    readout_variances,
    memory_variances,
    general_variances,
    scan,
)
from .config import RunConfig, ConfigError, parse_config
from .runner import run

__all__ = [
    "__version__",
    "PhysicalParams", "DimensionlessGroups", "Grid", "derive_groups", "canonical_params",
    "FieldRecord", "SpinRecord", "output_field", "output_spin",
    "StabilityError", "TransferMatrix", "integrate", "build_transfer_matrix",
    "symplectic_form", "symplectic_residual",
    "dispersion_p_of_s", "group_velocity",
    "measure_packet_velocity", "laplace_identity_residual",
    "VarianceBreakdown", "readout_variances",
    "memory_variances", "general_variances", "scan",
    "RunConfig", "ConfigError", "parse_config", "run",
]
