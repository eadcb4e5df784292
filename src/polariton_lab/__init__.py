"""Coupled light-spin polarization fluctuation dynamics.

Simulates the wave-type Heisenberg dynamics of the light Stokes components
coupled to collective atomic spin fluctuations, and quantifies the quantum
readout and memory channels via SQL-normalized variances of mode-filtered
output observables.
"""

__version__ = "0.1.0"

from .model import (PhysicalParams, DimensionlessGroups, Grid, derive_groups, canonical_params,
                    FieldRecord, SpinRecord)
from .lattice import (
    StabilityError,
    TransferMatrix,
    build_transfer_matrix,
    symplectic_form,
    symplectic_residual,
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
    "FieldRecord", "SpinRecord",
    "StabilityError", "TransferMatrix", "build_transfer_matrix",
    "symplectic_form", "symplectic_residual",
    "dispersion_p_of_s", "group_velocity",
    "measure_packet_velocity", "laplace_identity_residual",
    "VarianceBreakdown", "readout_variances",
    "memory_variances", "general_variances", "scan",
    "RunConfig", "ConfigError", "parse_config", "run",
]

# spectral loads on first use of one of its names (PEP 562): of the CLI modes,
# only dispersion and packet-velocity need it
_SPECTRAL = ("dispersion_p_of_s", "group_velocity",
             "measure_packet_velocity", "laplace_identity_residual")


def __getattr__(name):
    if name in _SPECTRAL:
        from . import spectral
        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SPECTRAL))
