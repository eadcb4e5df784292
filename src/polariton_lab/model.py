"""Physical parameters, dimensionless groups, and grids.

The engine works internally in scaled coordinates zeta = z/L, tau = t/T on
the unit square, so every SQL-normalized output depends only on the
dimensionless groups collected in :class:`DimensionlessGroups`.  Units of the
physical inputs are caller-chosen but must be mutually consistent.

Sign conventions: the coupling density ``a = 2*beta*eps*xi3_bar*jx_bar``
is positive on the red wing (beta*eps > 0, positive group velocity) and
negative on the blue wing (beta*eps < 0, exponentially enhanced
fluctuations).  ``kappa_c = a*L*T`` carries the same sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalParams",
    "DimensionlessGroups",
    "Grid",
    "derive_groups",
    "canonical_params",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Coupling constants, mean polarizations, and pulse/sample extents.

    beta     : Faraday rotation angle per spin flip along z (rad)
    epsilon  : Cotton-Mouton ellipticity per spin flip along y (rad)
    kappa2   : birefringence rate (rad per unit length)
    omega0   : Larmor precession frequency (rad per unit time)
    omega2   : light-shift frequency (rad per unit time)
    xi3_bar  : mean third Stokes component (photons per unit time), > 0
    jx_bar   : mean spin linear density (per unit length), > 0
    length_L : sample length, > 0
    time_T   : pulse duration, > 0
    """

    beta: float
    epsilon: float
    kappa2: float = 0.0
    omega0: float = 0.0
    omega2: float = 0.0
    xi3_bar: float = 1.0
    jx_bar: float = 1.0
    length_L: float = 1.0
    time_T: float = 1.0

    def __post_init__(self):
        for name in ("beta", "epsilon", "kappa2", "omega0", "omega2",
                     "xi3_bar", "jx_bar", "length_L", "time_T"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("xi3_bar", "jx_bar", "length_L", "time_T"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def omega(self) -> float:
        """Total precession frequency (magnetic plus light shift)."""
        return self.omega0 + self.omega2

    @property
    def a_coupling(self) -> float:
        """Coupling density a = 2*beta*eps*xi3_bar*jx_bar (= -A)."""
        return 2.0 * self.beta * self.epsilon * self.xi3_bar * self.jx_bar

    @property
    def kappa_c(self) -> float:
        """Composition parameter kappa_c = a*L*T."""
        return self.a_coupling * self.length_L * self.time_T


@dataclass(frozen=True)
class DimensionlessGroups:
    """Reduced parameters that fully determine normalized outputs."""

    a_coupling: float
    kappa_c: float
    ratio_r: float
    omega_T: float
    q_L: float
    kappa2_L: float
    Omega_T: float
    beta_J: float
    beta_xi3_T: float


@dataclass(frozen=True)
class Grid:
    """Uniform bin counts over [0, T] (time) and [0, L] (space)."""

    n_time: int
    n_space: int

    def __post_init__(self):
        if self.n_time < 2 or self.n_space < 2:
            raise ValueError(
                f"grid must have at least 2 bins per axis, got "
                f"n_time={self.n_time}, n_space={self.n_space}"
            )

    def dt(self, time_T: float) -> float:
        return time_T / self.n_time

    def dz(self, length_L: float) -> float:
        return length_L / self.n_space


def derive_groups(params: PhysicalParams, omega_T: float, q_L: float) -> DimensionlessGroups:
    """Reduce physical parameters to the dimensionless groups.

    ``omega_T`` and ``q_L`` are the detection-mode choices (readout frequency
    and memory wavenumber, already dimensionless); they are not properties of
    the medium.  Pure function: identical inputs give bit-identical outputs.
    """
    omega_T = _require_finite("omega_T", omega_T)
    q_L = _require_finite("q_L", q_L)
    a = params.a_coupling
    ratio_r = params.beta / params.epsilon if params.epsilon != 0.0 else math.inf
    return DimensionlessGroups(
        a_coupling=a,
        kappa_c=params.kappa_c,
        ratio_r=ratio_r,
        omega_T=omega_T,
        q_L=q_L,
        kappa2_L=params.kappa2 * params.length_L,
        Omega_T=params.omega * params.time_T,
        beta_J=params.beta * params.jx_bar * params.length_L,
        beta_xi3_T=params.beta * params.xi3_bar * params.time_T,
    )


def canonical_params(
    kappa_c: float,
    ratio_r: float,
    kappa2_L: float = 0.0,
    Omega_T: float = 0.0,
) -> PhysicalParams:
    """Embed dimensionless groups into unit-box physical parameters.

    Uses L = T = xi3_bar = jx_bar = 1, so beta = sqrt(r*|kappa_c|/2) and
    eps = +/- sqrt(|kappa_c|/(2r)); the sign of kappa_c is carried by eps
    (blue wing).  Requires ratio_r > 0.
    """
    kappa_c = _require_finite("kappa_c", kappa_c)
    ratio_r = _require_finite("ratio_r", ratio_r)
    if ratio_r <= 0.0:
        raise ValueError(f"ratio_r must be positive, got {ratio_r}")
    mag = abs(kappa_c)
    beta = math.sqrt(ratio_r * mag / 2.0)
    eps = math.copysign(math.sqrt(mag / (2.0 * ratio_r)), kappa_c) if mag else 0.0
    return PhysicalParams(
        beta=beta,
        epsilon=eps,
        kappa2=kappa2_L,
        omega0=Omega_T,
        omega2=0.0,
    )
