"""Simulation toolkit for nuclear spin control via pulsed-light-modulated
nuclear quadrupole couplings.

Subpackage map:

- qdyn: density operators, Lindblad propagation, composite-space tools.
- spin: nuclear spin operators, level energies, transition amplitudes.
- efg: field-gradient and coupling tensors, frames, tables, meshes.
- oner: the drive protocol itself, from two-level dynamics to coupled
  electron-nucleus runs.
- cli: command line front end (`onersim ...`).
"""

from types import ModuleType as _ModuleType

from .constants import NUCLEI, NucleusRecord, get_nucleus
from .efg import (
    EfgTensor,
    LinearResponseModel,
    NoQuadrupoleError,
    NqiTable,
    NqiTensor,
    SurfaceMesh,
    TableFormatError,
    TableRangeError,
    UndefinedAsymmetryError,
    asymmetry,
    axial_nqi,
    efg_to_au,
    efg_to_si,
    linear_response,
    load_nqi_table,
    nqi_from_efg,
    rotate_about_x,
    surface_mesh,
)
from .oner import (
    FourierSeries,
    NoSteadyStateError,
    OnerPlan,
    RabiFit,
    SpinTrajectory,
    StatePairNqi,
    TwoLevelParams,
    TwoLevelTrajectory,
    ZeroAmplitudeError,
    detuned,
    effective_nqi_series,
    fit_rabi,
    fourier_coefficients,
    plan,
    simulate_coupled,
    simulate_pulsed_two_level,
    simulate_spin_effective,
    steady_state,
)
from .qdyn import (
    CollapseChannel,
    DensityOperator,
    DimensionMismatchError,
    IntegrationFailureError,
    PropagationResult,
    kron,
    liouvillian,
    partial_trace,
    propagate,
    propagate_modulated,
)
from .spin import (
    HierarchyWarning,
    SpinSystem,
    UnsupportedTransitionError,
    allowed_transitions,
    first_order_energies,
    make_spin,
    quadrupole_hamiltonian,
    transition_amplitude,
    transition_energy,
    transition_prefactor,
    zeeman_hamiltonian,
)

__version__ = "0.1.0"

# every name imported above, each stated once there; the subpackages
# bound by those imports are not exported
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
