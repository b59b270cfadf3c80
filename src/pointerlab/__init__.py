"""Numerical lab for pointer-based quantum measurement.

A system observable is coupled to the momentum of one or more pointer
wavepackets; the package evolves the joint state exactly, reads the
pointers out against closed-form predictions, and decides whether the
resulting measurement record is separable, dial by dial.
"""

from .engine import (
    Coupling,
    OrthogonalPostselection,
    Postselection,
    UnifiedState,
    apparatus_density,
    build_initial,
    evolve,
    evolve_sequential,
    pointer_cross_mean,
    pointer_mean,
    postselect,
    system_density,
    system_expectation,
    weak_value,
)
from .pointer import (
    LeakageError,
    PointerGrid,
    PointerSpec,
    gaussian_leakage,
    gaussian_state,
    momentum_operator,
    translate,
)
from .separability import (
    SeparabilityVerdict,
    SeparableDecomposition,
    first_order_product_certificate,
    ppt_min_eigenvalue,
    readability_check,
)
from .scenarios import (
    DEFAULTS,
    SCENARIOS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ScenarioConfig,
    ScenarioReport,
    bloch_state,
    pauli,
    run_scenario,
)
from .tensors import (
    DensityMatrix,
    DimensionSpec,
    Operator,
    StateVector,
    expectation,
    kron_states,
    schmidt,
)

__version__ = "0.1.0"
