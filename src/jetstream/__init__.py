"""Compressible subsonic jet from a convergent nozzle.

The flow is computed in the potential-stream plane, where the speed field
solves a quasilinear elliptic problem with a mixed inlet condition, a free
outlet abscissa pinned by the inlet mass flux, and a detachment abscissa
that classifies the geometry.  The physical-plane picture (nozzle wall,
free streamline, outlet arc) is recovered by integrating the flow-angle
system along coordinate lines.
"""

from .errors import (
    ConfigError,
    ConstraintError,
    FoldOverError,
    JetstreamError,
    LongNozzleError,
    NonconvergenceError,
    NozzleMatchError,
    ShortNozzleError,
    SingularSystemError,
)
from .gasdyn import (
    DerivedConstants,
    FlowConfig,
    GasModel,
    density,
    derive_constants,
    flux_A,
    flux_A_inverse,
    flux_B,
    flux_E,
    mass_flux,
    mass_flux_inverse,
    pressure,
)
from .symmetric import SymmetricSolution
from .checks import Check
from .fixedbvp import (
    Grid,
    SolverOptions,
    SpeedField,
    assemble_residual,
    build_grid,
    corner_exponent,
    picard_T,
    solve_fixed,
)
from .freebnd import (
    ClassifyResult,
    FreeSolution,
    Nonexistence,
    SweepRow,
    ZetaStarResult,
    classify_radius,
    find_zeta_star,
    inlet_defect,
    match_R,
    solve_outlet,
    sweep_zeta,
)
from .physmap import (
    AngleField,
    PhysicalField,
    geometry_checks,
    reconstruct,
    recover_theta,
)

__version__ = "0.1.0"

__all__ = [
    "AngleField",
    "Check",
    "ClassifyResult",
    "ConfigError",
    "ConstraintError",
    "DerivedConstants",
    "FlowConfig",
    "FoldOverError",
    "FreeSolution",
    "GasModel",
    "Grid",
    "JetstreamError",
    "LongNozzleError",
    "NonconvergenceError",
    "Nonexistence",
    "NozzleMatchError",
    "PhysicalField",
    "ShortNozzleError",
    "SingularSystemError",
    "SolverOptions",
    "SpeedField",
    "SweepRow",
    "SymmetricSolution",
    "ZetaStarResult",
    "assemble_residual",
    "build_grid",
    "classify_radius",
    "corner_exponent",
    "density",
    "derive_constants",
    "find_zeta_star",
    "flux_A",
    "flux_A_inverse",
    "flux_B",
    "flux_E",
    "geometry_checks",
    "inlet_defect",
    "mass_flux",
    "mass_flux_inverse",
    "match_R",
    "picard_T",
    "pressure",
    "reconstruct",
    "recover_theta",
    "solve_fixed",
    "solve_outlet",
    "sweep_zeta",
    "__version__",
]
