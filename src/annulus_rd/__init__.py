"""Reaction-diffusion pattern analysis on a two-dimensional annulus.

Closed-form Neumann Laplacian eigenvalues, linear stability classification
of an activator-depleted kinetic system, parameter-plane partitioning, and
a P1 finite element solver, all on the annulus a < r < b.
"""

__version__ = "0.1.0"

from .geometry import (
    DESK_SCALE_H,
    PAPER_FIDELITY_H,
    AnnulusGeometry,
    GeometryError,
    TriMesh,
    build_polar_grid,
    make_annulus,
    triangulate_annulus,
)
from .spectrum import (
    ModeIndex,
    SpectrumError,
    WeightingProfile,
    build_series,
    collocation_residual,
    eigenvalue,
    eigenvalue_components,
    spectrum_table,
    weighting,
)
from .stability import (
    KineticParams,
    StabilityLabel,
    StabilityVerdict,
    classify_multimode,
    classify_point,
    steady_state,
    trace_det,
)
from .partition import (
    RegionMap,
    SweepSpec,
    build_curves,
    sweep_classify,
)
from .fem import (
    FemError,
    FemOperators,
    FemState,
    RunConfig,
    RunRecord,
    assemble,
    initial_conditions,
    monitor_peaks,
    simulate,
)

__all__ = [
    "__version__",
    "DESK_SCALE_H", "PAPER_FIDELITY_H", "AnnulusGeometry", "GeometryError",
    "TriMesh", "build_polar_grid", "make_annulus", "triangulate_annulus",
    "ModeIndex", "SpectrumError", "WeightingProfile", "build_series",
    "collocation_residual", "eigenvalue", "eigenvalue_components",
    "spectrum_table", "weighting",
    "KineticParams", "StabilityLabel", "StabilityVerdict", "classify_multimode",
    "classify_point", "steady_state", "trace_det",
    "RegionMap", "SweepSpec", "build_curves", "sweep_classify",
    "FemError", "FemOperators", "FemState", "RunConfig", "RunRecord",
    "assemble", "initial_conditions", "monitor_peaks", "simulate",
]
