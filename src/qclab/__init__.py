"""Laboratory for cluster-summation coarse graining of a periodic atom chain.

The package builds a nearest-neighbour chain under dead loads, coarse-grains
it onto piecewise-affine meshes, and quantifies how node-cluster summation
rules (exact or lumped weights, energy- or force-based) distort the solution
compared with the constrained benchmark.
"""

from __future__ import annotations

from .errors import (
    ClusterOverlap,
    ConstraintViolation,
    ConvexityLoss,
    IllPosed,
    LatticeTooLarge,
    MeshBuildError,
    NewtonFailure,
    QCLabError,
    ShapeMismatch,
    UnknownFamily,
)
from .model import (
    ChainModel,
    Displacement,
    ExternalForce,
    PairPotential,
    energy_norm,
    harmonic_potential,
    lattice_coordinates,
    quartic_potential,
    sample_force,
    slot_of_site,
    stored_energy,
)
from .mesh import (
    CoarseMesh,
    MeshSpec,
    NodalField,
    basis_value,
    build_mesh,
    exact_load,
    load_custom_indices,
    parse_mesh_descriptor,
    prolong,
    smoothness_profile,
)
from .cluster import (
    ClusterRule,
    WeightSet,
    WeightSystem,
    assemble_weight_system,
    solve_weights,
    verify_exactness,
)
from .solve import (
    SolveReport,
    cluster_load,
    effective_stiffness,
    energy_cluster_functional,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
)
from .analysis import (
    ConvergenceTable,
    consistency_estimate,
    convergence_study,
    error_report,
    force_scaling_study,
    gradient_alternation,
    load_defect,
    predicted_relative_band,
    smooth_mesh_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "QCLabError", "MeshBuildError", "ClusterOverlap", "IllPosed", "ConvexityLoss",
    "LatticeTooLarge",
    "NewtonFailure", "UnknownFamily", "ShapeMismatch", "ConstraintViolation",
    "ChainModel", "Displacement", "ExternalForce", "PairPotential",
    "harmonic_potential", "quartic_potential", "sample_force",
    "lattice_coordinates", "slot_of_site", "stored_energy", "energy_norm",
    "MeshSpec", "CoarseMesh", "NodalField",
    "build_mesh", "parse_mesh_descriptor", "load_custom_indices",
    "basis_value", "prolong", "smoothness_profile", "exact_load",
    "ClusterRule", "WeightSystem", "WeightSet",
    "assemble_weight_system", "solve_weights", "verify_exactness",
    "SolveReport", "solve_atomistic", "solve_constrained",
    "solve_energy_cluster", "solve_force_cluster",
    "cluster_load", "energy_cluster_functional",
    "effective_stiffness",
    "ConvergenceTable", "consistency_estimate", "error_report",
    "predicted_relative_band", "convergence_study", "smooth_mesh_consistency",
    "load_defect", "gradient_alternation",
    "force_scaling_study",
]
