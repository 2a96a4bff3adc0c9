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
    external_work,
    harmonic_potential,
    lattice_coordinates,
    lattice_sites,
    quartic_potential,
    sample_force,
    site_energies,
    site_energy,
    site_force,
    site_forces,
    slot_of_site,
    stored_energy,
    total_energy,
)
from .mesh import (
    CoarseMesh,
    MeshSpec,
    NodalField,
    SmoothnessProfile,
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
    assemble_cluster_forces,
    cluster_load,
    effective_stiffness,
    energy_cluster_functional,
    solve_atomistic,
    solve_constrained,
    solve_energy_cluster,
    solve_force_cluster,
)
from .analysis import (
    ConsistencyEstimate,
    ConvergenceTable,
    ErrorReport,
    ForceScalingStudy,
    consistency_estimate,
    error_report,
    force_scaling_study,
    galerkin_defect,
    gradient_alternation,
    load_approximation_check,
    load_defect,
    predicted_relative_band,
    smooth_mesh_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "QCLabError", "MeshBuildError", "ClusterOverlap", "IllPosed", "ConvexityLoss",
    "NewtonFailure", "UnknownFamily", "ShapeMismatch", "ConstraintViolation",
    "ChainModel", "Displacement", "ExternalForce", "PairPotential",
    "harmonic_potential", "quartic_potential", "sample_force",
    "lattice_sites", "lattice_coordinates", "slot_of_site",
    "stored_energy", "external_work", "total_energy", "energy_norm",
    "site_energy", "site_energies", "site_force", "site_forces",
    "MeshSpec", "CoarseMesh", "NodalField", "SmoothnessProfile",
    "build_mesh", "parse_mesh_descriptor", "load_custom_indices",
    "basis_value", "prolong", "smoothness_profile", "exact_load",
    "ClusterRule", "WeightSystem", "WeightSet",
    "assemble_weight_system", "solve_weights", "verify_exactness",
    "SolveReport", "solve_atomistic", "solve_constrained",
    "solve_energy_cluster", "solve_force_cluster",
    "cluster_load", "assemble_cluster_forces", "energy_cluster_functional",
    "effective_stiffness",
    "ConsistencyEstimate", "ErrorReport", "ConvergenceTable", "ForceScalingStudy",
    "consistency_estimate", "error_report", "galerkin_defect",
    "predicted_relative_band", "smooth_mesh_consistency",
    "load_defect", "load_approximation_check", "gradient_alternation",
    "force_scaling_study",
]
