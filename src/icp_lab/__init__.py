"""Extractable information versus information content on generalized state spaces.

The package builds finite-dimensional theories (polygons, norm-constraint
families, restricted classical systems, small quantum systems), runs
classically correlated ensembles through their measurements, and compares the
non-redundant extractable information against the log of the certified
observed dimension. The constructions module packages the named ensembles
that break the bound; proofs replays the supporting entropy derivation step
by step, and axioms stress-tests the five entropy properties it rests on.
sweep traces the best two-bit qubit code as the second observable tilts.

Every public name below is loaded from its module on first use (PEP 562), so
``import icp_lab`` and each ``icp-lab`` command load only the modules they
run: axioms and sweep need only info and numpy, so ``scan axioms`` and
``scan sweep`` load neither the engine nor the state spaces.
"""
import importlib

__version__ = "0.1.0"

# each module and the public names it exports
_EXPORTS = {
    "info": (
        "AXIOM_TOL", "AxiomReport", "DensityOperator", "IDENTITY_TOL", "JointTable",
        "MEMBERSHIP_TOL", "PROB_TOL", "VIOLATION_TOL", "binary_entropy",
        "multivariate_mutual_information", "mutual_information", "shannon_entropy",
        "von_neumann_entropy",
    ),
    "gpt": (
        "ChainNotApplicable", "DimensionReport", "DistinguishabilityCertificate", "Effect", "Measurement",
        "NormConstraint", "Polytope", "Quantum", "RestrictedClassical", "State", "Theory",
        "Validation", "ambient_dimension", "apply_effect", "classical_carrier",
        "composite_dimension_bound", "coords_to_density", "density_to_coords", "measure",
        "observed_dimension", "state_space_dimension", "unit_effect", "validate_measurement",
        "validate_state", "verify_distinguishable",
    ),
    "catalog": (
        "CatalogEntry", "classical_bit", "classical_trit", "hbit", "hbit_state",
        "list_catalog", "norm_state", "pgnst", "pgnst_id", "polygon", "polygon_effect",
        "polygon_vertex", "qubit", "qubit_state_from_bloch", "qubit_z_rotated", "resolve",
        "sbit", "sbit_state",
    ),
    "engine": (
        "CorrelatedEnsemble", "ICPReport", "ObservableAssignment",
        "OptimizationResult", "OptimizerConfig", "REPORT_CSV_FIELDS",
        "build_ensemble", "evaluate_icp", "joint_outcome_table", "maximize_extractable",
        "register_marginal", "register_name",
    ),
    "sweep": ("SweepPoint", "qubit_rotation_sweep"),
    "sampling": ("random_density_matrix", "random_ensemble", "random_state"),
    "axioms": ("axiom_suite",),
    "proofs": ("ChainStep", "ProofChainLedger", "proof_chain_check"),
    "constructions": (
        "BoundCheckLedger", "BoundCheckPoint", "CompositeGbitRecord", "MismatchRecord",
        "ViolationCertificate", "classical_bit_analysis",
        "composite_gbit_extractable", "hbit_violation", "minimal_violating_gbits",
        "pgnst_bound_check", "pgnst_min_entropy_sum", "pgnst_violation", "polygon_mismatch",
        "polygon_violation", "qubit_rac_construction", "rac_recovery_halfpower",
        "rac_recovery_optimized", "sbit_violation",
    ),
    "serialize": (
        "RunManifest", "assignment_to_json", "certificate_to_json", "ensemble_from_json",
        "ensemble_to_json", "render_csv", "render_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules too, so that ``from icp_lab import *`` binds them as it always has
__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
