"""Extractable information versus information content on generalized state spaces.

The package builds finite-dimensional theories (polygons, norm-constraint
families, restricted classical systems, small quantum systems), runs
classically correlated ensembles through their measurements, and compares the
non-redundant extractable information against the log of the certified
observed dimension. The constructions module packages the named ensembles
that break the bound; proofs replays the supporting entropy derivation step
by step.
"""

__version__ = "0.1.0"

from .info import (
    AXIOM_TOL,
    AxiomReport,
    DensityOperator,
    IDENTITY_TOL,
    JointTable,
    MEMBERSHIP_TOL,
    PROB_TOL,
    VIOLATION_TOL,
    binary_entropy,
    multivariate_mutual_information,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from .gpt import (
    DimensionReport,
    DistinguishabilityCertificate,
    Effect,
    Measurement,
    NormConstraint,
    Polytope,
    Quantum,
    RestrictedClassical,
    State,
    Theory,
    Validation,
    ambient_dimension,
    apply_effect,
    composite_dimension_bound,
    coords_to_density,
    density_to_coords,
    measure,
    observed_dimension,
    state_space_dimension,
    unit_effect,
    validate_measurement,
    validate_state,
    verify_distinguishable,
)
from .catalog import (
    CatalogEntry,
    classical_bit,
    classical_trit,
    hbit,
    hbit_state,
    list_catalog,
    norm_state,
    pgnst,
    pgnst_id,
    polygon,
    polygon_effect,
    polygon_vertex,
    qubit,
    qubit_state_from_bloch,
    qubit_z_rotated,
    resolve,
    sbit,
    sbit_state,
)
from .engine import (
    CorrelatedEnsemble,
    EnsembleEntry,
    ICPReport,
    ObservableAssignment,
    OptimizationResult,
    OptimizerConfig,
    REPORT_CSV_FIELDS,
    SweepPoint,
    build_ensemble,
    evaluate_icp,
    joint_outcome_table,
    maximize_extractable,
    qubit_rotation_sweep,
    register_marginal,
    register_name,
)
from .sampling import (
    random_density_matrix,
    random_ensemble,
    random_state,
)
from .proofs import (
    ChainNotApplicable,
    ChainStep,
    ProofChainLedger,
    axiom_suite,
    proof_chain_check,
)
from .constructions import (
    BoundCheckLedger,
    BoundCheckPoint,
    CompositeGbitRecord,
    MismatchRecord,
    PgnstSearchConfig,
    ViolationCertificate,
    classical_bit_analysis,
    composite_gbit_extractable,
    hbit_violation,
    minimal_violating_gbits,
    pgnst_bound_check,
    pgnst_min_entropy_sum,
    pgnst_violation,
    polygon_mismatch,
    polygon_violation,
    qubit_rac_construction,
    rac_recovery_halfpower,
    rac_recovery_optimized,
    sbit_violation,
)
from .serialize import (
    RunManifest,
    assignment_to_json,
    certificate_to_json,
    ensemble_from_json,
    ensemble_to_json,
    render_csv,
    render_json,
)
