"""Numerical toolkit for pseudo-bosonic operator pairs and Riesz
bicoherent states on a truncated Fock space.

Every algebraic identity the construction is supposed to satisfy --
commutation relations, biorthogonality, metric conjugation, displacement
similarity and factorization, coherent-state eigen-relations, and the
quadrature resolution of the identity -- is exposed as a runnable check
returning a quantified residual.
"""

from .algebra import (
    PseudoBosonPair,
    VacuumPair,
    excited_states,
    ladder_check,
    make_pair,
    number_operator_check,
    theta_conjugacy_check,
    vacua,
    vacua_from_map,
)
from .bicoherent import (
    BicoherentPair,
    CoherentState,
    QuadratureScheme,
    coherent,
    coherent_tail_bound,
    eigen_check,
    make_quadrature,
    rbcs,
    resolution_of_identity,
    resolution_operator,
    series_route,
    weak_pairing_check,
)
from .config import MapSpec, RunConfig, build_map, load_config
from .coordinate import (
    CrossValidation,
    ProjectorMap,
    coherent_wavefunction,
    cross_validate,
    example_wavefunctions,
    gauss_hermite_grid,
    hermite_basis,
    hermite_stack,
    projector_map,
    write_wavefunction_csv,
)
from .displacement import (
    DisplacementSet,
    bch_factorization_check,
    displaced_pair,
    in_accuracy_regime,
    intertwining_check,
    power_similarity_check,
    weyl,
)
from .errors import (
    AccuracyRegimeWarning,
    ConditioningError,
    ConfigError,
    DegenerateKernelError,
    DimensionMismatchError,
    InvalidDimensionError,
    NotInvertibleError,
    OrthogonalVacuaError,
    ProvenanceError,
    PseudoBosonError,
    UnderResolvedError,
    UnderResolvedWarning,
    ValidationError,
)
from .fock import (
    FockSpace,
    Operator,
    SafeSubspace,
    identity,
    ladder_c,
    ladder_c_dag,
    make_space,
)
from .reports import (
    DEFAULT_TOLERANCES,
    CheckReport,
    format_report_table,
    reports_to_json,
)
from .riesz import (
    BiorthogonalFamily,
    MetricOperator,
    RieszMap,
    biorthogonal_family,
    load_riesz_map,
    make_riesz_map,
    metric_operator,
    quasi_basis_check,
    random_riesz_map,
    save_riesz_map,
    theta_rank_one_sums,
)
from .suite import convergence_study, run_suite, suite_failed

__version__ = "0.1.0"
