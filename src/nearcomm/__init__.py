"""Near-commuting Hermitian pairs: correction, calibration, and companions.

The core pipeline turns an almost-commuting Hermitian pair (a, b) with
||b|| <= 1 into an exactly commuting pair nearby, with every bound of the
construction measured.  Around it sit the smoothing kernels with their
computed constants, spectral-window partitions, a Gibbs/KMS laboratory, a
desk-scale CAR algebra, and the three-point measure-path construction.
"""

from .calibration import (
    CalibrationTable,
    build_calibration,
    load_calibration,
    save_calibration,
)
from .car import (
    FockRep,
    QuasiFreeFlow,
    ResidualVector,
    a_star,
    annihilator,
    fock_rep,
    quasi_free_flow,
    quasi_free_generator,
    rank_perturbation_norms,
    residual_vector,
    second_quantize,
    wick_unitary,
)
from .ensembles import EnsembleInstance, instance_rng, pair_instance
from .errors import (
    BlockNormViolation,
    DegenerateMeasure,
    EigensolverError,
    FunctionDomainError,
    LinSolverFailure,
    MomentInfeasible,
    MonotonicityViolation,
    NearcommError,
    QuadratureError,
    SandwichViolation,
    SpectralGapMissing,
)
from .hermitian import (
    SpectralDecomposition,
    as_array,
    checked_hermitian,
    commutator,
    func_calc,
    hermitian_part,
    op_norm,
    spectral_decomp,
)
from .jointdiag import (
    CommutingPair,
    SolverReport,
    commuting_approximation,
    joint_diagonalize,
)
from .kernels import (
    MollifierKernel,
    StepKernel,
    band_smooth,
    build_mollifier,
    build_step,
    kernel_dump,
    lipschitz_commutator_check,
)
from .kms import (
    KmsState,
    PerturbedFunctional,
    TheoremBResult,
    boundary_residual,
    close_projection_isometry,
    gibbs,
    isometry_function_constant,
    kms_experiment,
    kms_verify,
    perturbed_functional,
    symmetry_action,
    theorem_b_inequality,
)
from .measurepath import (
    DiscreteMeasureState,
    MeasurePath,
    discrete_measure_state,
    load_measure,
    select_three_points,
    three_point_path,
    three_point_weights,
)
from .pipeline import (
    CorrectionResult,
    SweepRow,
    modulus_sweep,
    sweep_medians,
    sweep_rows_to_csv,
    theorem_c_correct,
)
from .projections import (
    PartitionBlock,
    ProjectionPartition,
    WindowProjectionResult,
    partition,
    window_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
