"""Single-loop accelerated variance reduction for composite finite-sum
convex problems, with a certified momentum/checkpoint schedule, baseline
solvers, complexity predictors, and brute-force verification oracles."""

from .analysis import (
    AlphaInterval,
    BoundReport,
    PredictedCost,
    accuracy_free_config,
    alpha_hat,
    check_lyapunov_bound,
    feasible_alpha_interval,
    lyapunov,
    predict_ifo,
    select_alpha,
)
from .estimator import (
    Checkpoint,
    EnumerationCapError,
    IfoLedger,
    exact_variance,
    make_checkpoint,
    maybe_update_checkpoint,
    sample_subset,
    svrg_estimate,
    variance_bound_rhs,
)
from .optimizers import (
    KatyushaHState,
    RunConfig,
    TraceRecord,
    fista_run,
    init_state,
    katyusha_h_step,
    pgd_run,
    psgd_run,
    run,
    state_lyapunov,
)
from .problems import (
    DataFormatError,
    FiniteSumProblem,
    ReferenceSolution,
    SparseDataset,
    make_rng,
    parse_libsvm,
    serialize_libsvm,
    solve_reference,
    synthesize,
    with_reference,
)
from .proximal import Regularizer, prox, reg_value, soft_threshold
from .schedule import (
    ScheduleParams,
    advance,
    compute_constants,
    growth_coefficient,
    max_step_size,
    p_at,
    tau_at,
)
from .verification import (
    CertificateReport,
    ClaimResult,
    default_alpha_grid,
    exact_conditional_lyapunov_descent,
    scan_denominator_growth,
    scan_schedule,
    verify_variance_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
