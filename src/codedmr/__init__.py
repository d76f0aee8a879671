"""Binary-matrix coded MapReduce: matrices, covers, shuffles, stragglers."""

from .matrix import (
    BinaryComputingMatrix,
    CoverReport,
    FormatError,
    IdentityCover,
    MatrixReport,
    count_identity_check,
    format_cover,
    format_matrix,
    load_formula,
    parse_cover,
    parse_matrix,
    validate_matrix,
    verify_cover,
)
from .constructions import (
    BlockDesign,
    DesignError,
    SchemeParameters,
    bibd_matrix,
    fano_design,
    fano_matrix,
    ingest_design,
    man_matrix,
    scheme_load,
    t_subset_matrix,
    transversal_matrix,
)
from .covers import (
    CoverBudgetError,
    CoverInfeasibleError,
    CoverSearchError,
    man_cover,
    search_cover,
    t_subset_cover,
    transversal_cover,
)
from .shuffle import (
    JobSpec,
    PipelineResult,
    SenderPlan,
    ShuffleError,
    ShuffleTranscript,
    Transmission,
    measured_load,
    run_map_phase,
    run_pipeline,
    run_reduce,
    run_shuffle,
    synth_map,
)
from .balance import (
    AuditReport,
    BalanceError,
    audit_plan,
    balance_preconditions,
    build_sender_plan,
    perfect_matching,
)
from .straggler import (
    comparison_table,
    optimal_straggler_load,
    straggler_load_formula,
    straggler_run,
    worst_case_sweep,
)

__version__ = "0.1.0"
