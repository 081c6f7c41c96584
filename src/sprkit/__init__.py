"""Terminal-centered graph minors via randomized ball growing.

Compresses a weighted graph onto its terminal set: grow clusters around the
terminals with exponentially distributed radius increments, contract each
cluster to its terminal, and measure how much terminal distances stretched.
The analysis submodules rebuild the charging and covering structure of a
recorded run and validate the compression's probabilistic guarantees
empirically.
"""

from .bounds import (
    TailBound,
    chernoff_bound,
    coin_box_batch,
    exp_tail_bounds,
    validate_tail_bounds,
)
from .charging import (
    COST_BOUND_FACTOR,
    ChargeStep,
    DetourLedger,
    Interval,
    IntervalPartition,
    InteriorTerminalError,
    LedgerError,
    build_interval_partition,
    cost_bound_check,
    failure_rate,
    reconstruct_ledger,
)
from .covering import (
    CoveringCheck,
    CoveringSummary,
    check_covering,
    summarize_covering,
)
from .engine import (
    CoverEvent,
    PreprocessResult,
    RadiusEvent,
    RoundsGuardError,
    RunTrace,
    SprParams,
    TraceFormatError,
    default_round_guard,
    min_terminal_pair_distance,
    preprocess_subdivide,
    run_and_contract,
    run_rng,
    run_spr,
    sample_exponential,
)
from .experiment import (
    ExperimentRow,
    ExperimentSpec,
    derive_seed,
    rows_to_csv,
    run_experiment,
)
from .generators import generate, normalized_to_unit_nearest, scaled
from .graph import (
    GraphError,
    ParseError,
    SubdivideResult,
    WeightedGraph,
    canonical_path,
    format_graph_text,
    induced_subgraph,
    parse_graph_text,
    subdivide_edges,
)
from .minor import (
    DistortionReport,
    InducedMinor,
    InvalidPartitionError,
    PartitionViolation,
    TerminalPartition,
    contract,
    distortion,
    validate_partition,
)
from .oracle import CapExceededError, OracleResult, best_partition, compare_to_spr
from .verify import VerifyResult, verify_trace

__version__ = "0.1.0"
