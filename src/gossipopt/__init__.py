"""Adaptive decentralized primal-dual optimization over mesh networks."""

from .algorithms import (
    AdaptiveAlgorithm,
    AdaptiveState,
    DivergenceError,
    ExtraAlgorithm,
    GammaSchedule,
    NeighborExchange,
    adaptive_step,
    local_max_consensus,
    local_min_consensus,
)
from .backtracking import BacktrackingError, backtrack_batch
from .graphs import (
    GossipMatrix,
    Graph,
    GraphError,
    build_complete_graph,
    build_cycle_graph,
    build_erdos_renyi,
    build_line_graph,
    diameter,
    gossip_matrix,
    graph_from_spec,
    metropolis_weights,
    spectral_data,
)
from .harness import (
    ConfigError,
    MeritRow,
    RunConfig,
    RunTrace,
    TuneExtraError,
    experiment_suite,
    load_config,
    run,
    tune_extra,
)
from .losses import (
    LogisticFamily,
    LossError,
    QuadraticFamily,
    centralized_solve,
    generate_quadratic,
    parse_libsvm,
    partition_logistic,
    quadratic_condition_numbers,
)
from .metrics import (
    ErgodicAverage,
    FixedPoint,
    MetricsError,
    fixed_point,
    linear_rate_fit,
    merit_cvx,
    merit_sc,
)

__version__ = "0.1.0"
