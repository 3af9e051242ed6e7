"""Adaptive decentralized primal-dual optimization over mesh networks.

The names below are the public surface; everything else is reached through
its module (``gossipopt.graphs``, ``gossipopt.metrics``, ...).
"""

from .algorithms import AdaptiveAlgorithm, DivergenceError, ExtraAlgorithm
from .backtracking import BacktrackingError
from .graphs import GraphError, gossip_matrix, graph_from_spec
from .harness import (
    ConfigError,
    RunConfig,
    TuneExtraError,
    experiment_suite,
    load_config,
    run,
    tune_extra,
)
from .losses import LossError, generate_quadratic, parse_libsvm, partition_logistic
from .metrics import MetricsError, fixed_point

__version__ = "0.1.0"
