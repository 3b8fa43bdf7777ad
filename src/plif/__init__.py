"""Anytime causal-query bounds over potential-level-annotated Bayesian
networks: retrieve the submodel behind a threshold, bound the query from
it, tighten by retrieving deeper, and detect when the bounds are exact.
"""

from .errors import (
    ExpansionCapError,
    FactorTooLargeError,
    FrontierTooWideError,
    InvalidNetworkError,
    NetworkFormatError,
    NoStartNodesError,
    OpenPastError,
    PlifError,
    QueryError,
    ThresholdError,
    UnknownNodeError,
    UnknownStateError,
    ZeroEvidenceError,
)
from .gen import (
    HmmParams,
    RandomNetSpec,
    hmm_model,
    hmm_query,
    hmm_sweep_experiment,
    random_network,
    sweep_csv,
)
from .infer import (
    Exactness,
    QueryBounds,
    Schedule,
    anytime_sweep,
    bounds_at,
    default_schedule,
    frontier_clamp_table,
)
from .model import (
    LazyNetwork,
    Network,
    NodeSpec,
    Query,
    as_lazy,
    load_network,
    serialize,
    validate,
)
from .retrieval import (
    Threshold,
    d_separated,
    materialize,
    root_set,
)

__version__ = "0.1.0"

__all__ = [
    "Exactness",
    "ExpansionCapError",
    "FactorTooLargeError",
    "FrontierTooWideError",
    "HmmParams",
    "InvalidNetworkError",
    "LazyNetwork",
    "Network",
    "NetworkFormatError",
    "NoStartNodesError",
    "NodeSpec",
    "OpenPastError",
    "PlifError",
    "Query",
    "QueryBounds",
    "QueryError",
    "RandomNetSpec",
    "Schedule",
    "Threshold",
    "ThresholdError",
    "UnknownNodeError",
    "UnknownStateError",
    "ZeroEvidenceError",
    "anytime_sweep",
    "as_lazy",
    "bounds_at",
    "d_separated",
    "default_schedule",
    "frontier_clamp_table",
    "hmm_model",
    "hmm_query",
    "hmm_sweep_experiment",
    "load_network",
    "materialize",
    "random_network",
    "root_set",
    "serialize",
    "sweep_csv",
    "validate",
]
