"""Streaming matching-size estimation for bounded-arboricity graphs.

Exact offline oracles (matching, degeneracy, degree-threshold
characterization, surviving-edge counts), deterministic stream generators,
one-pass estimators with space instrumentation, and an experiment harness.
"""

from .errors import ConfigError, GraphError, ParseError, StreamInvariantError
from .estimators import (
    Alg1Params,
    Estimate,
    alg1_estimate,
    alg2_estimate,
    alg4_estimate_e_alpha,
    dynamic_estimate,
    estimate_matching_logspace,
)
from .graphs import (
    Graph,
    build_graph,
    characterize,
    degeneracy,
    forest_matching_size,
    greedy_maximal_matching,
    later_degree_profile,
    maximum_matching_size,
    offline_alpha_good_set,
    parse_graph,
    serialize_graph,
)
from .harness import (
    ExperimentConfig,
    check_lemmas,
    emit_csv,
    parse_config,
    run_experiment,
    summarize_ratios,
)
from .streams import (
    EdgeStream,
    delete_event,
    generate_dynamic_stream,
    generate_random_tree,
    generate_star_forest,
    generate_union_of_forests,
    insert_event,
    order_stream,
    parse_stream,
    serialize_stream,
)

__version__ = "0.1.0"

__all__ = [
    "Alg1Params",
    "ConfigError",
    "EdgeStream",
    "Estimate",
    "ExperimentConfig",
    "Graph",
    "GraphError",
    "ParseError",
    "StreamInvariantError",
    "alg1_estimate",
    "alg2_estimate",
    "alg4_estimate_e_alpha",
    "build_graph",
    "characterize",
    "check_lemmas",
    "degeneracy",
    "delete_event",
    "dynamic_estimate",
    "emit_csv",
    "estimate_matching_logspace",
    "forest_matching_size",
    "generate_dynamic_stream",
    "generate_random_tree",
    "generate_star_forest",
    "generate_union_of_forests",
    "greedy_maximal_matching",
    "insert_event",
    "later_degree_profile",
    "maximum_matching_size",
    "offline_alpha_good_set",
    "order_stream",
    "parse_config",
    "parse_graph",
    "parse_stream",
    "run_experiment",
    "serialize_graph",
    "serialize_stream",
    "summarize_ratios",
]
