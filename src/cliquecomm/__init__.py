"""Clique-seeded overlapping community detection and evaluation toolkit."""

from .baselines import CpmParams, LpParams, clique_percolation, label_propagation
from .caa import CaaParams, grow_community_with_rounds, run_caa
from .cliques import CliqueSet, enumerate_maximal_cliques, filter_overlapping
from .errors import (
    CliquecommError,
    DeadlineExceededError,
    EdgeListParseError,
    ResourceLimitError,
)
from .graph import (
    DirectedEdgeList,
    Graph,
    build_graph,
    induced_subgraph,
    load_cover,
    load_edge_list,
    load_node_ids,
    mutualize,
    planted_partition,
    save_cover,
    save_edge_list,
    sort_cover,
)
from .hashtags import (
    community_theme,
    load_hashtags,
    sample_communities,
    user_top_k,
)
from .metrics import (
    DEFAULT_BANDS,
    MetricsReport,
    desirable_coverage,
    evaluate,
    extended_modularity,
    size_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "CaaParams",
    "CliqueSet",
    "CliquecommError",
    "CpmParams",
    "DEFAULT_BANDS",
    "DeadlineExceededError",
    "DirectedEdgeList",
    "EdgeListParseError",
    "Graph",
    "LpParams",
    "MetricsReport",
    "ResourceLimitError",
    "build_graph",
    "clique_percolation",
    "community_theme",
    "desirable_coverage",
    "enumerate_maximal_cliques",
    "evaluate",
    "extended_modularity",
    "filter_overlapping",
    "grow_community_with_rounds",
    "induced_subgraph",
    "label_propagation",
    "load_cover",
    "load_edge_list",
    "load_hashtags",
    "load_node_ids",
    "mutualize",
    "planted_partition",
    "run_caa",
    "sample_communities",
    "save_cover",
    "save_edge_list",
    "size_histogram",
    "sort_cover",
    "user_top_k",
]
