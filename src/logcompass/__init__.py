"""Search-log analytics onto a six-type compass graph.

Turns raw access logs into per-user sessions, aggregates them into blocks
with mass/intensity/variety statistics, classifies each block onto one of
six admissible behavior types, and derives search routes, communities, and
compass-graph analytics from the result.
"""

from .blocks import BlockMetrics, block_means, compute_variety_series, metric_bounds
from .compass import (
    CrownGraph,
    assortativity,
    betweenness,
    build_base_graph,
    derive_edges,
    minimum_spanning_tree,
    neighbors,
    shortest_distance,
)
from .errors import ConfigError, InputError
from .events import (
    EventGroups,
    FilterRules,
    LogEvent,
    ParseDiagnostic,
    filter_events,
    parse_events,
)
from .graphio import export_graph, parse_canonical
from .hierarchy import (
    HierarchicalGraph,
    collapse_node,
    expand_all_leaves,
    expand_node,
    leaf_count,
    leaf_edges,
    leaf_paths,
    new_hierarchy,
)
from .routes import (
    CognitiveCommunity,
    CommunityPosition,
    SearchRoute,
    TransitionGraph,
    build_transition_graph,
    compass_hops,
    detect_communities,
    extract_routes,
    position_community,
    route_distance,
    transition_edge_weights,
)
from .synth import SplitMix64, SynthProfile, generate_events, generate_sessions, write_log
from .taxonomy import (
    ADMISSIBLE_NODES,
    BEST_TRIPLET,
    WORST_TRIPLET,
    BlockClassification,
    ClassifierConfig,
    NodeType,
    Stability,
    Tendency,
    Triplet,
    admissible_nodes,
    assign_node,
    classify_block,
    mismatch_cost,
    stability_of,
    tendency_of,
)

__version__ = "0.1.0"
