"""Eulerian circuit uniqueness and safe-walk computation.

Linear-time decisions about directed Eulerian graphs: whether the Eulerian
circuit is unique, which consecutive edge pairs are forced in every
circuit, and the full set of maximal safe walks. Independent oracles
(exhaustive enumeration, determinant-based counting, cycle-intersection
test) are provided for verification; exact circuit counting factors the
BEST theorem over biconnected blocks. Self-loops and parallel edges are
analysed as they are; ``normalize`` only feeds the oracles that need a
simple graph.
"""

from .circuit import (
    canonical_rotation,
    count_circuits,
    find_eulerian_circuit,
    swap_at_node,
    verify_circuit,
)
from .generator import edge_list_text, random_eulerian_edges
from .graph import (
    Circuit,
    ContractError,
    EulerCheck,
    Graph,
    GraphError,
    ParseError,
    is_eulerian,
    is_valid_walk,
    parse_edge_list,
    walk_nodes,
)
from .oracles import (
    CountReport,
    EnumerationOverflow,
    EnumerationResult,
    IntersectionGraph,
    NormalizationMap,
    brute_force_safe_walks,
    count_arborescences,
    count_best,
    count_eulerian_circuits,
    enumerate_eulerian_circuits,
    normalize,
    pevzner_intersection_graph,
)
from .safety import (
    NodeClass,
    SafePairChecker,
    SafeWalkReport,
    SafetyEvidence,
    classify_nodes,
    has_unique_eulerian_circuit,
    is_safe_pair,
    maximal_safe_walks,
)
from .undirected import (
    ComponentSplit,
    articulation_points,
    component_split,
    underlying_undirected,
)

__all__ = [
    "Circuit",
    "ComponentSplit",
    "ContractError",
    "CountReport",
    "EnumerationOverflow",
    "EnumerationResult",
    "EulerCheck",
    "Graph",
    "GraphError",
    "IntersectionGraph",
    "NodeClass",
    "NormalizationMap",
    "ParseError",
    "SafePairChecker",
    "SafeWalkReport",
    "SafetyEvidence",
    "articulation_points",
    "brute_force_safe_walks",
    "canonical_rotation",
    "classify_nodes",
    "component_split",
    "count_arborescences",
    "count_best",
    "count_circuits",
    "count_eulerian_circuits",
    "edge_list_text",
    "enumerate_eulerian_circuits",
    "find_eulerian_circuit",
    "has_unique_eulerian_circuit",
    "is_eulerian",
    "is_safe_pair",
    "is_valid_walk",
    "maximal_safe_walks",
    "normalize",
    "parse_edge_list",
    "pevzner_intersection_graph",
    "random_eulerian_edges",
    "swap_at_node",
    "underlying_undirected",
    "verify_circuit",
    "walk_nodes",
]

__version__ = "0.1.0"
