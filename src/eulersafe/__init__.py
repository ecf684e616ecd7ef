"""Eulerian circuit uniqueness and safe-walk computation.

Linear-time decisions about directed Eulerian graphs: whether the Eulerian
circuit is unique, which consecutive edge pairs are forced in every
circuit, and the full set of maximal safe walks. Independent oracles
(exhaustive enumeration, determinant-based counting, cycle-intersection
test) are provided for verification; exact circuit counting factors the
BEST theorem over biconnected blocks. Self-loops and parallel edges are
analysed as they are, by the oracles too.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first access, so a command pays only for
the code it runs.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_SUBMODULE = {
    "Circuit": "graph",
    "ComponentSplit": "oracles",
    "ContractError": "graph",
    "CountReport": "oracles",
    "EnumerationOverflow": "oracles",
    "EnumerationResult": "oracles",
    "EulerCheck": "graph",
    "Graph": "graph",
    "GraphError": "graph",
    "IntersectionGraph": "oracles",
    "NodeClass": "safety",
    "NormalizationMap": "oracles",
    "ParseError": "graph",
    "SafePairChecker": "safety",
    "SafeWalkReport": "safety",
    "SafetyEvidence": "safety",
    "articulation_points": "graph",
    "brute_force_safe_walks": "oracles",
    "canonical_rotation": "circuit",
    "classify_nodes": "safety",
    "component_split": "oracles",
    "count_arborescences": "oracles",
    "count_best": "oracles",
    "count_circuits": "circuit",
    "count_eulerian_circuits": "oracles",
    "edge_list_text": "generator",
    "enumerate_eulerian_circuits": "oracles",
    "find_eulerian_circuit": "circuit",
    "has_unique_eulerian_circuit": "safety",
    "is_eulerian": "graph",
    "is_safe_pair": "safety",
    "is_valid_walk": "graph",
    "maximal_safe_walks": "safety",
    "normalize": "oracles",
    "parse_edge_list": "graph",
    "pevzner_intersection_graph": "oracles",
    "random_eulerian_edges": "generator",
    "swap_at_node": "circuit",
    "underlying_undirected": "graph",
    "verify_circuit": "circuit",
    "walk_nodes": "graph",
}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its submodule on first access (PEP 562)."""
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
