"""Eulerian circuit uniqueness and safe-walk computation.

Linear-time decisions about directed Eulerian graphs: whether the Eulerian
circuit is unique, which consecutive edge pairs are forced in every
circuit, and the full set of maximal safe walks; exact circuit counting
factors the BEST theorem over biconnected blocks. Self-loops and parallel
edges are analysed as they are. The oracles that cross-check these
answers (exhaustive enumeration, counting over trail states,
determinant-based counting, transition splitting, the cycle-intersection
test) live in :mod:`eulersafe.oracles`; the package exports only the few
that the benchmark calls.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first access, so a command pays only for
the code it runs.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_SUBMODULE = {
    "Circuit": "graph",
    "ContractError": "graph",
    "EulerCheck": "graph",
    "Graph": "graph",
    "GraphError": "graph",
    "NodeClass": "safety",
    "ParseError": "graph",
    "SafePairChecker": "safety",
    "SafeWalkReport": "safety",
    "SafetyEvidence": "safety",
    "articulation_points": "graph",
    "classify_nodes": "safety",
    "component_split": "oracles",
    "count_best": "oracles",
    "count_circuits": "circuit",
    "enumerate_eulerian_circuits": "oracles",
    "find_eulerian_circuit": "oracles",
    "has_unique_eulerian_circuit": "safety",
    "is_eulerian": "graph",
    "maximal_safe_walks": "safety",
    "normalize": "oracles",
    "parse_edge_list": "graph",
    "random_eulerian_edges": "generator",
    "underlying_undirected": "graph",
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
