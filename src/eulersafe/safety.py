"""Uniqueness of the Eulerian circuit and maximal safe walks.

An edge pair ((u,v),(v,w)) is forced (appears in every Eulerian circuit)
exactly when it appears in some circuit and v has degree 1, or degree 2 and
is a cut node of the underlying undirected graph. The set of nodes
satisfying that degree/cut condition characterizes uniqueness (all nodes in
the set) and gives the cutting points for maximal safe walks.

Multigraphs are analysed as they are. A parallel copy of an edge never
separates its endpoints, so the cut test needs no change for it. A
self-loop at a degree-2 node is a side of its own: the circuit must leave
the rest of the graph, take the loop and come back, exactly as at a cut
node.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .circuit import _hierholzer
from .graph import ContractError, Graph, require_eulerian
from .undirected import ComponentSplit, UGraph, articulation_flags, component_split, underlying_undirected

if TYPE_CHECKING:
    from .oracles import NormalizationMap


@dataclass(frozen=True)
class NodeClass:
    """Per-node degree and cut status; ``in_a`` marks forcing nodes.

    A degree-2 node that carries a self-loop is forcing without being a
    cut node.
    """

    label: str
    degree: int
    is_cut: bool
    in_a: bool


@dataclass(frozen=True)
class SafeWalkReport:
    """Maximal safe walks as edge-id sequences, plus conservation metadata.

    Walks are pairwise edge-disjoint and cover every edge, so
    ``total_edge_length`` always equals |E|. When ``unique_circuit`` is
    true the single walk is the full circuit (anchored at edge id 0).
    """

    walks: tuple[tuple[int, ...], ...]
    unique_circuit: bool
    total_edge_length: int


@dataclass(frozen=True)
class SafetyEvidence:
    """Verdict for one consecutive edge pair, with the reason it holds.

    Reason codes: ``degree-one``, ``cut-split``, ``degree-too-high``,
    ``not-forced`` (middle node has degree 2, is not a cut node and carries
    no self-loop), ``not-in-any-circuit`` (both edges on the same side of
    the middle node) and ``edges-missing``. Side ids are filled in for the
    ``cut-split`` and ``not-in-any-circuit`` cases: the components of G - v,
    then each self-loop at v as a side of its own, numbered after them.
    """

    safe: bool
    reason: str
    component_u: Optional[int] = None
    component_w: Optional[int] = None


def _node_class_arrays(g: Graph) -> tuple[list[int], list[bool], list[bool]]:
    """(degree, cut flag, forcing flag) per node id; validates contracts."""
    out_adj = g.out_adj
    in_adj = g.in_adj
    for v in range(g.num_nodes):
        if len(out_adj[v]) != len(in_adj[v]):
            raise ContractError(
                f"graph is not Eulerian: node '{g.labels[v]}' has out-degree "
                f"{len(out_adj[v])} and in-degree {len(in_adj[v])}"
            )
    # The cut-node DFS doubles as the weak-connectivity part of the
    # Eulerian check, avoiding a separate traversal.
    try:
        cut = articulation_flags(underlying_undirected(g))
    except ContractError:
        raise ContractError(
            "graph is not Eulerian: the underlying undirected graph is not connected"
        ) from None
    degrees = [len(edges) for edges in out_adj]
    heads = g.heads
    in_a = [
        d == 1 or (d == 2 and (cut[v] or heads[out[0]] == v or heads[out[1]] == v))
        for v, (d, out) in enumerate(zip(degrees, out_adj))
    ]
    return degrees, cut, in_a


def classify_nodes(g: Graph) -> dict[str, NodeClass]:
    """Degree, cut-node status and forcing membership for every node."""
    degrees, cut, in_a = _node_class_arrays(g)
    return {
        label: NodeClass(label=label, degree=degrees[v], is_cut=cut[v], in_a=in_a[v])
        for v, label in enumerate(g.labels)
    }


class SafePairChecker:
    """Answers consecutive-pair safety queries against one graph.

    The node classification is computed once; component splits are computed
    per queried forcing degree-2 node and cached, so a batch of queries over
    the same graph costs O(|E|) per distinct such node.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._degrees, _, self._in_a = _node_class_arrays(g)
        self._u: Optional[UGraph] = None
        self._splits: dict[int, ComponentSplit] = {}

    def _side(self, v: int, e: int, w: int) -> int:
        """The side of ``v`` that edge ``e`` reaches through its other end
        ``w``: the component of G - v holding ``w``. A self-loop is a side
        of its own, numbered after those components."""
        split = self._splits.get(v)
        if split is None:
            if self._u is None:
                self._u = underlying_undirected(self.g)
            split = self._splits[v] = component_split(self._u, self.g.labels[v])
        if w != v:
            return split.component[self.g.labels[w]]
        loops = [f for f in self.g.out_adj[v] if self.g.heads[f] == v]
        return split.count + loops.index(e)

    def check(self, e1: int, e2: int) -> SafetyEvidence:
        g = self.g
        m = g.num_edges
        if not (0 <= e1 < m and 0 <= e2 < m):
            return SafetyEvidence(False, "edges-missing")
        if e1 == e2:
            raise ContractError("the two edges of a pair must be distinct")
        if g.heads[e1] != g.tails[e2]:
            raise ContractError("edges are not consecutive: head of the first must be tail of the second")
        v = g.heads[e1]
        d = self._degrees[v]
        if d == 1:
            return SafetyEvidence(True, "degree-one")
        if d >= 3:
            return SafetyEvidence(False, "degree-too-high")
        if not self._in_a[v]:
            return SafetyEvidence(False, "not-forced")
        cu = self._side(v, e1, g.tails[e1])
        cw = self._side(v, e2, g.heads[e2])
        if cu != cw:
            return SafetyEvidence(True, "cut-split", component_u=cu, component_w=cw)
        return SafetyEvidence(False, "not-in-any-circuit", component_u=cu, component_w=cw)


def is_safe_pair(g: Graph, e1: int, e2: int) -> SafetyEvidence:
    """Does the edge pair (e1, e2) appear in every Eulerian circuit?

    ``e1`` must end where ``e2`` starts. For repeated queries on one graph
    use :class:`SafePairChecker`, which shares the precomputation.
    """
    return SafePairChecker(g).check(e1, e2)


def has_unique_eulerian_circuit(g: Graph) -> bool:
    """Decide uniqueness of the Eulerian circuit in O(|E|): it is unique iff
    every node is forcing."""
    require_eulerian(g)
    if any(len(edges) > 2 for edges in g.out_adj):
        return False  # a node of degree 3 or more never forces
    return all(_node_class_arrays(g)[2])


def maximal_safe_walks(
    g: Graph,
    norm_map: Optional[NormalizationMap] = None,
    rng: Optional[random.Random] = None,
) -> SafeWalkReport:
    """Compute all maximal safe walks in O(|E|).

    One Eulerian circuit is built and cut at every occurrence of a
    non-forcing node, keeping a copy of the node as an endpoint of both
    neighboring segments. If there is no cutting point the circuit is
    unique and reported whole. Multigraphs are taken as they are;
    ``norm_map``, from :func:`~eulersafe.oracles.normalize`, projects walks
    over a normalized graph back to the original edge ids.
    """
    _, _, in_a = _node_class_arrays(g)
    circuit = _hierholzer(g, rng=rng)
    edges = circuit.edges
    tails = g.tails
    cut_positions = [i for i in range(len(edges)) if not in_a[tails[edges[i]]]]
    if not cut_positions:
        walks: tuple[tuple[int, ...], ...] = (edges,)
        unique = True
    else:
        k = len(edges)
        segments = []
        for idx, a in enumerate(cut_positions):
            b = cut_positions[idx + 1] if idx + 1 < len(cut_positions) else cut_positions[0] + k
            segments.append(edges[a:b] if b <= k else edges[a:] + edges[: b - k])
        walks = tuple(segments)
        unique = False
    if norm_map is not None and not norm_map.is_identity:
        walks = tuple(norm_map.project(w, circular=unique) for w in walks)
    total = sum(len(w) for w in walks)
    return SafeWalkReport(walks=walks, unique_circuit=unique, total_edge_length=total)
