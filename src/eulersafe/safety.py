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
from .graph import Analysis, ContractError, Graph, require_eulerian

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
    ``cut-split`` and ``not-in-any-circuit`` cases. They number the
    components of G - v in order of first discovery by the analysis DFS
    from node 0: 0 is the rest, the component holding node 0, when v is
    not node 0; then each child subtree of v that opens a block, in DFS
    order; then each self-loop at v, a side of its own, in edge-id order.
    """

    safe: bool
    reason: str
    component_u: Optional[int] = None
    component_w: Optional[int] = None


def _node_class_arrays(g: Graph, a: Analysis) -> tuple[list[int], list[bool]]:
    """(degree, forcing flag) per node id, from the analysis pass."""
    off = g.off
    nbr = g.nbr
    degrees = [end - start for start, end in zip(off, g.out_end)]
    # At a degree-2 node the out part is off[v], off[v] + 1; a loop there
    # has the node itself as the other end.
    in_a = [
        d == 1 or (d == 2 and (a.cut[v] or nbr[off[v]] == v or nbr[off[v] + 1] == v))
        for v, d in enumerate(degrees)
    ]
    return degrees, in_a


def classify_nodes(g: Graph) -> dict[str, NodeClass]:
    """Degree, cut-node status and forcing membership for every node."""
    a = require_eulerian(g)
    degrees, in_a = _node_class_arrays(g, a)
    return {
        label: NodeClass(label=label, degree=degrees[v], is_cut=a.cut[v], in_a=in_a[v])
        for v, label in enumerate(g.labels)
    }


class SafePairChecker:
    """Answers consecutive-pair safety queries against one graph.

    Construction runs the analysis pass once, O(|E|). Each query then takes
    O(1): the sides of a forcing degree-2 node are read off the DFS
    intervals of that pass (Tarjan's technique), and such a node has at
    most four edge ends to look at.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._a = require_eulerian(g)
        self._degrees, self._in_a = _node_class_arrays(g, self._a)

    def _side(self, v: int, e: int, w: int) -> int:
        """The side of ``v`` that edge ``e`` reaches through its other end
        ``w``, numbered as :class:`SafetyEvidence` describes.

        ``w`` lies in the subtree of the child ``c`` of ``v`` whose
        ``[disc, fin)`` interval holds ``disc[w]``. That subtree is a side
        of its own iff ``c`` opens a block; otherwise a back edge joins it
        to the rest, as it does every node outside the subtree of ``v``.
        """
        g = self.g
        a = self._a
        disc = a.disc
        start, stop = g.off[v], g.off[v + 1]
        children = sorted(
            {c for c in g.nbr[start:stop] if a.parent[c] == v and a.opens[c]},
            key=disc.__getitem__,
        )
        first = 1 if v else 0  # node 0, the DFS root, has no rest
        if w == v:
            out = range(start, g.out_end[v])
            loops = [g.eid[i] for i in out if g.nbr[i] == v]
            return first + len(children) + loops.index(e)
        dw = disc[w]
        for k, c in enumerate(children):
            if disc[c] <= dw < a.fin[c]:
                return first + k
        return 0

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
    return all(_node_class_arrays(g, require_eulerian(g))[1])


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
    _, in_a = _node_class_arrays(g, require_eulerian(g))
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
