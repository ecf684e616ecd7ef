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

from typing import TYPE_CHECKING, NamedTuple, Optional

from .graph import Analysis, ContractError, Graph, require_eulerian

if TYPE_CHECKING:
    from .oracles import NormalizationMap


class NodeClass(NamedTuple):
    """Per-node degree and cut status; ``in_a`` marks forcing nodes.

    A degree-2 node that carries a self-loop is forcing without being a
    cut node.
    """

    label: str
    degree: int
    is_cut: bool
    in_a: bool


class SafeWalkReport(NamedTuple):
    """Maximal safe walks as edge-id sequences, plus conservation metadata.

    Walks are pairwise edge-disjoint and cover every edge, so
    ``total_edge_length`` always equals |E|. When ``unique_circuit`` is
    true the single walk is the full circuit (anchored at edge id 0).
    """

    walks: tuple[tuple[int, ...], ...]
    unique_circuit: bool
    total_edge_length: int


class SafetyEvidence(NamedTuple):
    """Verdict for one consecutive edge pair, with the reason it holds.

    Reason codes: ``degree-one``, ``cut-split``, ``degree-too-high``,
    ``not-forced`` (middle node has degree 2, is not a cut node and carries
    no self-loop), ``not-in-any-circuit`` (both edges on the same side of
    the middle node) and ``edges-missing``. Side ids are filled in for the
    ``cut-split`` and ``not-in-any-circuit`` cases, where v is a forcing
    degree-2 node with two sides: side 1 is v's last self-loop in edge-id
    order if it has one, else the subtree of the analysis DFS (from node 0)
    below v's latest-discovered child that opens a block; side 0 is the rest.
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


def _split(g: Graph, a: Analysis, v: int) -> tuple[int, int, int]:
    """How the forcing degree-2 node ``v`` splits its edge ends into the two
    sides :class:`SafetyEvidence` numbers, as ``(loop, lo, hi)``.

    An edge end ``e`` at ``v`` whose other end is ``w`` lies on side 1 iff
    ``e == loop`` or ``lo <= disc[w] < hi``. With a self-loop, ``loop`` is
    v's last one and the interval is empty; without, ``loop`` is -1 and
    ``[lo, hi)`` is the ``[disc, fin)`` interval of v's latest-discovered
    child that opens a block.
    """
    nbr = g.nbr
    start = g.off[v]
    # The out part of a degree-2 node is start, start + 1, by edge id.
    if nbr[start + 1] == v:
        return g.eid[start + 1], 0, 0
    if nbr[start] == v:
        return g.eid[start], 0, 0
    disc = a.disc
    parent = a.parent
    opens = a.opens
    latest = -1
    for i in range(start, start + 4):
        c = nbr[i]
        if parent[c] == v and opens[c] and (latest < 0 or disc[c] > disc[latest]):
            latest = c
    return -1, disc[latest], a.fin[latest]


def _forced_successors(g: Graph, a: Analysis, in_a: list[bool]) -> list[int]:
    """``succ[e]``, the out-edge every circuit takes after ``e``, or -1 where
    the head of ``e`` is not forcing: the only out-edge at degree 1, the
    out-edge on the other side at degree 2."""
    succ = [-1] * g.num_edges
    off = g.off
    out_end = g.out_end
    nbr = g.nbr
    eid = g.eid
    disc = a.disc
    for v, forcing in enumerate(in_a):
        if not forcing:
            continue
        start = off[v]
        mid = out_end[v]
        if mid - start == 1:
            succ[eid[mid]] = eid[start]
            continue
        loop, lo, hi = _split(g, a, v)
        s0 = eid[start] == loop or lo <= disc[nbr[start]] < hi
        for i in (mid, mid + 1):
            e = eid[i]
            succ[e] = eid[start + ((e == loop or lo <= disc[nbr[i]] < hi) == s0)]
    return succ


class SafePairChecker:
    """Answers consecutive-pair safety queries against one graph.

    Construction runs the analysis pass once, O(|E|). Each query then takes
    O(1): at a forcing degree-2 node the pair is safe iff its two edges lie
    on different sides, as :func:`_split` reads them off the pass.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._a = require_eulerian(g)
        self._degrees, self._in_a = _node_class_arrays(g, self._a)

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
        loop, lo, hi = _split(g, self._a, v)
        disc = self._a.disc
        cu = int(e1 == loop or lo <= disc[g.tails[e1]] < hi)
        cw = int(e2 == loop or lo <= disc[g.heads[e2]] < hi)
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
    g: Graph, norm_map: Optional[NormalizationMap] = None
) -> SafeWalkReport:
    """Compute all maximal safe walks in O(|E|), with no circuit built.

    A walk is a maximal chain of forced successors. One starts at every
    edge leaving a non-forcing node, the walks in ascending order of that
    first edge id, and ends at the next non-forcing node. If every node is
    forcing the circuit is unique and reported whole, from edge id 0.
    Multigraphs are taken as they are. ``norm_map``, from
    :func:`~eulersafe.oracles.normalize`, projects walks over a normalized
    graph back to the original edge ids; it remains for ``bench/`` until
    ROADMAP item 1.
    """
    a = require_eulerian(g)
    _, in_a = _node_class_arrays(g, a)
    succ = _forced_successors(g, a, in_a)
    starts = [e for e, t in enumerate(g.tails) if not in_a[t]]
    unique = not starts
    walks = []
    for first in starts or [0]:
        walk = [first]
        e = succ[first]
        while e >= 0 and e != first:
            walk.append(e)
            e = succ[e]
        walks.append(tuple(walk))
    if norm_map is not None and not norm_map.is_identity:
        walks = [norm_map.project(w, circular=unique) for w in walks]
    total = sum(len(w) for w in walks)
    return SafeWalkReport(walks=tuple(walks), unique_circuit=unique, total_edge_length=total)
