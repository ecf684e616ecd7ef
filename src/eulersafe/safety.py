"""Uniqueness of the Eulerian circuit and maximal safe walks.

An edge pair ((u,v),(v,w)) is forced (appears in every Eulerian circuit)
exactly when it appears in some circuit and v has degree 1, or degree 2 and
is a cut node of the underlying undirected graph. :func:`_successors`
decides that condition once per node and records it as one table, the
forced successor of every edge. Every other answer is read off that table:
the circuit is unique iff every edge has a forced successor, and the
maximal safe walks are its chains, one ending at each edge without one.

Multigraphs are analysed as they are. A parallel copy of an edge never
separates its endpoints, so the cut test needs no change for it. A
self-loop at a degree-2 node is a side of its own: the circuit must leave
the rest of the graph, take the loop and come back, exactly as at a cut
node. :func:`_sides` is the one degree-2 test: it reads the loop, or the
two sides of a cut node, off the block labels of the analysis pass.
"""
from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, count

from .graph import ContractError, Graph, _cut_nodes, require_eulerian


class NodeClass(namedtuple("NodeClass", "label degree is_cut in_a")):
    """Per-node degree and cut status; ``in_a`` marks forcing nodes.

    A degree-2 node that carries a self-loop is forcing without being a
    cut node.
    """

    __slots__ = ()


class SafeWalkReport(namedtuple("SafeWalkReport", "walks unique_circuit")):
    """Maximal safe walks as edge-id sequences.

    Walks are pairwise edge-disjoint and cover every edge, so their lengths
    sum to |E|. When ``unique_circuit`` is true the single walk is the full
    circuit (anchored at edge id 0).
    """

    __slots__ = ()


class SafetyEvidence(
    namedtuple("SafetyEvidence", "safe reason component_u component_w", defaults=(None, None))
):
    """Verdict for one consecutive edge pair, with the reason it holds.

    Reason codes: ``degree-one``, ``cut-split``, ``degree-too-high``,
    ``not-forced`` (middle node has degree 2, is not a cut node and carries
    no self-loop), ``not-in-any-circuit`` (both edges on the same side of
    the middle node) and ``edges-missing``. Side ids are filled in for the
    ``cut-split`` and ``not-in-any-circuit`` cases, where v is a forcing
    degree-2 node: ``component_u`` is the side of the first edge and
    ``component_w`` that of the second. Side 1 is one out-edge and one
    in-edge at v: v's last self-loop in edge-id order, as both, if it has
    one. Otherwise side 0 is the two edges whose other ends lie in the
    component of g - v that holds node 0, or, when v is node 0, the one
    that holds the head of its lowest-id out-edge; side 1 is the other two.
    """

    __slots__ = ()


def classify_nodes(g: Graph) -> dict[str, NodeClass]:
    """Degree, cut-node status and forcing membership for every node: a
    node forces iff its first in-edge has a forced successor."""
    block, succ = _successors(g)
    cut = _cut_nodes(g, block)
    eid = g.eid
    return {
        label: NodeClass(label=label, degree=mid - start, is_cut=cut[v] == 1, in_a=succ[eid[mid]] >= 0)
        for v, (label, start, mid) in enumerate(zip(g.labels, g.off, g.out_end))
    }


def _sides(g: Graph, block: array, v: int) -> tuple[int, int] | None:
    """Side 1 of the degree-2 node ``v`` as its ``(out-edge, in-edge)``, or
    None when ``v`` does not force; the other two edges at ``v`` are side 0.

    With a self-loop, side 1 is v's last loop, given as both edges. Without
    one, ``v`` forces only as a cut node: side 1 is the out-edge and the
    in-edge whose other ends carry a label larger than v's, which leave
    v's own block (see :func:`~eulersafe.graph._analyse`).
    """
    nbr = g.nbr
    eid = g.eid
    start = g.off[v]
    # The out part of a degree-2 node is start, start + 1, and its in part
    # start + 2, start + 3, each by edge id; a later loop is tried first.
    for i in (start + 1, start):
        if nbr[i] == v:
            return eid[i], eid[i]
    own = block[v]
    # Each side of a cut node is balanced: one out-edge, one in-edge.
    for i in (start, start + 1):
        if block[nbr[i]] > own:
            return eid[i], eid[start + 2] if block[nbr[start + 2]] > own else eid[start + 3]
    return None


def _successors(g: Graph) -> tuple[array, array]:
    """The block labels of the analysis pass, and ``succ[e]``, the out-edge
    every circuit takes after ``e``, or -1 where the head of ``e`` does not
    force: the only out-edge at degree 1, the out-edge on the other side at
    a forcing degree-2 node. Raises :class:`ContractError` if ``g`` is not
    Eulerian."""
    block = require_eulerian(g)
    succ = array("i", [-1]) * g.num_edges
    eid = g.eid
    for v, (start, mid) in enumerate(zip(g.off, g.out_end)):
        if mid - start == 1:
            succ[eid[mid]] = eid[start]
        elif mid - start == 2:
            sides = _sides(g, block, v)
            if sides is not None:
                out1, in1 = sides
                # Each side's in-edge goes on to the other side's out-edge.
                succ[eid[mid] if eid[mid + 1] == in1 else eid[mid + 1]] = out1
                succ[in1] = eid[start] if eid[start + 1] == out1 else eid[start + 1]
    return block, succ


class SafePairChecker:
    """Answers consecutive-pair safety queries against one graph.

    Construction runs the analysis pass once, O(|E|). Each query then takes
    O(1): at a forcing degree-2 node the pair is safe iff its two edges lie
    on different sides, as :func:`_sides` reads them off the pass.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._block = require_eulerian(g)

    def check(self, e1: int, e2: int) -> SafetyEvidence:
        """Does the pair (e1, e2) appear in every Eulerian circuit? ``e1``
        must end where ``e2`` starts; a self-loop may pair with itself."""
        g = self.g
        m = g.num_edges
        if not (0 <= e1 < m and 0 <= e2 < m):
            return SafetyEvidence(False, "edges-missing")
        if g.heads[e1] != g.tails[e2]:
            raise ContractError("edges are not consecutive: head of the first must be tail of the second")
        v = g.heads[e1]
        d = g.out_end[v] - g.off[v]
        if d == 1:
            return SafetyEvidence(True, "degree-one")
        if d >= 3:
            return SafetyEvidence(False, "degree-too-high")
        sides = _sides(g, self._block, v)
        if sides is None:
            return SafetyEvidence(False, "not-forced")
        out1, in1 = sides
        cu, cw = int(e1 == in1), int(e2 == out1)
        if cu != cw:
            return SafetyEvidence(True, "cut-split", component_u=cu, component_w=cw)
        return SafetyEvidence(False, "not-in-any-circuit", component_u=cu, component_w=cw)


def has_unique_eulerian_circuit(g: Graph) -> bool:
    """Decide uniqueness of the Eulerian circuit in O(|E|): it is unique iff
    every edge has a forced successor."""
    return -1 not in _successors(g)[1]


def _safe_walks(g: Graph) -> tuple[int, bool, array, Iterable[int]]:
    """``(count, unique, succ, starts)``: the number of maximal safe walks,
    whether the circuit is unique, the forced-successor table and the first
    edge id of each walk, in the order the walks are listed.

    Each walk ends at the one edge of it that has no forced successor. It
    starts at an edge leaving a non-forcing node, in ascending edge id;
    :func:`_walk` follows it. If every edge has a successor the one walk is
    the whole circuit, from edge id 0.
    """
    _, succ = _successors(g)
    number = succ.count(-1)
    if not number:
        return 1, True, succ, (0,)
    # A node forces iff its first in-edge has a successor.
    unforced = bytes(map((-1).__eq__, map(succ.__getitem__, map(g.eid.__getitem__, g.out_end))))
    return number, False, succ, compress(count(), map(unforced.__getitem__, g.tails))


def _walk(succ: array, first: int) -> array:
    """The walk from edge ``first`` along its chain of forced successors,
    as an ``array("i")``, 4 bytes per edge.

    A chain longer than |E| can only come from a faulty successor table,
    and raises :class:`ContractError` instead of growing without bound.
    """
    walk = array("i")
    e = first
    for _ in range(len(succ)):
        walk.append(e)
        e = succ[e]
        if e < 0 or e == first:
            return walk
    raise ContractError(
        f"forced-successor chain from edge {first} is longer than |E| = {len(succ)}"
    )


def maximal_safe_walks(g: Graph, norm_map=None) -> SafeWalkReport:
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
    _, unique, succ, starts = _safe_walks(g)
    walks = [tuple(_walk(succ, first)) for first in starts]
    if norm_map is not None and not norm_map.is_identity:
        walks = [norm_map.project(w, circular=unique) for w in walks]
    return SafeWalkReport(walks=tuple(walks), unique_circuit=unique)
