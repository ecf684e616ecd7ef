"""Cut nodes, biconnected blocks and component splits of the underlying
undirected graph.

The undirected graph is the :class:`~eulersafe.graph.Graph` itself: both
parts of its incidence CSR, one undirected edge per directed edge with the
same id, so antiparallel pairs stay parallel. Cut flags and blocks are read
off the one analysis pass (:func:`~eulersafe.graph.require_eulerian`), so
every function here that uses them takes an Eulerian graph.
:func:`component_split` keeps a traversal of its own: it is the reference
definition that tests compare against, and no production path calls it.
"""
from __future__ import annotations

from typing import NamedTuple

from .graph import ContractError, Graph, require_eulerian


def underlying_undirected(g: Graph) -> Graph:
    """The undirected view of ``g``, which is ``g`` itself: its CSR already
    lists every edge at both endpoints. Kept for existing callers."""
    return g


def edge_blocks(g: Graph) -> tuple[list[int], int]:
    """Biconnected block id of every edge, from the analysis pass.

    Returns ``(block, count)``: ``block[e]`` in ``0..count-1`` for each
    non-loop edge id ``e`` and -1 for a self-loop, which belongs to no
    block. In discovery order a node either opens a new block with its
    tree edge or continues its parent's; an edge then belongs to the block
    of its endpoint discovered later (tree edges and back edges alike).
    Raises :class:`ContractError` if ``g`` is not Eulerian.
    """
    a = require_eulerian(g)
    disc = a.disc
    order = [0] * len(disc)
    for v, d in enumerate(disc):
        order[d] = v
    node_block = [-1] * len(disc)
    count = 0
    for w in order[1:]:
        if a.opens[w]:
            node_block[w] = count
            count += 1
        else:
            node_block[w] = node_block[a.parent[w]]
    block = [-1] * g.num_edges
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        if t != h:
            block[e] = node_block[t if disc[t] > disc[h] else h]
    return block, count


def articulation_points(g: Graph) -> set[str]:
    """Labels of exactly the nodes whose removal disconnects the underlying
    undirected graph of the Eulerian graph ``g``."""
    return {label for label, cut in zip(g.labels, require_eulerian(g).cut) if cut}


class ComponentSplit(NamedTuple):
    """Connected components of the graph with one node removed."""

    removed: str
    component: dict[str, int]  # remaining node label -> component id
    count: int


def component_split(g: Graph, v: str) -> ComponentSplit:
    """Label every node of the underlying undirected graph minus ``v`` by
    its connected component, numbered in order of their lowest node id.

    A plain traversal straight from the definition, O(|E|) per call: the
    reference for the cut flags and pair sides that the analysis pass
    gives in one DFS.
    """
    root = g.index.get(v)
    if root is None:
        raise ContractError(f"node '{v}' is not in the graph")
    n = g.num_nodes
    off = g.off
    nbr = g.nbr
    comp = [-1] * n
    comp[root] = -2
    count = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = count
        stack = [s]
        while stack:
            x = stack.pop()
            for i in range(off[x], off[x + 1]):
                w = nbr[i]
                if comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    labels = g.labels
    mapping = {labels[x]: comp[x] for x in range(n) if x != root}
    return ComponentSplit(removed=v, component=mapping, count=count)
