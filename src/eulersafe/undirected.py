"""Underlying undirected graph, cut nodes, and component splits."""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from .graph import ContractError, Graph


class UGraph:
    """Undirected view of a directed graph, in CSR form.

    One undirected edge per directed edge, keeping the directed edge id;
    antiparallel directed pairs therefore become parallel undirected edges
    and are retained as such. Node ids and labels are shared with the source
    graph.
    """

    __slots__ = ("labels", "index", "num_edges", "off", "nbr", "eid")

    def __init__(self, labels, index, off, nbr, eid):
        self.labels = labels
        self.index = index
        self.off = off
        self.nbr = nbr
        self.eid = eid
        self.num_edges = len(nbr) // 2

    @property
    def num_nodes(self) -> int:
        return len(self.labels)


def underlying_undirected(g: Graph) -> UGraph:
    """Drop edge orientations, keeping multiplicity and edge ids."""
    n = g.num_nodes
    m = g.num_edges
    tails = g.tails
    heads = g.heads
    off = [0] * (n + 1)
    for v in range(n):
        off[v + 1] = off[v] + len(g.out_adj[v]) + len(g.in_adj[v])
    nbr = array("i", bytes(8 * m))
    eid = array("i", bytes(8 * m))
    pos = off[:-1].copy()
    for e in range(m):
        t = tails[e]
        h = heads[e]
        p = pos[t]
        nbr[p] = h
        eid[p] = e
        pos[t] = p + 1
        p = pos[h]
        nbr[p] = t
        eid[p] = e
        pos[h] = p + 1
    return UGraph(g.labels, g.index, off, nbr, eid)


def _lowlink(u: UGraph) -> tuple[list[int], list[int], list[bool]]:
    """The one lowlink DFS (Hopcroft-Tarjan), iterative, from node 0.

    Returns ``(disc, parent, opens)``: discovery time and DFS-tree parent
    (-1 for the root) per node id, and ``opens[w]`` true when the tree edge
    into ``w`` starts a new biconnected block, i.e. ``low[w] >= disc[p]``
    for its parent ``p``. Only the specific edge used to enter a node is
    skipped when updating lowlinks, so a parallel copy of the tree edge
    acts as a back edge and a doubled edge never separates its endpoints.
    Raises :class:`ContractError` on disconnected input.
    """
    n = u.num_nodes
    off = u.off
    nbr = u.nbr
    eid = u.eid
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    via = [-1] * n  # edge id used to first reach each node
    cursor = off[:-1].copy()
    opens = [False] * n
    disc[0] = low[0] = 0
    timer = 1
    stack = [0]
    while stack:
        v = stack[-1]
        i = cursor[v]
        if i < off[v + 1]:
            cursor[v] = i + 1
            w = nbr[i]
            e = eid[i]
            dw = disc[w]
            if dw == -1:
                parent[w] = v
                via[w] = e
                disc[w] = low[w] = timer
                timer += 1
                stack.append(w)
            elif e != via[v] and dw < low[v]:
                low[v] = dw
        else:
            stack.pop()
            p = parent[v]
            if p != -1:
                lv = low[v]
                if lv < low[p]:
                    low[p] = lv
                if lv >= disc[p]:
                    opens[v] = True
    if timer != n:
        raise ContractError("undirected graph is not connected")
    return disc, parent, opens


def articulation_flags(u: UGraph) -> list[bool]:
    """Per-node-id cut flags from the lowlink DFS.

    A non-root node is a cut node iff some child opens a block below it;
    the root iff it has more than one DFS child (each of which opens one).
    Raises :class:`ContractError` on disconnected input.
    """
    _, parent, opens = _lowlink(u)
    flags = [False] * u.num_nodes
    root_children = 0
    for w, p in enumerate(parent):
        if opens[w]:
            if p:
                flags[p] = True
            else:
                root_children += 1
    flags[0] = root_children > 1
    return flags


def edge_blocks(u: UGraph) -> tuple[list[int], int]:
    """Biconnected block id of every edge, from the lowlink DFS.

    Returns ``(block, count)``: ``block[e]`` in ``0..count-1`` for each
    non-loop edge id ``e`` and -1 for a self-loop, which belongs to no
    block. In discovery order a node either opens a new block with its
    tree edge or continues its parent's; an edge then belongs to the block
    of its endpoint discovered later (tree edges and back edges alike).
    Raises :class:`ContractError` on disconnected input.
    """
    disc, parent, opens = _lowlink(u)
    n = u.num_nodes
    order = [0] * n
    for v in range(n):
        order[disc[v]] = v
    node_block = [-1] * n
    count = 0
    for w in order[1:]:
        if opens[w]:
            node_block[w] = count
            count += 1
        else:
            node_block[w] = node_block[parent[w]]
    off = u.off
    nbr = u.nbr
    eid = u.eid
    block = [-1] * u.num_edges
    for v in range(n):
        dv = disc[v]
        b = node_block[v]
        for i in range(off[v], off[v + 1]):
            if disc[nbr[i]] < dv:
                block[eid[i]] = b
    return block, count


def articulation_points(u: UGraph) -> set[str]:
    """Labels of exactly the nodes whose removal disconnects ``u``."""
    flags = articulation_flags(u)
    return {u.labels[v] for v in range(u.num_nodes) if flags[v]}


@dataclass(frozen=True)
class ComponentSplit:
    """Connected components of the graph with one node removed."""

    removed: str
    component: dict[str, int]  # remaining node label -> component id
    count: int


def component_split(u: UGraph, v: str) -> ComponentSplit:
    """Label every node of ``u`` minus ``v`` by its connected component."""
    root = u.index.get(v)
    if root is None:
        raise ContractError(f"node '{v}' is not in the graph")
    n = u.num_nodes
    off = u.off
    nbr = u.nbr
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
    labels = u.labels
    mapping = {labels[x]: comp[x] for x in range(n) if x != root}
    return ComponentSplit(removed=v, component=mapping, count=count)
