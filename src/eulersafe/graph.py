"""Directed multigraph model: parsing, walks, and the one analysis pass.

Node labels are opaque strings; they are interned to dense integer ids so
that every algorithm in the package can use plain array indexing. Edges
are numbered 0..m-1 in insertion order, and every result refers to edges
by those ids. Self-loops and parallel edges are ordinary edges.

A :class:`Graph` holds one adjacency structure, an incidence CSR whose
out-edge part serves directed walks and whose two parts together are the
underlying undirected graph. :func:`_analyse` is the one traversal: a
balance scan, then one lowlink DFS that yields connectivity, DFS intervals
and block openings. :func:`is_eulerian`, :func:`require_eulerian` and
through them every analysis in the package run it once per call.
"""
from __future__ import annotations

from array import array
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class GraphError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list input."""


class ContractError(GraphError):
    """A documented precondition was violated by the caller."""


class Graph:
    """Immutable directed multigraph with stable edge identities.

    ``labels[i]`` is the label of node id ``i`` (first-appearance order) and
    ``tails[e]``/``heads[e]`` are the endpoint ids of edge ``e``.

    Incidences are stored once, as a CSR over node ids. Entries ``off[v]``
    to ``off[v + 1] - 1`` of ``eid`` and ``nbr`` are the edge ends at ``v``:
    first its out-edges, up to ``out_end[v]``, then its in-edges, each part
    in ascending edge id. ``eid`` holds the edge id and ``nbr`` the other
    endpoint, so a self-loop appears once in each part, with ``nbr`` equal
    to ``v``. The out part serves directed walks; both parts together are
    the underlying undirected graph. ``off[num_nodes]`` is ``2 * num_edges``.

    Instances must not be mutated after construction; they are safe to
    share between threads.
    """

    __slots__ = ("labels", "index", "tails", "heads", "off", "out_end", "nbr", "eid")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        index: dict[str, int] = {}
        intern = index.setdefault
        tails = array("i")
        heads = array("i")
        for tail, head in edges:
            tails.append(intern(tail, len(index)))
            heads.append(intern(head, len(index)))
        if not tails:
            raise GraphError("graph must have at least one edge")
        self._store(index, tails, heads)

    def _store(self, index: dict[str, int], tails: array, heads: array) -> None:
        """Keep the interned edges and fill the CSR: count, then place."""
        n = len(index)
        m = len(tails)
        out_degree = [0] * n
        for t in tails:
            out_degree[t] += 1
        degree = out_degree.copy()
        for h in heads:
            degree[h] += 1
        off = array("i", [0])
        off.extend(accumulate(degree))
        out_end = array("i", map(add, off, out_degree))
        next_out = list(off[:-1])
        next_in = list(out_end)
        # Two 4-byte entries per edge, filled in place, so that no int object
        # is held per entry.
        nbr = array("i", bytes(8 * m))
        eid = array("i", bytes(8 * m))
        e = 0
        for t, h in zip(tails, heads):
            p = next_out[t]
            nbr[p] = h
            eid[p] = e
            next_out[t] = p + 1
            p = next_in[h]
            nbr[p] = t
            eid[p] = e
            next_in[h] = p + 1
            e += 1
        self.labels = list(index)
        self.index = index
        self.tails = tails
        self.heads = heads
        self.off = off
        self.out_end = out_end
        self.nbr = nbr
        self.eid = eid

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.tails)

    def edge(self, e: int) -> tuple[str, str]:
        """Endpoint labels (tail, head) of edge ``e``."""
        return self.labels[self.tails[e]], self.labels[self.heads[e]]

    def edge_pairs(self) -> Iterator[tuple[str, str]]:
        """All edges as (tail label, head label), in edge-id order."""
        for e in range(len(self.tails)):
            yield self.labels[self.tails[e]], self.labels[self.heads[e]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and list(self.edge_pairs()) == list(
            other.edge_pairs()
        )

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self.labels)}, edges={len(self.tails)})"


class Circuit(NamedTuple):
    """Edge ids of a closed walk: the last edge ends where the first starts."""

    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


# The generated _make, which _replace goes through, checks the field count
# with len(), which counts edges on a Circuit. NamedTuple forbids
# redefining _make in the class body.
Circuit._make = classmethod(lambda cls, fields: cls(*fields))


def walk_nodes(g: Graph, edges: Sequence[int]) -> list[str]:
    """Node-label sequence (length k+1) visited by an edge-id walk."""
    if not edges:
        raise GraphError("walk must be non-empty")
    nodes = [g.labels[g.tails[edges[0]]]]
    for e in edges:
        nodes.append(g.labels[g.heads[e]])
    return nodes


def is_valid_walk(g: Graph, edges: Sequence[int]) -> bool:
    """True iff consecutive edges are head-to-tail consistent in ``g``."""
    if not edges:
        return False
    m = g.num_edges
    if any(e < 0 or e >= m for e in edges):
        return False
    heads = g.heads
    tails = g.tails
    return all(heads[edges[i]] == tails[edges[i + 1]] for i in range(len(edges) - 1))


def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list: one "tail head" pair per line.

    Blank lines and lines starting with '#' are skipped. Raises
    :class:`ParseError` on a malformed line (with its 1-based number) or on
    an empty edge set. Labels are interned straight into the graph's edge
    arrays.
    """
    index: dict[str, int] = {}
    intern = index.setdefault
    tails = array("i")
    heads = array("i")
    # Lines end at "\n" only: str.splitlines() also breaks at form feeds,
    # U+0085, U+2028 and other separators, which would misnumber every
    # later line. split() below treats those characters as whitespace.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 'tail head', got {len(tokens)} token(s)"
            )
        tails.append(intern(tokens[0], len(index)))
        heads.append(intern(tokens[1], len(index)))
    if not tails:
        raise ParseError("graph must have at least one edge")
    g = Graph.__new__(Graph)
    g._store(index, tails, heads)
    return g


class EulerCheck(NamedTuple):
    """Verdict of the Eulerian-ness test, with a witness on failure."""

    ok: bool
    reason: Optional[str] = None
    witness: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


class Analysis(NamedTuple):
    """Result of the one analysis pass over a graph.

    ``check`` is the Euler verdict. When it holds, the other fields describe
    the lowlink DFS of the underlying undirected graph from node 0, per node
    id: discovery time ``disc``; ``fin``, one past the last discovery time
    in the node's subtree, so the subtree is the nodes whose ``disc`` lies
    in ``[disc[v], fin[v])``; DFS-tree ``parent`` (-1 for the root);
    ``opens[w]``, whether the tree edge into ``w`` starts a new biconnected
    block; and ``cut``, whether the node is a cut node. When the check
    fails they are empty.
    """

    check: EulerCheck
    disc: list[int]
    fin: list[int]
    parent: list[int]
    opens: list[bool]
    cut: list[bool]


def _analyse(g: Graph) -> Analysis:
    """The one validation-and-analysis pass, O(|E|).

    First the balance scan: the first node in id order whose out-degree
    differs from its in-degree fails the check. Then one iterative lowlink
    DFS (Hopcroft-Tarjan) from node 0 over both parts of the CSR; the
    lowest-id node it does not reach fails the check. Only the specific
    edge used to enter a node is skipped when updating lowlinks, so a
    parallel copy of the tree edge acts as a back edge and a doubled edge
    never separates its endpoints. A non-root node is a cut node iff some
    child opens a block below it; the root iff it has more than one child.
    """
    n = g.num_nodes
    off = g.off
    labels = g.labels
    for v, (start, mid, stop) in enumerate(zip(off, g.out_end, off[1:])):
        if mid - start != stop - mid:
            detail = f"node '{labels[v]}' has out-degree {mid - start} and in-degree {stop - mid}"
            return Analysis(EulerCheck(False, "unbalanced", labels[v], detail), [], [], [], [], [])
    nbr = g.nbr
    eid = g.eid
    disc = [-1] * n
    fin = [0] * n
    parent = [-1] * n
    opens = [False] * n
    cut = [False] * n
    # Every ancestor of the running node waits on the stack as (node, next
    # entry to scan, lowlink so far, edge used to enter it). The running
    # node's state lives in locals, so back edges never touch the stack.
    stack: list[tuple[int, int, int, int]] = []
    disc[0] = 0
    timer = 1
    v, i, end, lv, entered = 0, off[0], off[1], 0, -1
    while True:
        while i < end:
            w = nbr[i]
            dw = disc[w]
            if dw < 0:
                break
            if dw < lv and eid[i] != entered:
                lv = dw
            i += 1
        else:
            fin[v] = timer
            if not stack:
                break
            child_low = lv
            p, i, lv, entered = stack.pop()
            if child_low >= disc[p]:
                opens[v] = cut[p] = True
            elif child_low < lv:
                lv = child_low
            v, end = p, off[p + 1]
            continue
        stack.append((v, i + 1, lv, entered))
        parent[w] = v
        entered = eid[i]
        disc[w] = lv = timer
        timer += 1
        v, i, end = w, off[w], off[w + 1]
    if timer != n:
        witness = labels[disc.index(-1)]
        detail = f"node '{witness}' is not reachable from '{labels[0]}' ignoring directions"
        return Analysis(EulerCheck(False, "not-weakly-connected", witness, detail), [], [], [], [], [])
    cut[0] = parent.count(0) > 1
    return Analysis(EulerCheck(True), disc, fin, parent, opens, cut)


def is_eulerian(g: Graph) -> EulerCheck:
    """Check balanced degrees and weak connectivity.

    Returns ``ok=True`` iff every node has in-degree equal to out-degree and
    all edges lie in one weakly connected component. On failure the first
    violated condition is named together with a witness node.
    """
    return _analyse(g).check


def require_eulerian(g: Graph) -> Analysis:
    """Run the analysis pass; raise :class:`ContractError` naming the failed
    condition if the graph is not Eulerian."""
    analysis = _analyse(g)
    if not analysis.check.ok:
        raise ContractError(f"graph is not Eulerian: {analysis.check.detail}")
    return analysis


def articulation_points(g: Graph) -> set[str]:
    """Labels of exactly the nodes whose removal disconnects the underlying
    undirected graph of the Eulerian graph ``g``."""
    return {label for label, cut in zip(g.labels, require_eulerian(g).cut) if cut}


def underlying_undirected(g: Graph) -> Graph:
    """The undirected view of ``g``, which is ``g`` itself: its CSR already
    lists every edge at both endpoints. It remains for ``bench/`` until
    ROADMAP item 1."""
    return g
