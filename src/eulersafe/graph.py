"""Directed multigraph model: parsing, walks, Eulerian checks.

Node labels are opaque strings; internally they are mapped to dense integer
ids so that every algorithm in the package can use plain array indexing.
Edges are numbered 0..m-1 in insertion order, and every result refers to
edges by those ids. Self-loops and parallel edges are ordinary edges.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list input."""


class ContractError(GraphError):
    """A documented precondition was violated by the caller."""


class Graph:
    """Immutable directed multigraph with stable edge identities.

    ``labels[i]`` is the label of node id ``i`` (first-appearance order),
    ``tails[e]``/``heads[e]`` are the endpoint ids of edge ``e``, and
    ``out_adj[v]``/``in_adj[v]`` list the incident edge ids of ``v`` in
    ascending order. Instances must not be mutated after construction; they
    are safe to share between threads.
    """

    __slots__ = ("labels", "index", "tails", "heads", "out_adj", "in_adj")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        labels: list[str] = []
        index: dict[str, int] = {}
        # Compact int storage keeps large graphs cache-resident.
        tails = array("i")
        heads = array("i")
        for tail, head in edges:
            t = index.get(tail)
            if t is None:
                t = index[tail] = len(labels)
                labels.append(tail)
            h = index.get(head)
            if h is None:
                h = index[head] = len(labels)
                labels.append(head)
            tails.append(t)
            heads.append(h)
        if not tails:
            raise GraphError("graph must have at least one edge")
        out_adj: list[list[int]] = [[] for _ in labels]
        in_adj: list[list[int]] = [[] for _ in labels]
        for e in range(len(tails)):
            out_adj[tails[e]].append(e)
            in_adj[heads[e]].append(e)
        self.labels = labels
        self.index = index
        self.tails = tails
        self.heads = heads
        self.out_adj = out_adj
        self.in_adj = in_adj

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


@dataclass(frozen=True)
class Circuit:
    """Edge ids of a closed walk: the last edge ends where the first starts."""

    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


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
    an empty edge set.
    """
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 'tail head', got {len(tokens)} token(s)"
            )
        edges.append((tokens[0], tokens[1]))
    if not edges:
        raise ParseError("graph must have at least one edge")
    return Graph(edges)


@dataclass(frozen=True)
class EulerCheck:
    """Verdict of the Eulerian-ness test, with a witness on failure."""

    ok: bool
    reason: Optional[str] = None
    witness: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_eulerian(g: Graph) -> EulerCheck:
    """Check balanced degrees and weak connectivity.

    Returns ``ok=True`` iff every node has in-degree equal to out-degree and
    all edges lie in one weakly connected component. On failure the first
    violated condition is named together with a witness node.
    """
    out_adj = g.out_adj
    in_adj = g.in_adj
    for v in range(g.num_nodes):
        if len(out_adj[v]) != len(in_adj[v]):
            label = g.labels[v]
            return EulerCheck(
                False,
                reason="unbalanced",
                witness=label,
                detail=(
                    f"node '{label}' has out-degree {len(out_adj[v])} "
                    f"and in-degree {len(in_adj[v])}"
                ),
            )
    # Weak connectivity: every node is an edge endpoint, so reaching all
    # nodes from node 0 over undirected adjacency is equivalent.
    n = g.num_nodes
    tails = g.tails
    heads = g.heads
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for e in out_adj[v]:
            w = heads[e]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
        for e in in_adj[v]:
            w = tails[e]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    if reached != n:
        witness = next(g.labels[v] for v in range(n) if not seen[v])
        return EulerCheck(
            False,
            reason="not-weakly-connected",
            witness=witness,
            detail=f"node '{witness}' is not reachable from '{g.labels[0]}' ignoring directions",
        )
    return EulerCheck(True)


def require_eulerian(g: Graph) -> None:
    """Raise :class:`ContractError` naming the failed condition if not Eulerian."""
    check = is_eulerian(g)
    if not check.ok:
        raise ContractError(f"graph is not Eulerian: {check.detail}")
