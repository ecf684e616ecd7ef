"""Random Eulerian multigraph generation by cycle superposition."""
from __future__ import annotations

import random
from array import array

from .graph import GraphError

# Draws of the whole cycle set before random_eulerian_edges gives up.
MAX_ATTEMPTS = 1000
# Bound on num_nodes * num_cycles, the most edges a draw can have (a draw
# averages about half of it). An edge takes 8 bytes: `gen 2000 1000` draws
# 999,863 edges and peaks at 22 MB, `gen 4000 1000` 1,996,289 and 30 MB
# (Python 3.11, x86-64 Linux). A draw also holds one cycle's node list: the
# one cycle of `gen 4000000 1` peaks at 193 MB. Beyond the bound, drawing
# is refused rather than run until memory runs out.
MAX_GEN_EDGES = 4_000_000


def random_eulerian_edges(
    num_nodes: int,
    num_cycles: int,
    seed: int | random.Random | None = None,
) -> list[tuple[str, str]]:
    """Superpose random simple directed cycles over ``num_nodes`` nodes.

    Each cycle is a uniformly drawn subset of size >= 2, permuted
    cyclically, so the union is balanced at every node and Eulerian once
    weakly connected; draws are repeated until the used nodes form one weak
    component (at most ``MAX_ATTEMPTS`` times). ``num_nodes * num_cycles``
    bounds the edge count, and above ``MAX_GEN_EDGES`` the draw is refused
    with :class:`GraphError`. Deterministic for a fixed seed. Nodes are
    labeled v0..v{n-1}; only nodes on some cycle appear.
    """
    # One label string per node, shared by all its edges.
    names = [f"v{i}" for i in range(num_nodes)]
    return [(names[t], names[h]) for t, h in zip(*_draw(num_nodes, num_cycles, seed))]


def _draw(num_nodes: int, num_cycles: int, seed: int | random.Random | None) -> tuple[array, array]:
    """The edges of :func:`random_eulerian_edges` as two ``array("i")``
    columns, tail and head node ids, node i being v{i}: 8 bytes per edge."""
    if num_nodes < 2:
        raise GraphError("need at least 2 nodes to draw a simple cycle")
    if num_cycles < 1:
        raise GraphError("need at least one cycle")
    if num_nodes * num_cycles > MAX_GEN_EDGES:
        raise GraphError(
            f"random graph refused: {num_nodes} nodes times {num_cycles} cycles may draw "
            f"up to {num_nodes * num_cycles} edges, above MAX_GEN_EDGES = {MAX_GEN_EDGES}"
        )
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        tails = array("i")
        heads = array("i")
        # A union-find over node ids, -1 for a node on no cycle yet; each
        # cycle joins its nodes, and the draw is weakly connected iff its
        # nodes end in one set. `untouched` counts the nodes still at -1:
        # once it is 0 and one set holds every node, no later cycle can add
        # a node or split the set, so later cycles skip the union-find.
        parent = array("i", [-1]) * num_nodes
        sets = 0
        untouched = num_nodes
        for _ in range(num_cycles):
            k = rng.randint(2, num_nodes)
            nodes = rng.sample(range(num_nodes), k)
            tails.extend(nodes)
            heads.extend(nodes[1:] + nodes[:1])
            if sets == 1 and not untouched:
                continue
            if parent[nodes[0]] < 0:
                parent[nodes[0]] = nodes[0]
                sets += 1
                untouched -= 1
            root = _find(parent, nodes[0])
            for v in nodes:
                if parent[v] < 0:
                    parent[v] = root
                    untouched -= 1
                else:
                    r = _find(parent, v)
                    if r != root:
                        parent[r] = root
                        sets -= 1
        if sets == 1:
            return tails, heads
    raise GraphError(f"could not draw a weakly connected graph in {MAX_ATTEMPTS} attempts")


def _find(parent: array, v: int) -> int:
    """The root of ``v``'s set, halving the path to it on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v
