"""Random Eulerian multigraph generation by cycle superposition."""
from __future__ import annotations

import random
from typing import Union

from .graph import GraphError

# Draws of the whole cycle set before random_eulerian_edges gives up.
MAX_ATTEMPTS = 1000
# Bound on num_nodes * num_cycles, the most edges a draw can have (a draw
# averages about half of it). `gen 2000 1000` draws 999,863 edges and peaks
# at 133 MB, `gen 4000 1000` 1,996,289 edges and 255 MB, so about 128
# bytes per edge (Python 3.11, x86-64 Linux): at the bound a draw peaks
# near 255 MB, and at most near 500 MB. Beyond it, drawing is refused
# rather than run until memory runs out.
MAX_GEN_EDGES = 4_000_000


def random_eulerian_edges(
    num_nodes: int,
    num_cycles: int,
    seed: Union[int, random.Random, None] = None,
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
    return [(names[t], names[h]) for t, h in _draw(num_nodes, num_cycles, seed)]


def _draw(
    num_nodes: int, num_cycles: int, seed: Union[int, random.Random, None]
) -> list[tuple[int, int]]:
    """The edges of :func:`random_eulerian_edges` as (tail, head) node ids,
    node i being v{i}."""
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
        edges: list[tuple[int, int]] = []
        for _ in range(num_cycles):
            k = rng.randint(2, num_nodes)
            nodes = rng.sample(range(num_nodes), k)
            for i in range(k):
                edges.append((nodes[i], nodes[(i + 1) % k]))
        if _weakly_connected(edges):
            return edges
    raise GraphError(f"could not draw a weakly connected graph in {MAX_ATTEMPTS} attempts")


def _weakly_connected(edges: list[tuple[int, int]]) -> bool:
    adjacency: dict[int, list[int]] = {}
    for t, h in edges:
        adjacency.setdefault(t, []).append(h)
        adjacency.setdefault(h, []).append(t)
    start = edges[0][0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adjacency)
