"""Shared fixtures: named example graphs and exhaustive small-graph corpora."""
from __future__ import annotations

import random

import pytest

from eulersafe import Graph, normalize, random_eulerian_edges


def canonical_rotation(edges) -> tuple[int, ...]:
    """Rotate a circuit's edge sequence to start at its smallest edge id."""
    edges = tuple(edges)
    i = edges.index(min(edges))
    return edges[i:] + edges[:i]


def make_triangle() -> Graph:
    return Graph([("a", "b"), ("b", "c"), ("c", "a")])


def make_figure_eight() -> Graph:
    # Two directed triangles sharing the node v.
    return Graph(
        [("v", "a"), ("a", "b"), ("b", "v"), ("v", "c"), ("c", "d"), ("d", "v")]
    )


def make_bidirected_triangle() -> Graph:
    return Graph(
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")]
    )


def make_three_triangles() -> Graph:
    # Three directed triangles sharing the node v; d(v) = 3.
    return Graph(
        [
            ("v", "a1"), ("a1", "a2"), ("a2", "v"),
            ("v", "b1"), ("b1", "b2"), ("b2", "v"),
            ("v", "c1"), ("c1", "c2"), ("c2", "v"),
        ]
    )


@pytest.fixture
def triangle() -> Graph:
    return make_triangle()


@pytest.fixture
def figure_eight() -> Graph:
    return make_figure_eight()


@pytest.fixture
def bidirected_triangle() -> Graph:
    return make_bidirected_triangle()


@pytest.fixture
def three_triangles() -> Graph:
    return make_three_triangles()


def eulerian_edge_sets(n: int) -> list[list[tuple[int, int]]]:
    """Every balanced, weakly connected simple digraph using exactly the
    labeled nodes 0..n-1 (each node incident to an edge)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    num_pairs = len(pairs)
    masks = range(1, 1 << num_pairs)
    for v in range(n):
        out_mask = sum(1 << k for k, (t, _) in enumerate(pairs) if t == v)
        in_mask = sum(1 << k for k, (_, h) in enumerate(pairs) if h == v)
        masks = [
            mask
            for mask in masks
            if mask & (out_mask | in_mask)
            and (mask & out_mask).bit_count() == (mask & in_mask).bit_count()
        ]

    result = []
    for mask in masks:
        edges = [pairs[k] for k in range(num_pairs) if (mask >> k) & 1]
        adjacency: dict[int, list[int]] = {}
        for t, h in edges:
            adjacency.setdefault(t, []).append(h)
            adjacency.setdefault(h, []).append(t)
        seen = {edges[0][0]}
        stack = [edges[0][0]]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            result.append(edges)
    return result


def as_graph(edges: list[tuple[int, int]]) -> Graph:
    return Graph([(str(t), str(h)) for t, h in edges])


@pytest.fixture(scope="session")
def corpus_4() -> list[Graph]:
    """All simple Eulerian digraphs on up to 4 nodes (fast unit corpus)."""
    graphs = []
    for n in range(2, 5):
        graphs.extend(as_graph(edges) for edges in eulerian_edge_sets(n))
    return graphs


@pytest.fixture(scope="session")
def corpus_5() -> list[Graph]:
    """All simple Eulerian digraphs on up to 5 nodes (acceptance corpus)."""
    graphs = []
    for n in range(2, 6):
        graphs.extend(as_graph(edges) for edges in eulerian_edge_sets(n))
    return graphs


def random_simple_graphs(
    count: int, seed: int, max_edges: int = 12
) -> list[Graph]:
    """Seeded sample of small simple Eulerian graphs (normalized generator output)."""
    rng = random.Random(seed)
    graphs: list[Graph] = []
    while len(graphs) < count:
        n = rng.randint(2, 7)
        r = rng.randint(1, 3)
        edges = random_eulerian_edges(n, r, seed=rng)
        if len(edges) > max_edges:
            continue
        g, _ = normalize(Graph(edges))
        if g.num_edges <= max_edges:
            graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def random_sample_500() -> list[Graph]:
    return random_simple_graphs(500, seed=20240817)
