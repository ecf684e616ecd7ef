"""Named graph families, the differential harness over them, and the
shapes the test modules share.

Each family is seeded and built once per session (``functools.cache``), so
every test that sweeps it sees the same graphs. Only this module and
``conftest.py`` are imported by the test modules.
"""
from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import cache
from typing import NamedTuple

from eulersafe import (
    Graph, SafePairChecker, articulation_points, classify_nodes, component_split, count_circuits,
    has_unique_eulerian_circuit, is_eulerian, maximal_safe_walks, normalize, random_eulerian_edges, safety,
)
from eulersafe.circuit import edge_blocks
from eulersafe.graph import is_valid_walk
from eulersafe.oracles import (
    _possible_successors, brute_force_safe_walks, count_best, count_by_states, enumerate_eulerian_circuits,
    pevzner_intersection_graph,
)


def canonical_rotation(edges) -> tuple[int, ...]:
    """Rotate a circuit's edge sequence to start at its smallest edge id."""
    edges = tuple(edges)
    i = edges.index(min(edges))
    return edges[i:] + edges[:i]


def as_graph(edges) -> Graph:
    """A graph over integer node names, written as strings."""
    return Graph([(str(t), str(h)) for t, h in edges])


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


@cache
def corpus(n: int) -> tuple[Graph, ...]:
    """Every simple Eulerian digraph on 2 to ``n`` nodes: 7,125 graphs for
    n = 5, whose first 125 are the graphs on up to 4 nodes."""
    if n < 2:
        return ()
    return corpus(n - 1) + tuple(map(as_graph, eulerian_edge_sets(n)))


@cache
def simple_sample() -> tuple[Graph, ...]:
    """500 seeded small simple Eulerian graphs of at most 12 edges
    (normalized generator output)."""
    rng = random.Random(20240817)
    graphs: list[Graph] = []
    while len(graphs) < 500:
        n = rng.randint(2, 7)
        r = rng.randint(1, 3)
        edges = random_eulerian_edges(n, r, seed=rng)
        if len(edges) > 12:
            continue
        g, _ = normalize(Graph(edges))
        if g.num_edges <= 12:
            graphs.append(g)
    return tuple(graphs)


@cache
def raw_multigraphs(count: int, seed: int) -> tuple[Graph, ...]:
    """Seeded Eulerian multigraphs as shuffled unions of random closed
    walks, so self-loops, parallel and antiparallel edges all occur; then
    the single node with 1 to 5 self-loops."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        edges = []
        for _ in range(rng.randint(1, 4)):
            walk = [rng.choice("abcde") for _ in range(rng.randint(1, 5))]
            edges += [(walk[i - 1], walk[i]) for i in range(len(walk))]
        rng.shuffle(edges)
        g = Graph(edges)
        if is_eulerian(g):
            graphs.append(g)
    return tuple(graphs) + tuple(Graph([("a", "a")] * d) for d in range(1, 6))


# Planted-repeat genomes: the k-mers of a circular random genome, k = K.
K = 20

# (seed, bases, repeats, reach). Short reaches nest or separate most
# repeats (cut nodes); long ones cross most of them. Seed 3 is unique with
# six cut nodes.
GENOMES = [
    (1, 3000, 0, 3000),
    (2, 3000, 1, 3000),
    (3, 4000, 6, 400),
    (4, 4000, 6, 4000),
    (5, 5000, 12, 300),
    (6, 5000, 12, 1500),
    (7, 6000, 25, 6000),
    (8, 6000, 25, 300),
]


class Genome(NamedTuple):
    """A planted-repeat genome's de Bruijn graph: ``text`` is the genome
    with its first K - 1 bases appended, ``copies`` the two start
    positions of each repeat, and genome edge i has edge id ``perm[i]``."""

    graph: Graph
    text: str
    copies: list[tuple[int, int]]
    perm: list[int]


def planted_genome(
    rng: random.Random, bases: int, repeats: int, reach: int
) -> tuple[str, list[tuple[int, int]]]:
    """A circular genome of ``bases`` bases and the two start positions of
    each planted (K-1)-mer, at most ``reach`` bases apart, with at least
    two free bases between copies."""
    while True:
        genome = rng.choices("ACGT", k=bases)
        taken = set()
        copies = []
        while len(copies) < repeats:
            # No copy or flank wraps around the end of the text.
            p = rng.randrange(2, bases - 2 * K - 4)
            q = rng.randrange(p + K + 3, min(p + reach, bases - K - 1))
            span = {x for s in (p, q) for x in range(s - 2, s + K + 1)}
            if p + bases - q < K + 3 or span & taken:
                continue
            taken |= span
            repeat = rng.choices("ACGT", k=K - 1)
            for s in (p, q):
                genome[s : s + K - 1] = repeat
            # Different bases on both flanks: two in-edges and two out-edges.
            for before, after in ((p - 1, q - 1), (p + K - 1, q + K - 1)):
                if genome[before] == genome[after]:
                    genome[after] = "ACGT"["ACGT".index(genome[before]) - 1]
            copies.append((p, q))
        text = "".join(genome)
        text += text[: K - 1]
        nodes = [text[i : i + K - 1] for i in range(bases)]
        # Chance repeats are astronomically rare at this length; redraw if any.
        if len(set(nodes)) == bases - repeats:
            return text, copies


@cache
def genome(seed: int, bases: int, repeats: int, reach: int) -> Genome:
    """The planted genome of one ``GENOMES`` row, its edge ids shuffled so
    that node 0 and the side numbering fall anywhere."""
    rng = random.Random(seed)
    text, copies = planted_genome(rng, bases, repeats, reach)
    perm = list(range(bases))
    rng.shuffle(perm)
    order = sorted(range(bases), key=perm.__getitem__)
    g = Graph([(text[i : i + K - 1], text[i + 1 : i + K]) for i in order])
    return Genome(g, text, copies, perm)


def ring(length: int, through: str = "h") -> list[tuple[str, str]]:
    """A directed cycle of ``length`` edges from ``through`` back to it."""
    nodes = [through] + [f"ring{i}" for i in range(1, length)]
    return [(nodes[i], nodes[(i + 1) % length]) for i in range(length)]


def cactus_edges(num_nodes: int, seed: int) -> list[tuple[str, str]]:
    """Directed cycles of length 2 to 6, each attached at a random node of
    the cactus built so far."""
    rng = random.Random(seed)
    edges = []
    n = 1
    while n < num_nodes:
        k = min(rng.randint(2, 6), num_nodes - n + 1)
        cycle = [rng.randrange(n), *range(n, n + k - 1)]
        n += k - 1
        edges += [(f"c{cycle[i]}", f"c{cycle[(i + 1) % k]}") for i in range(k)]
    return edges


def cycling_successors(g, a, in_a):
    """A faulty successor table: 1 -> 2 -> 1, a cycle that edge 0 enters
    and never leaves."""
    succ = array("i", [-1]) * g.num_edges
    succ[0], succ[1], succ[2] = 1, 2, 1
    return succ


def brute_force_blocks(g: Graph, components=None) -> list[int]:
    """Block labels straight from the definition.

    Two non-loop edges share a block iff no node separates them: for every
    node x they fall in the same component of the graph minus x, where an
    edge incident to x goes with its other endpoint. ``components[x]`` is
    ``component_split(g, label of x).component``, computed here if not
    given. Labels are numbered by first appearance in edge-id order; loops
    get -1.
    """
    if components is None:
        components = [component_split(g, x).component for x in g.labels]
    edges = [g.edge(e) for e in range(g.num_edges)]
    keys: list[list] = [[] for _ in edges]
    for x, comp in zip(g.labels, components):
        for key, (t, h) in zip(keys, edges):
            if t != h:
                key.append(comp[h] if t == x else comp[t])
    labels: dict[tuple, int] = {}
    return [
        -1 if t == h else labels.setdefault(tuple(key), len(labels))
        for key, (t, h) in zip(keys, edges)
    ]


def renumbered(block) -> list[int]:
    """Block labels renumbered by first appearance, loops kept at -1."""
    first: dict[int, int] = {}
    return [-1 if b < 0 else first.setdefault(b, len(first)) for b in block]


@cache
def generator_sample() -> tuple[Graph, ...]:
    """1,000 seeded generator outputs as drawn, not normalized: 2 to 12
    nodes, 1 to 4 cycles, up to 40 edges."""
    rng = random.Random(20240818)
    return tuple(
        Graph(random_eulerian_edges(rng.randint(2, 12), rng.randint(1, 4), seed=rng)) for _ in range(1000)
    )


# The differential harness. A column compares one fast answer with the
# oracles on every graph of a family; each oracle runs once per graph and
# is kept for the session, so the columns, and the tests that ask for
# them, share it.
#
# FAMILIES fixes which oracles run where: Pevzner's cycle-intersection
# tree and the component split at each node of degree 2 or more run on
# every family. A small family also runs the rest: the splice test
# (_possible_successors), count_by_states, every circuit up to 12 edges,
# the split at every node for brute_force_blocks, and
# brute_force_safe_walks. The state count refuses some generator outputs
# and the genomes are far too large; test_genome.py checks the genomes
# against their closed form.
FAMILIES = {
    # name: (build, small)
    "corpus-5": (lambda: corpus(5), True),
    "simple-sample": (simple_sample, True),
    "raw-multigraphs": (lambda: raw_multigraphs(1000, seed=7), True),
    "generator": (generator_sample, False),
    "genomes": (lambda: tuple(genome(*row).graph for row in GENOMES), False),
}


@cache
def graphs(family: str) -> tuple[Graph, ...]:
    return FAMILIES[family][0]()


def _out_edges(g: Graph) -> list:
    return [g.eid[s:t] for s, t in zip(g.off, g.out_end)]


def _possible(g: Graph) -> list[list[int]]:
    # A head of degree 1 has one out-edge, which every circuit takes;
    # elsewhere the splice test decides.
    out_edges = _out_edges(g)
    return [
        _possible_successors(g, e) if len(out_edges[h]) > 1 else list(out_edges[h])
        for e, h in enumerate(g.heads)
    ]


class Enumerated(NamedTuple):
    count: int
    # The pairs (e, f) that every circuit takes, when every circuit was listed.
    every: set | None


def _enumerated(g: Graph) -> Enumerated:
    if g.num_edges > 12:
        return Enumerated(enumerate_eulerian_circuits(g, cap=2).count, None)
    circuits = enumerate_eulerian_circuits(g).circuits
    every = set.intersection(*(set(zip(c.edges, c.edges[1:] + c.edges[:1])) for c in circuits))
    return Enumerated(len(circuits), every)


class Oracles(NamedTuple):
    possible: list[list[int]]
    states: int
    enumerated: Enumerated


@cache
def _oracles(family: str) -> list:
    """The splice test, the state count and the enumeration for each
    graph of a small family; None for each graph of any other."""
    small = FAMILIES[family][1]
    return [Oracles(_possible(g), count_by_states(g), _enumerated(g)) if small else None for g in graphs(family)]


@cache
def _splits(family: str) -> list[dict]:
    """component_split at every node of a small family, else at the nodes
    of degree 2 or more."""
    small = FAMILIES[family][1]
    return [
        {v: component_split(g, x) for v, x in enumerate(g.labels) if small or g.out_end[v] - g.off[v] > 1}
        for g in graphs(family)
    ]


def _uniqueness(family: str, tally: Counter) -> None:
    # has_unique_eulerian_circuit against the Pevzner tree, the enumerated
    # circuits and the state count.
    for g, oracles in zip(graphs(family), _oracles(family)):
        edges = list(g.edge_pairs())
        unique = has_unique_eulerian_circuit(g)
        assert pevzner_intersection_graph(g).is_tree == unique, edges
        if oracles:
            assert (oracles.enumerated.count == 1) == unique == (oracles.states == 1), edges
        tally["graphs"] += 1


def _count(family: str, tally: Counter) -> None:
    # count_circuits against count_best and count_by_states, and the
    # listed circuits against the state count.
    for g, oracles in zip(graphs(family), _oracles(family)):
        if oracles is None:
            continue
        edges = list(g.edge_pairs())
        _, states, enumerated = oracles
        assert count_circuits(g) == count_best(g).epsilon == states, edges
        assert enumerated.every is None or enumerated.count == states, edges
        tally["graphs"] += 1


def _pairs(family: str, tally: Counter) -> None:
    # (e, f) is safe iff f is the only successor of e that some circuit
    # takes, so iff every circuit takes it; then f is e's forced successor.
    for g, oracles in zip(graphs(family), _oracles(family)):
        if oracles is None:
            continue
        edges = list(g.edge_pairs())
        out_edges = _out_edges(g)
        possible, every = oracles.possible, oracles.enumerated.every
        block, _, in_a = safety._forcing(g)
        forced = safety._forced_successors(g, block, in_a)
        checker = SafePairChecker(g)
        for e, h in enumerate(g.heads):
            assert forced[e] == (possible[e][0] if len(possible[e]) == 1 else -1), (edges, e)
            for f in out_edges[h]:
                safe = possible[e] == [f]
                assert checker.check(e, f).safe == safe, (edges, e, f)
                assert every is None or ((e, f) in every) == safe, (edges, e, f)
            tally["pairs"] += len(out_edges[h])
            tally["pairs at degree >= 3"] += len(out_edges[h]) if len(out_edges[h]) >= 3 else 0


def _walks(family: str, tally: Counter) -> None:
    # The walks partition the edges into maximal chains of safe pairs.
    for g, oracles in zip(graphs(family), _oracles(family)):
        edges = list(g.edge_pairs())
        unique = has_unique_eulerian_circuit(g)
        report = maximal_safe_walks(g)
        assert report.unique_circuit == unique, edges
        assert sorted(e for w in report.walks for e in w) == list(range(g.num_edges)), edges
        for w in report.walks:
            assert is_valid_walk(g, w), (edges, w)
            if oracles:
                possible = oracles.possible
                assert all(possible[e] == [f] for e, f in zip(w, w[1:])), (edges, w)
                assert possible[w[-1]] == [w[0]] if unique else len(possible[w[-1]]) == 2, (edges, w)
        assert not oracles or report == brute_force_safe_walks(g), edges
        tally["walks"] += len(report.walks)


def _sides(family: str, tally: Counter) -> None:
    # Cut nodes, forcing flags and sides. A node of degree 1 is never a
    # cut node: without the other, each side would be unbalanced.
    for g, splits in zip(graphs(family), _splits(family)):
        edges, labels, heads, tails = list(g.edge_pairs()), g.labels, g.heads, g.tails
        out_edges = _out_edges(g)
        in_edges = [g.eid[s:t] for s, t in zip(g.out_end, g.off[1:])]
        block, _, _ = safety._forcing(g)
        checker = SafePairChecker(g)
        classes = classify_nodes(g)
        cuts = articulation_points(g)
        for v, label in enumerate(labels):
            d, split = len(out_edges[v]), splits.get(v)
            is_cut = split is not None and split.count > 1
            loop = v in (heads[e] for e in out_edges[v])
            forcing = d == 1 or d == 2 and (is_cut or loop)
            assert classes[label][1:] == (d, is_cut, forcing) and (label in cuts) == is_cut, (edges, label)
            if d != 2 or loop or not is_cut:
                continue
            # Two components, each with one out- and one in-neighbour of v.
            # Side 0 holds node 0, or, when v is node 0, the head of its
            # lowest-id out-edge: a numbering that does not depend on the
            # analysis DFS.
            comp = split.component
            home = comp[labels[heads[min(out_edges[v])] if v == 0 else 0]]
            side = {e: int(comp[labels[heads[e]]] != home) for e in out_edges[v]}
            side |= {e: int(comp[labels[tails[e]]] != home) for e in in_edges[v]}
            assert split.count == 2, (edges, label)
            assert sorted(side[e] for e in out_edges[v]) == [0, 1] == sorted(side[e] for e in in_edges[v])
            (out1,) = [e for e in out_edges[v] if side[e]]
            (in1,) = [e for e in in_edges[v] if side[e]]
            assert safety._sides(g, block, v) == (out1, in1), (edges, label)
            for e1 in in_edges[v]:
                for e2 in out_edges[v]:
                    assert checker.check(e1, e2)[2:] == (side[e1], side[e2]), (edges, e1, e2)
            tally["degree-2 cut nodes"] += 1


def _blocks(family: str, tally: Counter) -> None:
    # edge_blocks against the labels straight from the definition.
    if not FAMILIES[family][1]:
        return
    for g, splits in zip(graphs(family), _splits(family)):
        block_ids, count = edge_blocks(g)
        components = [splits[v].component for v in range(g.num_nodes)]
        assert renumbered(block_ids) == brute_force_blocks(g, components), list(g.edge_pairs())
        assert count == max(block_ids) + 1, list(g.edge_pairs())
        tally["graphs"] += 1


COLUMNS = {
    "uniqueness": _uniqueness,
    "count": _count,
    "pairs": _pairs,
    "walks": _walks,
    "sides": _sides,
    "blocks": _blocks,
}


@cache
def checked(family: str, column: str) -> Counter:
    """Compare one column's fast answer with its oracles on every graph of
    a family, failing at the first mismatch; return what was compared, by
    kind. A column passes once per session."""
    tally: Counter = Counter()
    COLUMNS[column](family, tally)
    return tally
