"""Seeded input shapes for the benchmark and their closed-form answers.

Every answer the benchmark checks comes from here, computed from the
benchmark's own edge lists; eulersafe itself is never the reference. Each
generator asserts the precondition its closed forms rest on, on every
input it produces.

Closed forms (d(v) is the out-degree, equal to the in-degree):

* A node forces its circuit transitions iff d(v) = 1, or d(v) = 2 and it is
  a cut node. In a cactus every node of degree 2 joins two cycles and is a
  cut node; in a graph of minimum degree 3 no node forces. On both shapes
  the forcing nodes are therefore exactly those with d(v) <= 2, so the
  circuit is unique iff no node has d(v) >= 3, and otherwise the circuit is
  cut once per occurrence of such a node: sum of d(v) over d(v) >= 3 walks.
* Circuit count (BEST theorem, rotation classes, parallel edges told
  apart): a cactus has exactly one arborescence per root, so the count is
  prod (d(v) - 1)!; the complete bidirected graph on n nodes with every
  arc k times has k^(n-1) n^(n-2) arborescences per root and d = k(n-1).
* Pair verdicts: at a degree-2 cut node the pair that crosses from one
  cycle into the other is `cut-split`, the pair that stays on one cycle is
  `not-in-any-circuit`; at a node of degree >= 3 it is `degree-too-high`.
"""
from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from math import factorial

# Pair queries per workload: 2·Q queries at Q distinct nodes.
PAIR_NODES = 4


@dataclass(frozen=True)
class Pair:
    """One pair query over original edge ids, with its known verdict."""

    e1: int
    e2: int
    safe: bool
    reason: str


@dataclass(frozen=True)
class Instance:
    """A workload's inputs and the answers the program must give on them.

    ``edges`` feeds check, unique, safe and the pair batch; ``count_edges``
    feeds count (it is ``edges`` itself where the Laplacian fits).
    """

    edges: list[tuple[str, str]]
    count_edges: list[tuple[str, str]]
    unique: bool
    walks: int
    count: int
    pairs: tuple[Pair, ...]

    def degrees(self) -> Counter:
        return Counter(t for t, _ in self.edges)


def text_of(edges: list[tuple[str, str]]) -> str:
    """The program's input format: one 'tail head' line per edge."""
    return "".join(f"{t} {h}\n" for t, h in edges)


def _balanced_degrees(edges) -> Counter:
    out = Counter(t for t, _ in edges)
    into = Counter(h for _, h in edges)
    if out != into:
        raise AssertionError("generated graph is not balanced")
    return out


def _connected(edges) -> bool:
    adj: dict[str, list[str]] = {}
    for t, h in edges:
        adj.setdefault(t, []).append(h)
        adj.setdefault(h, []).append(t)
    start = edges[0][0]
    seen = {start}
    queue = deque([start])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def walks_closed_form(degrees: Counter) -> tuple[bool, int]:
    """(unique, number of maximal safe walks) where forcing means d <= 2."""
    cut = sum(d for d in degrees.values() if d >= 3)
    return cut == 0, cut or 1


def cactus_count(degrees: Counter) -> int:
    product = 1
    for d in degrees.values():
        product *= factorial(d - 1)
    return product


def complete_multigraph_count(n: int, k: int) -> int:
    return k ** (n - 1) * n ** (n - 2) * factorial(k * (n - 1) - 1) ** n


# --------------------------------------------------------------- cactus


@dataclass(frozen=True)
class Cactus:
    edges: list[tuple[str, str]]  # shuffled edge order
    cycles: list[list[str]]  # node sequence of each directed cycle


def make_cactus(
    rng: random.Random, nodes: int, min_len: int, max_len: int, any_node: bool
) -> Cactus:
    """Grow a tree of directed cycles until it has ``nodes`` nodes (or up to
    ``min_len`` - 2 more).

    Each new cycle passes through one existing node and otherwise through
    fresh nodes. With ``any_node`` false that node must lie on exactly one
    cycle so far, which keeps every degree at most 2.
    """
    first = [f"c{i}" for i in range(rng.randint(min_len, max_len))]
    cycles = [first]
    labels = list(first)
    hosts = list(first)  # attachment candidates
    while len(labels) < nodes:
        if any_node:
            v = rng.choice(labels)
        else:
            i = rng.randrange(len(hosts))
            hosts[i], hosts[-1] = hosts[-1], hosts[i]
            v = hosts.pop()
        # The last cycle is cut short where it can be, so that the node
        # count, which sets the cost of `count`, is the same for every seed.
        length = max(min_len, min(rng.randint(min_len, max_len), nodes - len(labels) + 1))
        fresh = [f"c{len(labels) + i}" for i in range(length - 1)]
        labels.extend(fresh)
        hosts.extend(fresh)
        cycles.append([v, *fresh])
    edges = [(c[i], c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]
    rng.shuffle(edges)
    cactus = Cactus(edges, cycles)
    assert_cactus(cactus, max_degree=None if any_node else 2)
    return cactus


def assert_cactus(c: Cactus, max_degree) -> None:
    """Raise unless ``c.cycles`` are simple directed cycles that partition a
    simple edge list and whose cycle–node incidence graph is a tree."""
    arcs = set()
    incidences = 0
    nodes: set[str] = set()
    for cycle in c.cycles:
        if len(set(cycle)) != len(cycle) or len(cycle) < 2:
            raise AssertionError("cycle is not simple")
        incidences += len(cycle)
        nodes.update(cycle)
        arcs.update((cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle)))
    if len(arcs) != len(c.edges) or arcs != set(c.edges):
        raise AssertionError("cycles do not partition a simple edge list")
    # A connected bipartite graph is a tree iff it has one edge fewer than
    # vertices; with cycles as blocks that makes the graph a cactus.
    if incidences != len(c.cycles) + len(nodes) - 1 or not _connected(c.edges):
        raise AssertionError("cycle-node incidence graph is not a tree")
    degrees = _balanced_degrees(c.edges)
    if max_degree is not None and max(degrees.values()) > max_degree:
        raise AssertionError("cactus has a node above the degree limit")


def cactus_pairs(rng: random.Random, c: Cactus, q: int = PAIR_NODES) -> tuple[Pair, ...]:
    """Two queries at each of Q distinct nodes of degree 2."""
    ids = {arc: e for e, arc in enumerate(c.edges)}
    on: dict[str, list[list[str]]] = {}
    for cycle in c.cycles:
        for v in cycle:
            on.setdefault(v, []).append(cycle)
    shared = sorted(v for v, cs in on.items() if len(cs) == 2)
    if len(shared) < q:
        raise AssertionError("cactus has too few degree-2 nodes to query")
    pairs = []
    for v in rng.sample(shared, q):
        a, b = on[v]
        ia, ib = a.index(v), b.index(v)
        a_in = ids[(a[ia - 1], v)]
        a_out = ids[(v, a[(ia + 1) % len(a)])]
        b_out = ids[(v, b[(ib + 1) % len(b)])]
        pairs.append(Pair(a_in, b_out, True, "cut-split"))
        pairs.append(Pair(a_in, a_out, False, "not-in-any-circuit"))
    return tuple(pairs)


# ------------------------------------------------------------ workloads

# Sizes keep every operation at a few tenths of a second, so that a run
# collects many samples of each; see README.md for the reasoning.
DENSE_NODES, DENSE_EDGES = 500, 30_000
COMPLETE_N, COMPLETE_K = 10, 2
LONG_NODES = 30_000
LONG_COUNT_NODES = 200
COUNT_NODES = 200


def first_cycles(edges: list[tuple[str, str]], target: int) -> list[tuple[str, str]]:
    """The shortest run of whole leading cycles with at least ``target`` edges.

    ``random_eulerian_edges`` lists each simple cycle's edges consecutively,
    so a cycle ends at the first edge whose head is the cycle's first tail.
    Cutting there keeps the input size nearly the same for every seed.
    """
    start = None
    for e, (t, h) in enumerate(edges):
        if start is None:
            start = t
        if h == start:
            start = None
            if e + 1 >= target:
                return edges[: e + 1]
    raise AssertionError("generated graph has too few edges")


def dense_multi(seed: int) -> Instance:
    """Superposed random cycles: every node of degree >= 3, ~6 % parallel."""
    from eulersafe import random_eulerian_edges

    rng = random.Random(seed)
    # Twice the cycles needed on average (a cycle has about n/2 edges).
    cycles = 4 * DENSE_EDGES // DENSE_NODES
    edges = first_cycles(random_eulerian_edges(DENSE_NODES, cycles, seed=seed), DENSE_EDGES)
    degrees = _balanced_degrees(edges)
    if min(degrees.values()) < 3 or not _connected(edges):
        raise AssertionError("dense_multi needs a connected graph of min degree 3")
    unique, walks = walks_closed_form(degrees)
    return Instance(
        edges=edges,
        count_edges=complete_multigraph(rng, COMPLETE_N, COMPLETE_K),
        unique=unique,
        walks=walks,
        count=complete_multigraph_count(COMPLETE_N, COMPLETE_K),
        pairs=dense_pairs(rng, edges),
    )


def dense_pairs(rng: random.Random, edges, q: int = PAIR_NODES) -> tuple[Pair, ...]:
    """Two queries at each of Q distinct nodes, all of degree >= 3.

    Only edges that are the first of their parallel group are queried, so
    that each survives normalization as a single edge.
    """
    first: dict[tuple[str, str], int] = {}
    for e, arc in enumerate(edges):
        first.setdefault(arc, e)
    into: dict[str, list[int]] = {}
    out: dict[str, list[int]] = {}
    for arc, e in first.items():
        out.setdefault(arc[0], []).append(e)
        into.setdefault(arc[1], []).append(e)
    pairs = []
    for v in rng.sample(sorted(out), q):
        for i in (0, -1):
            pairs.append(Pair(into[v][i], out[v][i], False, "degree-too-high"))
    return tuple(pairs)


def complete_multigraph(rng: random.Random, n: int, k: int) -> list[tuple[str, str]]:
    """Every ordered pair of n nodes joined k times, in shuffled order."""
    labels = [f"k{i}" for i in range(n)]
    rng.shuffle(labels)
    edges = [(a, b) for a in labels for b in labels if a != b for _ in range(k)]
    rng.shuffle(edges)
    return edges


def cactus_long(seed: int) -> Instance:
    """A long tree of 3..40-cycles joined at degree-2 nodes: unique circuit."""
    rng = random.Random(seed)
    main = make_cactus(rng, LONG_NODES, 3, 40, any_node=False)
    small = make_cactus(rng, LONG_COUNT_NODES, 3, 40, any_node=False)
    unique, walks = walks_closed_form(_balanced_degrees(main.edges))
    return Instance(
        edges=main.edges,
        count_edges=small.edges,
        unique=unique,
        walks=walks,
        count=cactus_count(_balanced_degrees(small.edges)),
        pairs=cactus_pairs(rng, main),
    )


def count_cactus(seed: int) -> Instance:
    """A cactus of 2..12-cycles attached at any node: some degrees >= 3."""
    rng = random.Random(seed)
    c = make_cactus(rng, COUNT_NODES, 2, 12, any_node=True)
    degrees = _balanced_degrees(c.edges)
    unique, walks = walks_closed_form(degrees)
    if unique:
        raise AssertionError("count_cactus needs a node of degree >= 3")
    return Instance(
        edges=c.edges,
        count_edges=c.edges,
        unique=unique,
        walks=walks,
        count=cactus_count(degrees),
        pairs=cactus_pairs(rng, c),
    )


SHAPES = {
    "dense_multi": dense_multi,
    "cactus_long": cactus_long,
    "count_cactus": count_cactus,
}
