"""Independent ground-truth generators for the linear-time algorithms.

Everything here is deliberately exponential or determinant-based so that it
shares no code path with the linear-time pipeline it cross-checks:
exhaustive circuit enumeration, arborescence counting via exact integer
determinants, brute-force safe walks straight from the definition, and the
classic cycle-intersection-graph uniqueness test. The one shared routine is
the Bareiss determinant, which the dense :func:`count_best` borrows from the
block-factored production counter.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Optional

from .circuit import _bareiss_determinant
from .graph import (
    Circuit,
    ContractError,
    Graph,
    GraphError,
    require_eulerian,
    require_simple,
)
from .safety import SafeWalkReport


class EnumerationOverflow(GraphError):
    """Exhaustive enumeration hit its circuit cap."""


@dataclass(frozen=True)
class EnumerationResult:
    """Eulerian circuits, one per rotation class (anchored at edge id 0)."""

    circuits: tuple[Circuit, ...]
    overflow: bool

    @property
    def count(self) -> int:
        return len(self.circuits)


@dataclass(frozen=True)
class CountReport:
    """Exact circuit count and its two factors, as Python big integers."""

    epsilon: int
    t: int
    degree_factorial_product: int
    root: str


@dataclass(frozen=True)
class IntersectionGraph:
    """Cycle decomposition and its intersection graph.

    ``cycles[i]`` is a node-label sequence with first == last;
    ``cycle_edges[i]`` the corresponding edge ids (a partition of E).
    ``edges`` holds one (i, j, shared label) entry per node shared by a
    cycle pair; ``is_tree`` counts those multiedges.
    """

    cycles: tuple[tuple[str, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, str], ...]
    is_tree: bool


def _for_each_circuit(g: Graph, visit) -> None:
    """Backtrack over unused out-edges, anchored at edge id 0.

    Anchoring is valid because every Eulerian circuit uses edge 0 exactly
    once, so ``visit`` sees each rotation class exactly once, as a mutable
    edge-id list it must not keep. Returning False from ``visit`` stops
    the search. The search keeps an explicit stack, so circuit length is
    not limited by the interpreter's recursion limit.
    """
    require_eulerian(g)
    m = g.num_edges
    heads = g.heads
    out_adj = g.out_adj
    start = g.tails[0]
    used = bytearray(m)
    used[0] = 1
    path = [0]
    # cursor[i]: next position to try in the out-edges of heads[path[i]].
    cursor = [0]
    while path:
        if len(path) == m:
            if heads[path[-1]] == start and not visit(path):
                return
        else:
            adj = out_adj[heads[path[-1]]]
            i = cursor[-1]
            while i < len(adj) and used[adj[i]]:
                i += 1
            if i < len(adj):
                cursor[-1] = i + 1
                e = adj[i]
                used[e] = 1
                path.append(e)
                cursor.append(0)
                continue
        cursor.pop()
        used[path.pop()] = 0


def enumerate_eulerian_circuits(g: Graph, cap: Optional[int] = None) -> EnumerationResult:
    """Collect every Eulerian circuit, one per rotation class.

    With ``cap`` the search stops after ``cap`` circuits and the overflow
    flag is set if more would have followed.
    """
    found: list[Circuit] = []
    overflow = False

    def visit(path: list) -> bool:
        nonlocal overflow
        if cap is not None and len(found) >= cap:
            overflow = True
            return False
        found.append(Circuit(tuple(path)))
        return True

    _for_each_circuit(g, visit)
    return EnumerationResult(circuits=tuple(found), overflow=overflow)


def count_eulerian_circuits(g: Graph, cap: Optional[int] = None) -> tuple[int, bool]:
    """Count rotation classes by the same backtracking, without storing them."""
    count = 0
    capped = False

    def visit(_path: list) -> bool:
        nonlocal count, capped
        if cap is not None and count >= cap:
            capped = True
            return False
        count += 1
        return True

    _for_each_circuit(g, visit)
    return count, capped


def count_arborescences(g: Graph, root: str) -> int:
    """Number of spanning trees directed toward ``root``.

    Matrix-tree: determinant of the out-degree Laplacian with the root's
    row and column deleted, evaluated exactly over the integers.
    """
    r = g.index.get(root)
    if r is None:
        raise ContractError(f"node '{root}' is not in the graph")
    n = g.num_nodes
    lap = [[0] * n for _ in range(n)]
    for e in range(g.num_edges):
        t = g.tails[e]
        h = g.heads[e]
        lap[t][t] += 1
        lap[t][h] -= 1
    minor = [
        [lap[i][j] for j in range(n) if j != r]
        for i in range(n)
        if i != r
    ]
    return _bareiss_determinant(minor)


def count_best(g: Graph) -> CountReport:
    """Exact number of Eulerian circuits: arborescence count times the
    product of (degree - 1)! over all nodes."""
    require_eulerian(g)
    require_simple(g)
    root = g.labels[0]
    t = count_arborescences(g, root)
    product = 1
    for edges in g.out_adj:
        product *= factorial(len(edges) - 1)
    return CountReport(
        epsilon=t * product,
        t=t,
        degree_factorial_product=product,
        root=root,
    )


def brute_force_safe_walks(g: Graph, cap: Optional[int] = None) -> SafeWalkReport:
    """Maximal safe walks straight from the definition.

    A walk appears in a circuit exactly when each of its consecutive edge
    pairs does, so enumerating every Eulerian circuit and recording which
    successor pairs of the first circuit survive in all of them yields the
    safe walks: the maximal circular runs of the first circuit whose
    internal junctions all survive. The search stops early once every
    junction is refuted (the answer is then fixed: all single edges).
    Raises :class:`EnumerationOverflow` when ``cap`` circuits are exceeded
    while junctions are still undecided.
    """
    state: dict = {"first": None, "succ": None, "alive": 0, "seen": 0, "multiple": False}
    m = g.num_edges
    forced = bytearray(m)

    def visit(path: list) -> bool:
        state["seen"] += 1
        if cap is not None and state["seen"] > cap:
            raise EnumerationOverflow(
                f"more than {cap} Eulerian circuits; brute force is not feasible"
            )
        if state["first"] is None:
            state["first"] = tuple(path)
            succ = [0] * m
            for i in range(m):
                succ[path[i]] = path[(i + 1) % m]
                forced[path[i]] = 1
            state["succ"] = succ
            state["alive"] = m
            return True
        state["multiple"] = True
        succ = state["succ"]
        alive = state["alive"]
        for i in range(m):
            e = path[i]
            if forced[e] and succ[e] != path[(i + 1) % m]:
                forced[e] = 0
                alive -= 1
        state["alive"] = alive
        return alive > 0

    _for_each_circuit(g, visit)
    base: tuple[int, ...] = state["first"]
    k = len(base)
    if not state["multiple"]:
        return SafeWalkReport(walks=(base,), unique_circuit=True, total_edge_length=k)
    # Cut the first circuit after every edge whose successor was refuted.
    cut_after = [i for i in range(k) if not forced[base[i]]]
    walks: list[tuple[int, ...]] = []
    for idx, a in enumerate(cut_after):
        b = cut_after[idx + 1] if idx + 1 < len(cut_after) else cut_after[0] + k
        s = a + 1
        e = b + 1
        walks.append(base[s:e] if e <= k else base[s:] + base[: e - k])
    total = sum(len(w) for w in walks)
    return SafeWalkReport(walks=tuple(walks), unique_circuit=False, total_edge_length=total)


def pevzner_intersection_graph(g: Graph) -> IntersectionGraph:
    """Decompose the edges into simple cycles and intersect them.

    Cycles are peeled by walking unused out-edges in ascending edge-id
    order until a node of the current walk repeats. Two cycles get one
    intersection edge per shared node; the uniqueness verdict is whether
    the resulting multigraph is a tree. The verdict is advisory: the cycle
    decomposition is only unique when the graph already has a unique circuit.
    """
    require_eulerian(g)
    require_simple(g)
    m = g.num_edges
    tails = g.tails
    heads = g.heads
    out_adj = g.out_adj
    labels = g.labels
    cursor = [0] * g.num_nodes
    used = bytearray(m)
    cycles_nodes: list[tuple[str, ...]] = []
    cycles_edges: list[tuple[int, ...]] = []
    for e0 in range(m):
        if used[e0]:
            continue
        start = tails[e0]
        path_nodes = [start]
        path_edges: list[int] = []
        pos = {start: 0}
        cur = start
        while True:
            adj = out_adj[cur]
            c = cursor[cur]
            while c < len(adj) and used[adj[c]]:
                c += 1
            cursor[cur] = c
            if c == len(adj):
                # In a balanced graph a walk can only get stuck back at its
                # start with everything already peeled.
                assert not path_edges
                break
            e = adj[c]
            cursor[cur] = c + 1
            used[e] = 1
            path_edges.append(e)
            cur = heads[e]
            i = pos.get(cur)
            if i is None:
                pos[cur] = len(path_nodes)
                path_nodes.append(cur)
            else:
                cycles_nodes.append(
                    tuple(labels[x] for x in path_nodes[i:]) + (labels[cur],)
                )
                cycles_edges.append(tuple(path_edges[i:]))
                for x in path_nodes[i + 1 :]:
                    del pos[x]
                del path_nodes[i + 1 :]
                del path_edges[i:]

    member: dict[str, list[int]] = {}
    for idx, cyc in enumerate(cycles_nodes):
        for label in cyc[:-1]:
            member.setdefault(label, []).append(idx)
    gi_edges: list[tuple[int, int, str]] = []
    for label, cycs in member.items():
        for i, j in combinations(cycs, 2):
            gi_edges.append((i, j, label))

    num_cycles = len(cycles_nodes)
    adjacency: list[list[int]] = [[] for _ in range(num_cycles)]
    for i, j, _ in gi_edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = bytearray(num_cycles)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if not seen[y]:
                seen[y] = 1
                reached += 1
                stack.append(y)
    is_tree = reached == num_cycles and len(gi_edges) == num_cycles - 1
    return IntersectionGraph(
        cycles=tuple(cycles_nodes),
        cycle_edges=tuple(cycles_edges),
        edges=tuple(gi_edges),
        is_tree=is_tree,
    )
