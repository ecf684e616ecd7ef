"""Independent ground-truth generators for the linear-time algorithms.

Everything here is deliberately exponential or determinant-based so that it
shares no code path with the linear-time pipeline it cross-checks:
exhaustive circuit enumeration, arborescence counting via exact integer
determinants, brute-force safe walks and component splits straight from
the definition, and the classic cycle-intersection-graph uniqueness test.
The one shared routine is the Bareiss determinant, which the dense
:func:`count_best` borrows from the block-factored production counter.

Every oracle takes a multigraph as it is. :func:`normalize`, which rewrites
self-loops and parallel edges into two-edge paths, feeds none of them; it
remains for ``bench/`` until ROADMAP item 1.
"""
from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import NamedTuple, Optional, Sequence

from .circuit import MAX_BLOCK_NODES, _bareiss_determinant
from .graph import Circuit, ContractError, Graph, GraphError, require_eulerian
from .safety import SafeWalkReport


class EnumerationOverflow(GraphError):
    """Exhaustive enumeration hit its circuit cap."""


class EnumerationResult(NamedTuple):
    """Eulerian circuits, one per rotation class (anchored at edge id 0)."""

    circuits: tuple[Circuit, ...]
    overflow: bool

    @property
    def count(self) -> int:
        return len(self.circuits)


class CountReport(NamedTuple):
    """Exact circuit count and its two factors, as Python big integers."""

    epsilon: int
    t: int
    degree_factorial_product: int
    root: str


class IntersectionGraph(NamedTuple):
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


class NormalizationMap(NamedTuple):
    """Provenance of a normalization pass. It remains for ``bench/`` until
    ROADMAP item 1.

    ``origin[e]`` is the original edge id behind normalized edge ``e``;
    ``half[e]`` is 0 for an untouched edge or the first half of a subdivided
    one, 1 for the second half.
    """

    origin: tuple[int, ...]
    half: tuple[int, ...]
    subdivision_nodes: frozenset[str]
    self_loops: int
    parallel_duplicates: int

    @property
    def is_identity(self) -> bool:
        return not self.subdivision_nodes

    def project(self, edges: Sequence[int], circular: bool = False) -> tuple[int, ...]:
        """Map a walk over the normalized graph back to original edge ids.

        The two halves of a subdivided edge always travel together inside a
        walk and collapse to one occurrence of the original id. For circuits
        (``circular=True``) a pair split across the wrap point also collapses.
        """
        origin = self.origin
        half = self.half
        out: list[int] = []
        for e in edges:
            if half[e] == 1 and out and out[-1] == origin[e]:
                continue
            out.append(origin[e])
        if circular and len(out) > 1 and half[edges[0]] == 1 and out[-1] == out[0]:
            out.pop()
        return tuple(out)


def _rewritten_edges(g: Graph) -> list[int]:
    """Ids of the edges that keep ``g`` from being simple, ascending: every
    self-loop, and every parallel copy after the lowest id of its group."""
    n = g.num_nodes
    seen: set[int] = set()
    found: list[int] = []
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        if t == h:
            found.append(e)
        else:
            key = t * n + h
            if key in seen:
                found.append(e)
            else:
                seen.add(key)
    return found


def _fresh_label(base_index: dict[str, int], taken: set[str], counter: int) -> tuple[str, int]:
    while True:
        label = f"s{counter}"
        counter += 1
        if label not in base_index and label not in taken:
            return label, counter


def normalize(g: Graph) -> tuple[Graph, NormalizationMap]:
    """Rewrite self-loops and parallel duplicates into length-two paths.

    Within a group of parallel edges the lowest edge id is kept intact and
    the rest are subdivided through fresh nodes; every self-loop is
    subdivided. The result has no self-loop and no parallel edge pair. If
    the input has neither, the same Graph object is returned with an
    identity map. No oracle needs this rewrite; it remains for ``bench/``
    until ROADMAP item 1.
    """
    m = g.num_edges
    rewritten = _rewritten_edges(g)
    if not rewritten:
        identity = NormalizationMap(
            origin=tuple(range(m)),
            half=(0,) * m,
            subdivision_nodes=frozenset(),
            self_loops=0,
            parallel_duplicates=0,
        )
        return g, identity
    self_loops = sum(g.tails[e] == g.heads[e] for e in rewritten)
    rewrite = set(rewritten)

    edges: list[tuple[str, str]] = []
    origin: list[int] = []
    half: list[int] = []
    subs: list[str] = []
    taken: set[str] = set()
    counter = 0
    for e in range(m):
        tail, head = g.edge(e)
        if e in rewrite:
            label, counter = _fresh_label(g.index, taken, counter)
            taken.add(label)
            subs.append(label)
            edges.append((tail, label))
            origin.append(e)
            half.append(0)
            edges.append((label, head))
            origin.append(e)
            half.append(1)
        else:
            edges.append((tail, head))
            origin.append(e)
            half.append(0)
    mapping = NormalizationMap(
        origin=tuple(origin),
        half=tuple(half),
        subdivision_nodes=frozenset(subs),
        self_loops=self_loops,
        parallel_duplicates=len(rewritten) - self_loops,
    )
    return Graph(edges), mapping


def _for_each_circuit(g: Graph, visit) -> None:
    """Backtrack over unused out-edges, anchored at edge id 0.

    Anchoring is valid because every Eulerian circuit uses edge 0 exactly
    once, so ``visit`` sees each rotation class exactly once, as a mutable
    edge-id list it must not keep. Returning False from ``visit`` stops
    the search.

    A step takes an edge only if every unused edge stays weakly connected
    to the edge's head. In a balanced graph that is exactly the condition
    for the trail to extend to a circuit, so every branch ends in one: a
    step costs at most one O(|E|) search per out-edge of its node, and a
    search that ``visit`` stops at circuit k has taken at most k * |E|
    steps. The
    search keeps an explicit stack, so circuit length is not limited by
    the interpreter's recursion limit.
    """
    require_eulerian(g)
    m = g.num_edges
    # Lists rather than the graph's arrays: the loops below index them
    # millions of times on small graphs, and a list index is cheaper.
    tails = list(g.tails)
    heads = list(g.heads)
    off = list(g.off)
    out_end = list(g.out_end)
    out = list(g.eid)
    n = g.num_nodes
    incidences = [list(zip(out[a:b], g.nbr[a:b])) for a, b in zip(off, off[1:])]
    used = bytearray(m)
    # left[v]: unused out-edges at v.
    left = [end - start for start, end in zip(off, out_end)]

    def extendable(e: int, remaining: int) -> bool:
        """Once ``e`` is taken too, are the ``remaining`` unused edges all
        weakly connected to its head? Before ``e`` they were to its tail,
        so they are if the head still reaches the tail; else exactly when
        all of them are on the head's side, counted by their ends (two per
        edge, a self-loop's both at one node)."""
        v = tails[e]
        w = heads[e]
        used[e] = 1
        try:
            seen = bytearray(n)
            seen[w] = 1
            stack = [w]
            ends = 0
            while stack:
                for f, y in incidences[stack.pop()]:
                    if not used[f]:
                        if y == v:
                            return True
                        ends += 1
                        if not seen[y]:
                            seen[y] = 1
                            stack.append(y)
            return ends == 2 * remaining
        finally:
            used[e] = 0

    used[0] = 1
    left[tails[0]] -= 1
    path = [0]
    # cursor[i]: next CSR entry to try among the out-edges of heads[path[i]].
    cursor = [off[heads[0]]]
    while path:
        if len(path) == m and not visit(path):
            return
        v = heads[path[-1]]
        for i in range(cursor[-1], out_end[v]):
            e = out[i]
            # While the trail extends to a circuit, a lone unused out-edge
            # is its next step and needs no test.
            if not used[e] and (left[v] == 1 or extendable(e, m - len(path) - 1)):
                cursor[-1] = i + 1
                used[e] = 1
                left[v] -= 1
                path.append(e)
                cursor.append(off[heads[e]])
                break
        else:
            cursor.pop()
            e = path.pop()
            used[e] = 0
            left[tails[e]] += 1


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


def require_best_size(g: Graph) -> None:
    """Raise :class:`ContractError` if :func:`count_best` on ``g`` would
    take a determinant with more rows than :data:`MAX_BLOCK_NODES`, the
    bound of one block of the production counter.

    :func:`count_best` does not call this itself: the benchmark's count
    inputs are 200-node cacti, which need a 199-row determinant, and its
    per-layer trace times :func:`count_best` on them (ROADMAP item 1).
    """
    if g.num_nodes - 1 > MAX_BLOCK_NODES:
        raise ContractError(
            f"oracle comparison refused: count_best would take a {g.num_nodes - 1}-row "
            f"determinant, above the bound of {MAX_BLOCK_NODES}"
        )


def count_best(g: Graph) -> CountReport:
    """Exact number of Eulerian circuits: arborescence count times the
    product of (degree - 1)! over all nodes (the BEST theorem).

    Self-loops and parallel edges are taken as they are; a self-loop adds
    to its node's degree and cancels out of the Laplacian. The theorem
    holds on multigraphs unchanged: subdividing an edge through a fresh
    node maps circuits one to one, keeps the arborescence count (the fresh
    node's one out-edge is in every arborescence) and adds a node of
    degree 1, whose factor is 0! = 1.
    """
    require_eulerian(g)
    root = g.labels[0]
    t = count_arborescences(g, root)
    product = 1
    for start, end in zip(g.off, g.out_end):
        product *= factorial(end - start - 1)
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


def pevzner_intersection_graph(g: Graph) -> IntersectionGraph:
    """Decompose the edges into simple cycles and intersect them.

    Cycles are peeled by walking unused out-edges in ascending edge-id
    order until a node of the current walk repeats. Two cycles get one
    intersection edge per shared node; the uniqueness verdict is whether
    the resulting multigraph is a tree, which holds for any decomposition
    into simple cycles (Pevzner 1989). A node of degree d lies on d cycles,
    so one of degree 3 or more gives a triangle. A bridge of the
    intersection graph makes its shared node a cut node, so the edge of a
    degree-2 node that is not one lies on a cycle. If every node forces, a
    cycle would join the two sides of a cut node without it: there is none.

    Self-loops and parallel edges are taken as they are: a self-loop is a
    cycle of one edge, a parallel pair can close a cycle of two. The
    verdict holds on multigraphs unchanged: subdividing an edge through a
    fresh node maps circuits one to one, and the fresh node lies on exactly
    one cycle of the decomposition, so it adds no intersection edge.
    """
    require_eulerian(g)
    m = g.num_edges
    tails = g.tails
    heads = g.heads
    out_end = g.out_end
    out = g.eid
    labels = g.labels
    cursor = list(g.off)
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
            end = out_end[cur]
            c = cursor[cur]
            while c < end and used[out[c]]:
                c += 1
            cursor[cur] = c
            if c == end:
                # In a balanced graph a walk can only get stuck back at its
                # start with everything already peeled.
                assert not path_edges
                break
            e = out[c]
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
