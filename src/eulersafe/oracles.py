"""Ground-truth generators for the linear-time algorithms.

Each reaches its answer by a route other than the linear-time pipeline it
cross-checks: exhaustive circuit enumeration and counting over trail
states, arborescence counting via exact integer determinants, safe walks
straight from the definition by transition splitting, component splits by
union-find, and the classic cycle-intersection-graph uniqueness test.
Their Euler check is their own: degrees counted from the edge lists and
connectivity from the one union-find, :func:`_roots`, which also serves
every other connectivity test here. The one routine shared with the
pipeline is the Bareiss determinant, which the dense :func:`count_best`
borrows from the block-factored production counter; the state count
catches a fault in it.

Every oracle takes a multigraph as it is. :func:`normalize`, which rewrites
self-loops and parallel edges into two-edge paths, feeds none of them; it
remains for ``bench/`` until ROADMAP item 1.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, islice
from math import factorial

from .circuit import MAX_BLOCK_NODES, _bareiss_determinant
from .graph import Circuit, ContractError, Graph
from .safety import SafeWalkReport

# Bound on the work of count_by_states, in units of one edge visited by a
# Fleury test: a new state is charged |E| units per out-edge of its end
# node, which also pays for its |E|-bit key, plus 64 for its memo entry.
# The slowest inputs tried reached it in 13 to 24 s and about 210 MB, and
# rings of more than about 23,000 edges are refused (Python 3.11, 2-core
# x86-64 host).
MAX_STATE_WORK = 2**29


class EnumerationResult(namedtuple("EnumerationResult", "circuits overflow")):
    """Eulerian circuits, one per rotation class (anchored at edge id 0)."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.circuits)


class CountReport(namedtuple("CountReport", "epsilon t degree_factorial_product")):
    """Exact circuit count and its two factors, as Python big integers."""

    __slots__ = ()


class IntersectionGraph(namedtuple("IntersectionGraph", "cycles cycle_edges edges is_tree")):
    """Cycle decomposition and its intersection graph.

    ``cycles[i]`` is a node-label sequence with first == last;
    ``cycle_edges[i]`` the corresponding edge ids (a partition of E).
    ``edges`` holds one (i, j, shared label) entry per node shared by a
    cycle pair; ``is_tree`` counts those multiedges.
    """

    __slots__ = ()


class NormalizationMap(
    namedtuple("NormalizationMap", "origin half subdivision_nodes self_loops parallel_duplicates")
):
    """Provenance of a normalization pass. It remains for ``bench/`` until
    ROADMAP item 1.

    ``origin[e]`` is the original edge id behind normalized edge ``e``;
    ``half[e]`` is 0 for an untouched edge or the first half of a subdivided
    one, 1 for the second half.
    """

    __slots__ = ()

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
    labels = g.labels
    tails = g.tails
    heads = g.heads
    for e in range(m):
        tail, head = labels[tails[e]], labels[heads[e]]
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


def _roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of every id in ``range(n)`` once each pair is joined: two
    ids share a root iff the pairs connect them. The one union-find behind
    every connectivity test of the oracles."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


def _require_eulerian(g: Graph) -> None:
    """Raise :class:`ContractError` unless ``g`` is Eulerian, with the
    message and witness of the analysis pass in :mod:`eulersafe.graph`: the
    first node in id order whose out-degree differs from its in-degree,
    else the lowest-id node that :func:`_roots` does not join to node 0.
    Degrees are counted from the edge lists, so no part of that pass runs."""
    labels = g.labels
    outs = Counter(g.tails)
    ins = Counter(g.heads)
    for v, label in enumerate(labels):
        if outs[v] != ins[v]:
            raise ContractError(
                f"graph is not Eulerian: node '{label}' has out-degree {outs[v]} "
                f"and in-degree {ins[v]}"
            )
    roots = _roots(len(labels), zip(g.tails, g.heads))
    for v, label in enumerate(labels):
        if roots[v] != roots[0]:
            raise ContractError(
                f"graph is not Eulerian: node '{label}' is not reachable from "
                f"'{labels[0]}' ignoring directions"
            )


def _fleury(g: Graph):
    """What both circuit searches share: ``heads`` as a list, and
    ``steps(v)``, which yields in CSR order the out-edges of ``v`` that a
    trail from edge 0 may take next. Those are the last unused one, or
    another whose head still reaches its tail over the unused edges
    (Fleury's rule); in a balanced graph that is exactly the condition for
    the trail to extend to a circuit. Edge 0 starts out taken, and each
    yielded edge stays taken until its generator is resumed, so a search
    that keeps one generator per trail edge backtracks by resuming them.
    Raises :class:`ContractError` if ``g`` is not Eulerian.
    """
    _require_eulerian(g)
    # Lists rather than the graph's arrays: the searches index them
    # millions of times on small graphs, and a list index is cheaper.
    tails = list(g.tails)
    heads = list(g.heads)
    off = list(g.off)
    out_end = list(g.out_end)
    out = list(g.eid)
    n = g.num_nodes
    incidences = [list(zip(out[a:b], g.nbr[a:b])) for a, b in zip(off, off[1:])]
    used = bytearray(g.num_edges)
    # left[v]: unused out-edges at v.
    left = [end - start for start, end in zip(off, out_end)]
    used[0] = 1
    left[tails[0]] -= 1

    def extendable(e: int) -> bool:
        """Once ``e`` is taken too, does its head still reach its tail over
        unused edges? It is asked only while the tail keeps another unused
        out-edge: if the head cannot reach the tail, that edge is cut off
        from the trail (Fleury's rule); if it can, every unused edge, which
        reached the tail before, still reaches the head."""
        v = tails[e]
        w = heads[e]
        used[e] = 1
        try:
            seen = bytearray(n)
            seen[w] = 1
            stack = [w]
            while stack:
                for f, y in incidences[stack.pop()]:
                    if not used[f]:
                        if y == v:
                            return True
                        if not seen[y]:
                            seen[y] = 1
                            stack.append(y)
            return False
        finally:
            used[e] = 0

    def steps(v: int) -> Iterator[int]:
        # While the trail extends to a circuit, a lone unused out-edge is
        # its next step and needs no test.
        for e in out[off[v] : out_end[v]]:
            if not used[e] and (left[v] == 1 or extendable(e)):
                used[e] = 1
                left[v] -= 1
                yield e
                used[e] = 0
                left[v] += 1

    return heads, steps


def _circuits(g: Graph) -> Iterator[list[int]]:
    """Yield every Eulerian circuit of ``g``, one per rotation class,
    anchored at edge id 0.

    Anchoring is valid because every Eulerian circuit uses edge 0 exactly
    once. Each circuit is the search's live edge-id list: a consumer must
    copy it to keep it, and may stop pulling at any point.

    The search backtracks over the steps of :func:`_fleury`, so every
    branch ends in a circuit: pulling k circuits takes at most k * |E|
    steps, each of at most one O(|E|) test per out-edge of its node. The
    stack is explicit, so circuit length is not limited by the
    interpreter's recursion limit. Raises :class:`ContractError` if ``g``
    is not Eulerian.
    """
    heads, steps = _fleury(g)
    m = len(heads)
    path = [0]
    # pending[i]: the steps after path[i] not taken yet.
    pending = [steps(heads[0])]
    while pending:
        if len(path) == m:
            yield path
        for e in pending[-1]:
            path.append(e)
            pending.append(steps(heads[e]))
            break
        else:
            pending.pop()
            path.pop()


def enumerate_eulerian_circuits(g: Graph, cap: int | None = None) -> EnumerationResult:
    """Collect every Eulerian circuit, one per rotation class.

    With ``cap`` the search stops after ``cap`` circuits and the overflow
    flag is set if more would have followed. A negative ``cap`` raises
    :class:`ContractError`.
    """
    if cap is not None and cap < 0:
        raise ContractError(f"circuit cap must be at least 0, got {cap}")
    circuits = islice(_circuits(g), None if cap is None else cap + 1)
    found = [Circuit(tuple(path)) for path in circuits]
    overflow = cap is not None and len(found) > cap
    return EnumerationResult(circuits=tuple(found[:cap]), overflow=overflow)


def count_by_states(g: Graph) -> int:
    """Count the Eulerian circuits, one per rotation class, listing none.

    The set of edges that a trail from edge 0 has used fixes where the
    trail ends, so the number of ways to finish it is memoized on that set,
    an |E|-bit integer: the subset dynamic programme of Bellman and of Held
    and Karp (1962). The search takes the steps of :func:`_circuits`, so
    every state it keeps finishes in a circuit. Raises
    :class:`ContractError` once its work passes :data:`MAX_STATE_WORK`,
    and if ``g`` is not Eulerian.
    """
    heads, steps = _fleury(g)
    m = len(heads)
    budget = MAX_STATE_WORK
    # ways[s]: the ways found so far to finish the trail whose edge set is
    # s, all of them once the search has left s. The empty trail comes
    # first, and its one step is edge 0, which _fleury has taken.
    ways = {0: 0}
    state = 0
    path: list[int] = []
    pending = [iter((0,))]
    while pending:
        for e in pending[-1]:
            key = state | 1 << e
            if key in ways:
                ways[state] += ways[key]
                continue
            # A new state: charge it before any of its steps is tested.
            v = heads[e]
            budget -= (g.out_end[v] - g.off[v]) * m + 64
            if budget < 0:
                raise ContractError(f"state count refused: more than {MAX_STATE_WORK} units of work")
            path.append(e)
            pending.append(steps(v))
            ways[key] = int(len(path) == m)
            state = key
            break
        else:
            pending.pop()
            if path:
                done = ways[state]
                state ^= 1 << path.pop()
                ways[state] += done
    return ways[0]


def count_arborescences(g: Graph) -> int:
    """Number of spanning trees directed toward node 0. In an Eulerian
    graph every node has the same number, the ``t`` of the BEST theorem.

    Matrix-tree: determinant of the out-degree Laplacian with node 0's row
    and column deleted, evaluated exactly over the integers.
    """
    n = g.num_nodes
    lap = [[0] * n for _ in range(n)]
    for e in range(g.num_edges):
        t = g.tails[e]
        h = g.heads[e]
        lap[t][t] += 1
        lap[t][h] -= 1
    return _bareiss_determinant([row[1:] for row in lap[1:]])


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
    _require_eulerian(g)
    t = count_arborescences(g)
    product = 1
    for start, end in zip(g.off, g.out_end):
        product *= factorial(end - start - 1)
    return CountReport(epsilon=t * product, t=t, degree_factorial_product=product)


def _takes(g: Graph, e: int, f: int) -> bool:
    """Does some Eulerian circuit of ``g`` take ``f`` right after ``e``?

    Splice the pair: remove both edges and add one edge from the tail of
    ``e`` to the head of ``f``. The spliced graph is still balanced, and
    its circuits are exactly the circuits of ``g`` that take ``f`` right
    after ``e``, the pair merged into the new edge. By Euler's theorem it
    has one iff its edges are connected, which :func:`_roots` decides. An
    edge follows itself only when it is the whole graph.
    """
    if e == f:
        return g.num_edges == 1
    tails = g.tails
    spliced = [(tails[e], g.heads[f])]
    spliced += (p for x, p in enumerate(zip(tails, g.heads)) if x != e and x != f)
    roots = _roots(g.num_nodes, spliced)
    return len({roots[t] for t, _ in spliced}) == 1


def _possible_successors(g: Graph, e: int) -> list[int]:
    """The out-edges that some Eulerian circuit takes right after ``e``, in
    CSR order: a head's only out-edge untested, else up to the second found."""
    v = g.heads[e]
    out = g.eid[g.off[v] : g.out_end[v]]
    found = []
    for f in out:
        if len(out) == 1 or _takes(g, e, f):
            found.append(f)
            if len(found) == 2:
                break
    return found


def brute_force_safe_walks(g: Graph) -> SafeWalkReport:
    """Maximal safe walks straight from the definition.

    A pair (e, f) is safe when every Eulerian circuit takes ``f`` right
    after ``e``, that is when ``f`` is the only successor of ``e`` that
    some circuit takes (:func:`_takes`). A walk appears in every circuit
    exactly when each of its consecutive pairs does, so the safe walks are
    the maximal circular runs of any one circuit whose internal junctions
    are all safe: the first circuit of :func:`_circuits`, cut after every
    edge with two possible successors, and listed by first edge id. If no
    edge has, the circuit is unique and reported whole, from edge id 0. An
    edge into a node of degree d takes at most d connectivity tests of
    O(|E|) each. Raises :class:`ContractError` if ``g`` is not Eulerian.
    """
    base = tuple(next(_circuits(g)))
    m = len(base)
    cut_after = [i for i in range(m) if len(_possible_successors(g, base[i])) > 1]
    if not cut_after:
        return SafeWalkReport(walks=(base,), unique_circuit=True)
    twice = base + base
    ends = cut_after[1:] + [cut_after[0] + m]
    walks = sorted(twice[a + 1 : b + 1] for a, b in zip(cut_after, ends))
    return SafeWalkReport(walks=tuple(walks), unique_circuit=False)


class ComponentSplit(namedtuple("ComponentSplit", "removed component count")):
    """Connected components of the graph with one node removed:
    ``component`` maps each remaining node label to its component id."""

    __slots__ = ()


def component_split(g: Graph, v: str) -> ComponentSplit:
    """Label every node of the underlying undirected graph minus ``v`` by
    its connected component, numbered in order of their lowest node id.

    Union-find over the edges that avoid ``v`` (:func:`_roots`), O(|E|)
    per call and straight from the definition: the reference for the cut
    flags and pair sides that the analysis pass reads off one DFS.
    """
    r = g.index.get(v)
    if r is None:
        raise ContractError(f"node '{v}' is not in the graph")
    roots = _roots(g.num_nodes, ((t, h) for t, h in zip(g.tails, g.heads) if t != r != h))
    ids: dict[int, int] = {}
    labels = g.labels
    mapping = {labels[x]: ids.setdefault(root, len(ids)) for x, root in enumerate(roots) if x != r}
    return ComponentSplit(removed=v, component=mapping, count=len(ids))


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
    _require_eulerian(g)
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
    # A tree: connected, with one edge fewer than it has nodes.
    roots = _roots(num_cycles, ((i, j) for i, j, _ in gi_edges))
    is_tree = len(gi_edges) == num_cycles - 1 and len(set(roots)) == 1
    return IntersectionGraph(
        cycles=tuple(cycles_nodes),
        cycle_edges=tuple(cycles_edges),
        edges=tuple(gi_edges),
        is_tree=is_tree,
    )
