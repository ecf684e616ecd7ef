"""Eulerian circuit construction (Hierholzer), exact circuit counting over
biconnected blocks, and circuit surgery."""
from __future__ import annotations

from collections import Counter
from math import factorial, lgamma, log, log10
from typing import TYPE_CHECKING, Optional, Sequence

from .graph import Circuit, ContractError, Graph, is_eulerian, require_eulerian

if TYPE_CHECKING:
    import random

# Bound on the dense determinants of count_circuits: the reduced blocks'
# kept-node counts k must satisfy sum(k**3) <= MAX_BLOCK_NODES**3, so the
# total elimination work is at most that of one block of this size.
# Bareiss on a 150-node block took 1.6 s for a complete bidirected graph,
# 3.2 s with every arc 20 times and 6.0 s with every arc 1000 times
# (Python 3.11, 2-core x86-64 host); 200 nodes took 5.9 s, 9.9 s and about
# 20 s. Beyond the bound, counting is refused rather than run unbounded.
MAX_BLOCK_NODES = 150

# Bound on the size of count_circuits' answer, in decimal digits. Converting
# an integer to decimal takes time quadratic in its length: 10**5 digits
# took 0.18 s and 357,502 digits (one node with 80,000 self-loops) 2.3 s
# (Python 3.11, 2-core x86-64 host), so one node with 10**6 self-loops
# (5.6 million digits) would take minutes.
MAX_COUNT_DIGITS = 100_000


def find_eulerian_circuit(
    g: Graph,
    rng: Optional[random.Random] = None,
    stats: Optional[dict] = None,
) -> Circuit:
    """Build an Eulerian circuit in O(|E|) time.

    Out-edges are consumed in ascending edge-id order, so the result is
    deterministic; passing ``rng`` shuffles the per-node consumption order
    instead (used to check that downstream results do not depend on the
    particular circuit). The circuit is rotated to start with edge id 0.
    ``stats`` receives the stack push count; it remains for ``bench/``
    until ROADMAP item 1.

    Raises :class:`ContractError` naming the failed Euler condition when the
    graph is not Eulerian.
    """
    check = is_eulerian(g)
    if not check.ok:
        raise ContractError(f"cannot build Eulerian circuit: {check.detail}")
    heads = g.heads
    out_end = g.out_end
    out = g.eid
    if rng is not None:
        out = list(out)
        for start, end in zip(g.off, out_end):
            part = out[start:end]
            rng.shuffle(part)
            out[start:end] = part
    cursor = list(g.off)
    # Parallel stacks (node, edge used to enter it). When a node has no
    # unused out-edge left, its entry edge is emitted; reversing at the end
    # yields the circuit with sub-tours spliced in place.
    node_stack = [g.tails[0]]
    edge_stack = [-1]
    pushes = 1
    circuit: list[int] = []
    emit = circuit.append
    while node_stack:
        v = node_stack[-1]
        c = cursor[v]
        if c < out_end[v]:
            e = out[c]
            cursor[v] = c + 1
            node_stack.append(heads[e])
            edge_stack.append(e)
            pushes += 1
        else:
            node_stack.pop()
            e = edge_stack.pop()
            if e >= 0:
                emit(e)
    if stats is not None:
        stats["stack_pushes"] = pushes
    circuit.reverse()
    i = circuit.index(0)
    if i:
        circuit = circuit[i:] + circuit[:i]
    return Circuit(tuple(circuit))


def verify_circuit(g: Graph, c: Circuit) -> bool:
    """True iff ``c`` is head-to-tail consistent, closed, and uses every
    edge id of ``g`` exactly once."""
    edges = c.edges
    m = g.num_edges
    if len(edges) != m:
        return False
    seen = bytearray(m)
    for e in edges:
        if e < 0 or e >= m or seen[e]:
            return False
        seen[e] = 1
    tails = g.tails
    heads = g.heads
    for i in range(len(edges) - 1):
        if heads[edges[i]] != tails[edges[i + 1]]:
            return False
    return heads[edges[-1]] == tails[edges[0]]


def edge_blocks(g: Graph) -> tuple[list[int], int]:
    """Biconnected block id of every edge, from the analysis pass.

    Returns ``(block, count)``: ``block[e]`` in ``0..count-1`` for each
    non-loop edge id ``e`` and -1 for a self-loop, which belongs to no
    block. In discovery order a node either opens a new block with its
    tree edge or continues its parent's; an edge then belongs to the block
    of its endpoint discovered later (tree edges and back edges alike).
    Raises :class:`ContractError` if ``g`` is not Eulerian.
    """
    a = require_eulerian(g)
    disc = a.disc
    order = [0] * len(disc)
    for v, d in enumerate(disc):
        order[d] = v
    node_block = [-1] * len(disc)
    count = 0
    for w in order[1:]:
        if a.opens[w]:
            node_block[w] = count
            count += 1
        else:
            node_block[w] = node_block[a.parent[w]]
    block = [-1] * g.num_edges
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        if t != h:
            block[e] = node_block[t if disc[t] > disc[h] else h]
    return block, count


def count_circuits(g: Graph) -> int:
    """Exact number of Eulerian circuits (rotation classes) of a multigraph.

    Parallel edges are distinct and self-loops are allowed. The BEST
    theorem is factored over the biconnected blocks ``B`` of the
    underlying undirected graph::

        ec(G) = prod_v (d(v) - 1)!  *  prod_B t(B)

    where ``d(v)`` counts self-loops, which belong to no block, and
    ``t(B)`` is the arborescence count of ``B``. Every block of an
    Eulerian digraph is Eulerian, so ``t(B)`` does not depend on the root;
    a block with as many edges as nodes is a directed cycle with
    ``t(B) = 1``. Other blocks are series-reduced and their ``t(B)`` taken
    as one exact determinant each. O(|E|) plus those determinants.

    Raises :class:`ContractError` when the graph is not Eulerian, when
    the reduced blocks exceed the determinant bound of
    :data:`MAX_BLOCK_NODES`, or when the answer would have more than
    :data:`MAX_COUNT_DIGITS` decimal digits. Both bounds are checked
    before the factorials are multiplied out.
    """
    block, count = edge_blocks(g)
    members: list[list[int]] = [[] for _ in range(count)]
    for e, b in enumerate(block):
        if b >= 0:
            members[b].append(e)
    reduced = [r for r in (_series_reduce(g, edges) for edges in members) if r]
    if sum(k**3 for k, _ in reduced) > MAX_BLOCK_NODES**3:
        largest = max(k for k, _ in reduced)
        raise ContractError(
            f"exact count refused: {len(reduced)} block(s) of up to {largest} nodes "
            f"after series reduction exceed the determinant bound of one "
            f"{MAX_BLOCK_NODES}-node block"
        )
    degrees = Counter(end - start for start, end in zip(g.off, g.out_end))
    # log10 of the answer, known before any big product: lgamma(d) is
    # ln (d - 1)!, and the determinants are small, their blocks bounded above.
    magnitude = sum(k * lgamma(d) for d, k in degrees.items()) / log(10)
    product = 1
    for k, arcs in reduced:
        lap = [[0] * k for _ in range(k)]
        for i, j in arcs:
            lap[i][i] += 1
            lap[i][j] -= 1
        # Rooted at kept node 0: delete its row and column.
        t = _bareiss_determinant([row[1:] for row in lap[1:]])
        magnitude += log10(t)
        product *= t
    digits = int(magnitude) + 1
    if digits > MAX_COUNT_DIGITS:
        raise ContractError(
            f"exact count refused: the answer has about {digits} decimal digits, "
            f"more than the bound of {MAX_COUNT_DIGITS}"
        )
    for d, k in degrees.items():
        product *= factorial(d - 1) ** k
    return product


def _series_reduce(g: Graph, edges: list[int]) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """Series reduction of one Eulerian block, given by its edge ids.

    Every node of in-block degree 1 is contracted: its transition is
    forced, so the arborescence count is unchanged. Returns ``(k, arcs)``
    over the ``k`` kept nodes, numbered 0..k-1, with one arc per kept
    out-edge (parallel arcs repeat), or None for a directed cycle.
    """
    tails = g.tails
    heads = g.heads
    succ: dict[int, list[int]] = {}
    for e in edges:
        succ.setdefault(tails[e], []).append(heads[e])
    if len(succ) == len(edges):
        return None
    index: dict[int, int] = {}
    for v, out in succ.items():
        if len(out) > 1:
            index[v] = len(index)
    arcs = []
    for v, i in index.items():
        for w in succ[v]:
            while w not in index:
                w = succ[w][0]
            arcs.append((i, index[w]))
    return len(index), arcs


def _bareiss_determinant(a: list[list[int]]) -> int:
    """Exact determinant by fraction-free integer elimination (destructive)."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def canonical_rotation(edges: Sequence[int]) -> tuple[int, ...]:
    """Rotate a circuit's edge sequence to start at its smallest edge id."""
    edges = tuple(edges)
    i = edges.index(min(edges))
    return edges[i:] + edges[:i]


def _cyclic_slice(seq: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    if i <= j:
        return tuple(seq[i:j])
    return tuple(seq[i:]) + tuple(seq[:j])


def swap_at_node(g: Graph, c: Circuit, v: str, occ: int) -> Circuit:
    """Exchange the two sub-circuits around an occurrence of ``v``.

    ``occ`` selects (0-based, in circuit order) the middle of three
    consecutive occurrences of ``v``; the sub-circuit leading into that
    occurrence and the one leaving it are swapped. The result is a valid
    circuit over the same edge multiset whose edge pair meeting at the
    selected occurrence differs from the input's. Requires ``v`` to occur at
    least three times.
    """
    node = g.index.get(v)
    if node is None:
        raise ContractError(f"node '{v}' is not in the graph")
    tails = g.tails
    edges = c.edges
    k = len(edges)
    occurrences = [i for i in range(k) if tails[edges[i]] == node]
    count = len(occurrences)
    if count < 3:
        raise ContractError(
            f"node '{v}' occurs {count} time(s) in the circuit; need at least 3"
        )
    if not 0 <= occ < count:
        raise ContractError(f"occurrence index {occ} out of range [0, {count})")
    prev = occurrences[(occ - 1) % count]
    mid = occurrences[occ]
    nxt = occurrences[(occ + 1) % count]
    before = _cyclic_slice(edges, prev, mid)
    after = _cyclic_slice(edges, mid, nxt)
    rest = _cyclic_slice(edges, nxt, prev)
    swapped = after + before + rest
    # Re-anchor on the input's first edge so repeated swaps are comparable.
    i = swapped.index(edges[0])
    if i:
        swapped = swapped[i:] + swapped[:i]
    return Circuit(swapped)
