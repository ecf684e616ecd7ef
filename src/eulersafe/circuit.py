"""Exact Eulerian circuit counting over biconnected blocks. No circuit is
built: Hierholzer's builder is an oracle, in :mod:`eulersafe.oracles`."""
from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Sequence
from itertools import accumulate
from math import factorial, lgamma, log, log10

from .graph import ContractError, Graph, require_eulerian

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


def edge_blocks(g: Graph) -> tuple[array, int]:
    """Biconnected block id of every edge, from the analysis pass.

    Returns ``(block, count)``: ``block[e]`` in ``0..count-1`` for each
    non-loop edge id ``e`` and -1 for a self-loop, which belongs to no
    block. An edge lies in the block that the larger of its two ends'
    labels names (see :func:`~eulersafe.graph._analyse`), tree edges and
    back edges alike; block ids number those labels in increasing order.
    ``block`` is an ``array("i")``. Raises :class:`ContractError` if ``g`` is not Eulerian.
    """
    label = require_eulerian(g)
    # The root, node 0, shares its first child's label or, alone, names no
    # block, so it is skipped; ids[d] counts the labels below d.
    opened = bytearray(len(label))
    for d in label[1:]:
        opened[d] = 1
    ids = array("i", accumulate(opened, initial=0))
    # A list boxes each label once; the edge loop reads it once per edge end.
    label = label.tolist()
    block = array("i", [-1]) * g.num_edges
    for e, (t, h) in enumerate(zip(g.tails, g.heads)):
        if t != h:
            lt = label[t]
            lh = label[h]
            block[e] = ids[lt if lt > lh else lh]
    return block, ids[-1]


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
    # Series reduction keeps the nodes with two or more out-edges in a
    # block; a block without one is a directed cycle. kept[b] counts block
    # b's, and the bound is checked on these counts before any block's
    # edges are gathered.
    kept = array("i", [0]) * count
    eid = g.eid
    for lo, hi in zip(g.off, g.out_end):
        if hi - lo > 1:
            for b, d in Counter(map(block.__getitem__, eid[lo:hi])).items():
                if d > 1 and b >= 0:
                    kept[b] += 1
    reduced = [(k, b) for b, k in enumerate(kept) if k]
    if sum(k**3 for k, _ in reduced) > MAX_BLOCK_NODES**3:
        largest = max(k for k, _ in reduced)
        raise ContractError(
            f"exact count refused: {len(reduced)} block(s) of up to {largest} nodes "
            f"after series reduction exceed the determinant bound of one "
            f"{MAX_BLOCK_NODES}-node block"
        )
    # The non-loop edge ids, grouped by a counting sort into one array:
    # block b's, ascending, are members[start[b] : start[b + 1]].
    start = array("i", bytes(4 * (count + 1)))
    for b in block:
        if b >= 0:
            start[b + 1] += 1
    start = array("i", accumulate(start))
    members = array("i", bytes(4 * start[-1]))
    cursor = start[:-1]
    for e, b in enumerate(block):
        if b >= 0:
            members[cursor[b]] = e
            cursor[b] += 1
    degrees = Counter(end - start for start, end in zip(g.off, g.out_end))
    # log10 of the answer, known before any big product: lgamma(d) is
    # ln (d - 1)!, and the determinants are small, their blocks bounded above.
    magnitude = sum(k * lgamma(d) for d, k in degrees.items()) / log(10)
    product = 1
    for k, b in reduced:
        lap = [[0] * k for _ in range(k)]
        for i, j in _series_reduce(g, members[start[b] : start[b + 1]]):
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


def _series_reduce(g: Graph, edges: Sequence[int]) -> list[tuple[int, int]]:
    """Series reduction of one Eulerian block that is not a directed cycle,
    given by its edge ids.

    Every node of in-block degree 1 is contracted: its transition is
    forced, so the arborescence count is unchanged. Returns one arc per
    kept out-edge (parallel arcs repeat) over the kept nodes, numbered
    0..k-1 in order of their first out-edge.
    """
    tails = g.tails
    heads = g.heads
    succ: dict[int, list[int]] = {}
    for e in edges:
        succ.setdefault(tails[e], []).append(heads[e])
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
    return arcs


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

