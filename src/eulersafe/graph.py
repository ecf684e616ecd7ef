"""Directed multigraph model: parsing, walks, and the one analysis pass.

Node labels are opaque strings; they are interned to dense integer ids so
that every algorithm in the package can use plain array indexing. Edges
are numbered 0..m-1 in insertion order, and every result refers to edges
by those ids. Self-loops and parallel edges are ordinary edges.

A :class:`Graph` holds one adjacency structure, an incidence CSR whose
out-edge part serves directed walks and whose two parts together are the
underlying undirected graph. :func:`_analyse` is the one traversal: a
balance scan, then one lowlink DFS that yields connectivity and block
labels, and runs through each chain of one-in one-out nodes without a
frame per node; cut nodes, forcing and sides are read off the labels.
:func:`is_eulerian`, :func:`require_eulerian` and through them every
analysis in the package run it once per call.
"""
from __future__ import annotations

from array import array
from codecs import getincrementaldecoder
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from io import BufferedIOBase, IncrementalNewlineDecoder
from itertools import accumulate, chain, compress, repeat
from operator import add


class GraphError(Exception):
    """Base class for errors raised by this package."""


class ParseError(GraphError):
    """Malformed edge-list input."""


class ContractError(GraphError):
    """A documented precondition was violated by the caller."""


class Graph:
    """Immutable directed multigraph with stable edge identities.

    ``labels[i]`` is the label of node id ``i`` (first-appearance order) and
    ``tails[e]``/``heads[e]`` are the endpoint ids of edge ``e``.

    Incidences are stored once, as a CSR over node ids. Entries ``off[v]``
    to ``off[v + 1] - 1`` of ``eid`` and ``nbr`` are the edge ends at ``v``:
    first its out-edges, up to ``out_end[v]``, then its in-edges, each part
    in ascending edge id. ``eid`` holds the edge id and ``nbr`` the other
    endpoint, so a self-loop appears once in each part, with ``nbr`` equal
    to ``v``. The out part serves directed walks; both parts together are
    the underlying undirected graph. ``off[num_nodes]`` is ``2 * num_edges``.

    Apart from the label strings, a graph holds no Python object per node
    or per edge: every table is an ``array("i")``. The ``{label: id}`` map
    :attr:`index` is built on first use, so code that never looks a label
    up never holds it.

    Instances must not be mutated after construction; they are safe to
    share between threads.
    """

    __slots__ = ("labels", "_index", "tails", "heads", "off", "out_end", "nbr", "eid")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        index: dict[str, int] = {}
        intern = index.setdefault
        tails = array("i")
        heads = array("i")
        for tail, head in edges:
            tails.append(intern(tail, len(index)))
            heads.append(intern(head, len(index)))
        if not tails:
            raise GraphError("graph must have at least one edge")
        # The map holds an int object per node; free it before the CSR.
        labels = list(index)
        del index, intern
        # The CSR: count, then place.
        n = len(labels)
        m = len(tails)
        out_degree = [0] * n
        for t in tails:
            out_degree[t] += 1
        degree = out_degree.copy()
        for h in heads:
            degree[h] += 1
        off = array("i", [0])
        off.extend(accumulate(degree))
        out_end = array("i", map(add, off, out_degree))
        # The fill cursors. A list boxes an int per node up front, an array
        # one per access: lists only where edges outnumber nodes 8 to 1.
        if 8 * n <= m:
            next_out = list(off[:-1])
            next_in = list(out_end)
        else:
            next_out = off[:-1]
            next_in = out_end[:]
        # Two 4-byte entries per edge, filled in place, so that no int object
        # is held per entry.
        nbr = array("i", bytes(8 * m))
        eid = array("i", bytes(8 * m))
        e = 0
        for t, h in zip(tails, heads):
            p = next_out[t]
            nbr[p] = h
            eid[p] = e
            next_out[t] = p + 1
            p = next_in[h]
            nbr[p] = t
            eid[p] = e
            next_in[h] = p + 1
            e += 1
        self.labels = labels
        self._index = None
        self.tails = tails
        self.heads = heads
        self.off = off
        self.out_end = out_end
        self.nbr = nbr
        self.eid = eid

    @property
    def index(self) -> dict[str, int]:
        """``{label: id}``, built on first use and then kept."""
        if self._index is None:
            self._index = dict(zip(self.labels, range(len(self.labels))))
        return self._index

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.tails)

    def edge(self, e: int) -> tuple[str, str]:
        """Endpoint labels (tail, head) of edge ``e``. Raises
        :class:`ContractError` if ``e`` is not an edge id of the graph."""
        if not 0 <= e < len(self.tails):
            raise ContractError(f"edge id {e} is not in the graph")
        return self.labels[self.tails[e]], self.labels[self.heads[e]]

    def edge_pairs(self) -> Iterator[tuple[str, str]]:
        """All edges as (tail label, head label), in edge-id order."""
        for e in range(len(self.tails)):
            yield self.labels[self.tails[e]], self.labels[self.heads[e]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and list(self.edge_pairs()) == list(
            other.edge_pairs()
        )

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self.labels)}, edges={len(self.tails)})"


class Circuit(namedtuple("Circuit", "edges")):
    """Edge ids of a closed walk: the last edge ends where the first starts."""

    __slots__ = ()

    # The generated _make, which _replace goes through, checks the field
    # count with len(), which counts edges on a Circuit.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __len__(self) -> int:
        return len(self.edges)


def walk_nodes(g: Graph, edges: Sequence[int]) -> list[str]:
    """Node-label sequence (length k+1) visited by an edge-id walk. Raises
    :class:`ContractError` naming the first id that is not an edge of ``g``."""
    if not edges:
        raise GraphError("walk must be non-empty")
    m = g.num_edges
    if min(edges) < 0 or max(edges) >= m:
        bad = next(e for e in edges if not 0 <= e < m)
        raise ContractError(f"edge id {bad} is not in the graph")
    nodes = [g.labels[g.tails[edges[0]]]]
    for e in edges:
        nodes.append(g.labels[g.heads[e]])
    return nodes


def is_valid_walk(g: Graph, edges: Sequence[int]) -> bool:
    """True iff consecutive edges are head-to-tail consistent in ``g``."""
    if not edges:
        return False
    m = g.num_edges
    if any(e < 0 or e >= m for e in edges):
        return False
    heads = g.heads
    tails = g.tails
    return all(heads[edges[i]] == tails[edges[i + 1]] for i in range(len(edges) - 1))


BLOCK_SIZE = 1 << 13  # characters of text, or bytes of a file, taken at a time


def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list: one "tail head" pair per line.

    Lines end at "\n", "\r\n" or a lone "\r"; form feeds, U+0085, U+2028
    and other separators are whitespace within a line. A leading U+FEFF
    (byte-order mark) is dropped; elsewhere it is part of a label. Blank
    lines and lines whose first token starts with '#' are skipped. Raises
    :class:`ParseError` on a malformed line (with its 1-based number) or
    on an empty edge set. The text is split into lines ``BLOCK_SIZE``
    characters at a time and tokenized straight into the graph's edge
    arrays, so that no list of all its lines is held.
    """
    slices = (text[i : i + BLOCK_SIZE] for i in range(0, len(text), BLOCK_SIZE))
    return Graph(_edge_tokens(_lines(slices)))


def _read_edge_list(handle: BufferedIOBase) -> Graph:
    """:func:`parse_edge_list` of the binary file ``handle``, read once,
    ``BLOCK_SIZE`` bytes at a time, as UTF-8. Errors come in input order:
    a byte that is not UTF-8 raises :class:`ParseError` with its offset in
    the input once the lines that end before it are parsed; a "\r" just
    before it has not ended its line yet."""
    decode = getincrementaldecoder("utf-8")().decode

    def blocks() -> Iterator[str]:
        read = 0
        while True:
            block = handle.read(BLOCK_SIZE)
            read += len(block)
            try:
                text = decode(block, final=not block)
            except UnicodeDecodeError as exc:
                # exc.object is what earlier blocks left undecoded, then
                # this block; all of it before exc.start is valid.
                yield exc.object[: exc.start].decode()
                at = read - len(exc.object) + exc.start
                raise ParseError(f"input is not valid UTF-8: {exc.reason} at byte {at}") from None
            yield text
            if not block:
                return

    return Graph(_edge_tokens(_lines(blocks())))


def _lines(blocks: Iterable[str]) -> Iterator[list[str]]:
    """The lines of the text that ``blocks`` make up, without their endings,
    one list per block, so that no generator resumes per line.

    Newlines are translated as the blocks arrive, so a "\r\n" split
    between two blocks is one ending. A leading U+FEFF is dropped from
    line 1. The pieces of a line that spans blocks are joined once, when
    it ends: a join per block would be quadratic in its length.
    """
    decode = IncrementalNewlineDecoder(None, translate=True).decode
    partial: list[str] = []
    start = True
    # One last, final call ends a "\r" held back at the end of the text.
    for block, final in chain(zip(blocks, repeat(False)), [("", True)]):
        text = decode(block, final)
        if start and text:
            text = text.removeprefix("\ufeff")
            start = False
        *ended, last = text.split("\n")
        if ended:
            partial.append(ended[0])
            ended[0] = "".join(partial)
            partial.clear()
            yield ended
        partial.append(last)
    yield ["".join(partial)]


def _edge_tokens(lines: Iterable[list[str]]) -> Iterator[list[str]]:
    """Yield the ``[tail, head]`` token pair of every edge line; the lists
    in ``lines`` hold line 1, 2, ... in order, without their endings."""
    empty = True
    for lineno, raw in enumerate(chain.from_iterable(lines), start=1):
        tokens = raw.split()
        # One test accepts an edge line; blank and comment lines fail both.
        if len(tokens) == 2 and tokens[0][0] != "#":
            empty = False
            yield tokens
        elif tokens and tokens[0][0] != "#":
            raise ParseError(f"line {lineno}: expected 'tail head', got {len(tokens)} token(s)")
    if empty:
        raise ParseError("graph must have at least one edge")


class EulerCheck(namedtuple("EulerCheck", "ok reason witness detail", defaults=(None, None, None))):
    """Verdict of the Eulerian-ness test, with a witness on failure."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def _analyse(g: Graph) -> tuple[EulerCheck, array]:
    """The one validation-and-analysis pass, O(|E|): the Euler verdict and
    the block labels, an ``array("i")`` by node id, empty if the check fails.

    First the balance scan: the first node in id order whose out-degree
    differs from its in-degree fails the check. Then one iterative lowlink
    DFS (Hopcroft-Tarjan) from node 0 over both parts of the CSR; the
    lowest-id node it does not reach fails the check. Only the specific
    edge used to enter a node is skipped when updating lowlinks, so a
    parallel copy of the tree edge acts as a back edge and a doubled edge
    never separates its endpoints. Discovered nodes wait on a member stack;
    when a child's tree edge opens a block, the members down to that child
    take its discovery time as their label; the root keeps label 1, that of
    its first child's block and the smallest. A non-loop edge lies in the
    block that the larger of its two ends' labels names, tree edges and
    back edges alike. So an edge to a neighbour with a larger label than
    v's leaves v's own block, and v is a cut node iff it has such a
    neighbour.

    A node with one out-edge and one in-edge gets no frame: from a new
    child ``c`` of v, the DFS numbers the chain of such nodes in one run,
    in its usual order. If the chain ends at v or an ancestor, v resumes
    its scan; if at a new node, the DFS enters it, and a block that closes
    at v starts at ``c``. No block closes inside a chain: a balanced graph
    has no bridge, so a chain node's lowlink is below its discovery time.
    """
    n = g.num_nodes
    off = g.off
    labels = g.labels
    for v, (start, mid, stop) in enumerate(zip(off, g.out_end, off[1:])):
        if mid - start != stop - mid:
            detail = f"node '{labels[v]}' has out-degree {mid - start} and in-degree {stop - mid}"
            return EulerCheck(False, "unbalanced", labels[v], detail), array("i")
    nbr = g.nbr
    eid = g.eid
    disc = [-1] * n
    block = array("i", [1]) * n
    members: list[int] = []
    # Every ancestor of the running node waits on the stack as (node, next
    # entry to scan, lowlink so far, edge used to enter it, first node of
    # the branch below it). The running node's state lives in locals, so
    # back edges and chains never touch the stack.
    stack: list[tuple[int, int, int, int, int]] = []
    disc[0] = 0
    timer = 1
    v, i, end, lv, entered = 0, off[0], off[1], 0, -1
    while True:
        while i < end:
            w = nbr[i]
            dw = disc[w]
            if dw < 0:
                break
            if dw < lv and eid[i] != entered:
                lv = dw
            i += 1
        else:
            if not stack:
                break
            dw = lv
            v, i, lv, entered, c = stack.pop()
            end = off[v + 1]
        if dw < 0:
            # Number w and the chain of one-in one-out nodes after it; it leaves
            # each as it left v, by the out-edge (entry 0) or the in-edge (1).
            c = w
            j = i
            back = i >= g.out_end[v]
            while True:
                disc[w] = timer
                timer += 1
                members.append(w)
                if off[w + 1] - off[w] != 2:
                    break
                j = off[w] + back
                w = nbr[j]
                dw = disc[w]
                if dw >= 0:
                    break
            if dw < 0:
                # The chain ends at a new node with more edges: enter it.
                stack.append((v, i + 1, lv, entered, c))
                entered = eid[j]
                lv = disc[w]
                v, i, end = w, off[w], off[w + 1]
                continue
            i += 1
        # The branch below v that starts at c is done, and its lowlink is dw.
        if dw >= disc[v]:
            dc = disc[c]
            while True:
                x = members.pop()
                block[x] = dc
                if x == c:
                    break
        elif dw < lv:
            lv = dw
    if timer != n:
        witness = labels[disc.index(-1)]
        detail = f"node '{witness}' is not reachable from '{labels[0]}' ignoring directions"
        return EulerCheck(False, "not-weakly-connected", witness, detail), array("i")
    return EulerCheck(True), block


def is_eulerian(g: Graph) -> EulerCheck:
    """Check balanced degrees and weak connectivity.

    Returns ``ok=True`` iff every node has in-degree equal to out-degree and
    all edges lie in one weakly connected component. On failure the first
    violated condition is named together with a witness node.
    """
    return _analyse(g)[0]


def require_eulerian(g: Graph) -> array:
    """Run the analysis pass and return its block labels (see
    :func:`_analyse`); raise :class:`ContractError` naming the failed
    condition if the graph is not Eulerian."""
    check, block = _analyse(g)
    if not check.ok:
        raise ContractError(f"graph is not Eulerian: {check.detail}")
    return block


def _cut_nodes(g: Graph, block: array) -> bytearray:
    """1 for every cut node id, else 0, from the block labels of the
    analysis pass: of an edge whose two ends carry different labels, the
    end with the smaller label is a cut node, and every cut node is one."""
    cut = bytearray(g.num_nodes)
    label = block.tolist()
    for t, h in zip(g.tails, g.heads):
        if label[t] != label[h]:
            cut[t if label[t] < label[h] else h] = 1
    return cut


def articulation_points(g: Graph) -> set[str]:
    """Labels of exactly the nodes whose removal disconnects the underlying
    undirected graph of the Eulerian graph ``g``."""
    return set(compress(g.labels, _cut_nodes(g, require_eulerian(g))))


def underlying_undirected(g: Graph) -> Graph:
    """The undirected view of ``g``, which is ``g`` itself: its CSR already
    lists every edge at both endpoints. It remains for ``bench/`` until
    ROADMAP item 1."""
    return g
