"""Parsing, the multigraph model, normalization, and the analysis pass."""
import argparse
import contextlib
import io
import random
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from eulersafe import (
    ContractError,
    Graph,
    GraphError,
    ParseError,
    SafePairChecker,
    count_circuits,
    has_unique_eulerian_circuit,
    is_eulerian,
    maximal_safe_walks,
    normalize,
    parse_edge_list,
    walk_nodes,
)
from eulersafe import cli, graph
from eulersafe.circuit import find_eulerian_circuit
from eulersafe.graph import is_valid_walk
from eulersafe.oracles import _require_eulerian, _rewritten_edges
from families import cactus_edges


def out_edges(g, v):
    """Edge ids leaving node id ``v``, read from the CSR's out part."""
    return list(g.eid[g.off[v] : g.out_end[v]])


def in_edges(g, v):
    """Edge ids entering node id ``v``, read from the CSR's in part."""
    return list(g.eid[g.out_end[v] : g.off[v + 1]])


class TestParseEdgeList:
    def test_simple_triangle(self):
        g = parse_edge_list("a b\nb c\nc a")
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert list(g.edge_pairs()) == [("a", "b"), ("b", "c"), ("c", "a")]

    def test_comments_and_parallel_edges(self):
        g = parse_edge_list("a b\n# note\na b")
        assert g.num_edges == 2
        assert list(g.edge_pairs()) == [("a", "b"), ("a", "b")]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a")
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("a b\n\nx y z")
        # Lines end at "\n", "\r\n" or "\r" only; str.splitlines() would also
        # break at these characters, which split() reads as whitespace.
        for separator in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            with pytest.raises(ParseError, match="line 3:"):
                parse_edge_list(f"a b{separator}\nb a\nbad\n")
        with pytest.raises(ParseError, match="line 2:"):
            parse_edge_list("a b\r\nbad\r\n")
        with pytest.raises(ParseError, match="line 3:"):
            parse_edge_list("a b\rb a\r\nbad\r")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("")
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("# only a comment\n")

    def test_blank_lines_skipped(self):
        g = parse_edge_list("\na b\n\nb a\n")
        assert g.num_edges == 2

    def test_comment_is_a_first_token_that_starts_with_hash(self):
        # A line is an edge iff it has two tokens and the first does not
        # start with '#'; any other line with a token is an error, unless
        # its first token starts with '#'.
        text = "#x y\n# a b\na #b\n   \t \n#\n#x y z\n"
        assert list(parse_edge_list(text).edge_pairs()) == [("a", "#b")]
        with pytest.raises(ParseError, match=r"^line 7: expected 'tail head', got 3 token\(s\)$"):
            parse_edge_list(text + "a b c\n")
        with pytest.raises(ParseError, match=r"^line 8: expected 'tail head', got 1 token\(s\)$"):
            parse_edge_list(text + "\na\n")
        with pytest.raises(ParseError, match="^graph must have at least one edge$"):
            parse_edge_list("#x y\n# a b\n  \n")

    def test_leading_byte_order_mark_dropped(self):
        assert parse_edge_list("\ufeff# g\na b\nb a\n") == parse_edge_list("a b\nb a\n")
        with pytest.raises(ParseError, match="line 2:"):
            parse_edge_list("\ufeff# g\nbad\n")
        # Only one, and only at the start: elsewhere U+FEFF is in a label.
        assert parse_edge_list("\ufeff\ufeffa b\nb \ufeffa\n").labels == ["\ufeffa", "b"]


@pytest.mark.parametrize("size", [1, 2, 5, graph.BLOCK_SIZE])
def test_slices_are_the_lines(size):
    rng = random.Random(size)
    texts = ["", "\n", "\r", "\r\n", "\n\n", "a b", "a b\n", "\ufeff", "\ufeff\ufeffa\r"]
    pieces = ["a", " ", "\n", "\r", "\r\n", "\u2028", "\ufeff", "b c\n"]
    for _ in range(300):
        text = "".join(rng.choices(pieces, k=rng.randint(1, 40)))
        texts.append(rng.choice(["", "\ufeff"]) + text)
    for text in texts:
        blocks = [text[i : i + size] for i in range(0, len(text), size)]
        lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
        assert [line for part in graph._lines(blocks) for line in part] == lines.split("\n")


def test_parse_peaks_under_twice_the_graph():
    # The text is split into lines a block at a time, and the CSR is
    # filled in place, with no int object held per entry.
    text = "".join(f"{t} {h}\n" for t, h in cactus_edges(100_000, seed=11))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == 100_000
    assert peak <= 2 * held


class Discard:
    """Stands in for ``sys.stdout`` and keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.fixture(scope="module")
def traced_cactus(tmp_path_factory):
    """The 10⁵-node cactus loaded once by ``cli._load_graph`` under
    tracemalloc: the graph, the load's peak and what the graph holds, both
    in bytes above what was traced before the load."""
    path = tmp_path_factory.mktemp("cactus") / "cactus.txt"
    path.write_text("".join(f"{t} {h}\n" for t, h in cactus_edges(100_000, seed=11)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = cli._load_graph(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, str(path), peak - before, held - before


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_safe_peaks_near_the_graph(traced_cactus, monkeypatch, fmt):
    # `safe` parses its input as it reads it and writes each walk as it
    # follows it, so it holds neither the text, nor its lines, nor all the
    # walks. Its peak, about 1.42 times what the graph holds, comes while
    # it builds the forced successors with the analysis pass's tables
    # held, the DFS's `disc` list, an int object per node, the largest.
    # Keeping the text and the walks took it past 2. The load is traced
    # once for both formats; each run then starts from the loaded graph.
    g, path, load_peak, graph_size = traced_cactus
    monkeypatch.setattr(cli, "_load_graph", lambda p: g)
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(["safe", path, "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak = max(load_peak, graph_size + peak - before)
    assert peak <= 1.65 * graph_size, peak / graph_size


class TestGraphModel:
    def test_edge_ids_follow_input_order(self):
        g = Graph([("x", "y"), ("y", "x"), ("x", "y")])
        assert g.edge(0) == ("x", "y")
        assert g.edge(1) == ("y", "x")
        assert g.edge(2) == ("x", "y")

    @pytest.mark.parametrize("bad", [-1, 3, 99])
    def test_edge_rejects_unknown_ids(self, triangle, bad):
        # -1 would wrap to the last edge; 3 and 99 are past the end.
        with pytest.raises(ContractError, match=rf"^edge id {bad} is not in the graph$"):
            triangle.edge(bad)

    def test_adjacency_consistency(self):
        g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")])
        for v in range(g.num_nodes):
            for e in out_edges(g, v):
                assert g.tails[e] == v
            for e in in_edges(g, v):
                assert g.heads[e] == v
        assert sum(len(out_edges(g, v)) for v in range(g.num_nodes)) == g.num_edges
        assert sum(len(in_edges(g, v)) for v in range(g.num_nodes)) == g.num_edges

    def test_degrees(self):
        g = Graph([("a", "b"), ("a", "b"), ("b", "a")])
        a = g.index["a"]
        assert (len(out_edges(g, a)), len(in_edges(g, a))) == (2, 1)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
            min_size=1,
            max_size=12,
        )
    )
    def test_csr_invariants(self, edges):
        g = Graph(edges)
        assert len(g.off) == g.num_nodes + 1
        assert g.off[0] == 0 and g.off[g.num_nodes] == 2 * g.num_edges
        for v in range(g.num_nodes):
            # Out part first, then in part, each ascending by edge id.
            assert g.off[v] <= g.out_end[v] <= g.off[v + 1]
            outs = out_edges(g, v)
            ins = in_edges(g, v)
            assert outs == sorted(e for e in range(g.num_edges) if g.tails[e] == v)
            assert ins == sorted(e for e in range(g.num_edges) if g.heads[e] == v)
            # nbr holds the other endpoint; a self-loop is once in each part.
            for i in range(g.off[v], g.out_end[v]):
                assert g.nbr[i] == g.heads[g.eid[i]]
            for i in range(g.out_end[v], g.off[v + 1]):
                assert g.nbr[i] == g.tails[g.eid[i]]
            loops = [e for e in range(g.num_edges) if g.tails[e] == g.heads[e] == v]
            assert [e for e in outs if g.heads[e] == v] == loops
            assert [e for e in ins if g.tails[e] == v] == loops

    @pytest.mark.parametrize(
        "nodes, edges",
        [(1, 8), (1, 7), (3, 24), (3, 23), (40, 320), (40, 319), (200, 210)],
    )
    def test_csr_matches_its_definition(self, nodes, edges):
        # Graph fills the CSR through list cursors when 8·|V| <= |E| and
        # array cursors otherwise; both must give the layout of the
        # definition, and leave off and out_end as they were.
        rng = random.Random(nodes * 1000 + edges)
        pairs = [(str(v), str(rng.randrange(nodes))) for v in range(nodes)]
        for _ in range(edges - nodes):
            pairs.append((str(rng.randrange(nodes)), str(rng.randrange(nodes))))
        g = Graph(pairs)
        assert (g.num_nodes, g.num_edges) == (nodes, edges)
        tails = [int(t) for t, _ in pairs]
        heads = [int(h) for _, h in pairs]
        off, out_end, nbr, eid = [0], [], [], []
        for label in g.labels:
            v = int(label)
            outs = [e for e in range(edges) if tails[e] == v]
            ins = [e for e in range(edges) if heads[e] == v]
            out_end.append(off[-1] + len(outs))
            off.append(out_end[-1] + len(ins))
            nbr += [g.index[str(heads[e])] for e in outs] + [g.index[str(tails[e])] for e in ins]
            eid += outs + ins
        assert (list(g.off), list(g.out_end)) == (off, out_end)
        assert (list(g.nbr), list(g.eid)) == (nbr, eid)

    def test_index_is_built_on_first_use(self, tmp_path):
        g = Graph([("b", "a"), ("a", "c"), ("c", "b"), ("b", "a")])
        assert g._index is None
        index = g.index
        assert index == {"b": 0, "a": 1, "c": 2}
        assert g.index is index
        # Every command but the oracle ones looks no label up.
        path = tmp_path / "graph.txt"
        path.write_text("x y\ny x\n")
        assert cli._load_graph(str(path))._index is None

    def test_no_edges_rejected(self):
        with pytest.raises(GraphError):
            Graph([])

    def test_rewritten_edges(self):
        assert _rewritten_edges(Graph([("a", "b"), ("b", "a")])) == []
        assert _rewritten_edges(Graph([("a", "a")])) == [0]
        assert _rewritten_edges(Graph([("a", "b"), ("a", "b"), ("b", "a"), ("a", "b")])) == [1, 3]


class TestWalks:
    def test_walk_nodes(self, triangle):
        assert walk_nodes(triangle, (0, 1, 2)) == ["a", "b", "c", "a"]

    @pytest.mark.parametrize("walk, bad", [((-1,), -1), ((0, 3), 3), ((1, 99, -2), 99)])
    def test_walk_nodes_rejects_unknown_edge_ids(self, triangle, walk, bad):
        # A negative id would wrap to the last edge; one of |E| or more is
        # past the end.
        with pytest.raises(ContractError, match=rf"^edge id {bad} is not in the graph$"):
            walk_nodes(triangle, walk)

    def test_is_valid_walk(self, triangle):
        assert is_valid_walk(triangle, (0, 1))
        assert not is_valid_walk(triangle, (0, 2))
        assert not is_valid_walk(triangle, ())
        assert not is_valid_walk(triangle, (0, 99))


class TestNormalize:
    def test_self_loop_subdivided(self):
        g = Graph([("a", "a"), ("a", "b"), ("b", "a")])
        ng, nm = normalize(g)
        assert _rewritten_edges(ng) == []
        assert nm.self_loops == 1
        assert nm.parallel_duplicates == 0
        sub = next(iter(nm.subdivision_nodes))
        assert list(ng.edge_pairs()) == [("a", sub), (sub, "a"), ("a", "b"), ("b", "a")]

    def test_parallel_second_edge_subdivided(self):
        g = Graph([("a", "b"), ("a", "b")])
        ng, nm = normalize(g)
        sub = next(iter(nm.subdivision_nodes))
        assert list(ng.edge_pairs()) == [("a", "b"), ("a", sub), (sub, "b")]
        assert nm.parallel_duplicates == 1

    def test_already_simple_is_identity(self, triangle):
        ng, nm = normalize(triangle)
        assert ng is triangle
        assert nm.is_identity
        assert nm.origin == (0, 1, 2)

    def test_subdivision_nodes_have_degree_one(self):
        g = Graph([("a", "a"), ("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        ng, nm = normalize(g)
        for s in nm.subdivision_nodes:
            v = ng.index[s]
            assert (len(out_edges(ng, v)), len(in_edges(ng, v))) == (1, 1)

    def test_edge_and_node_bookkeeping(self):
        g = Graph([("a", "a"), ("a", "b"), ("a", "b"), ("b", "a")])
        ng, nm = normalize(g)
        rewritten = nm.self_loops + nm.parallel_duplicates
        assert rewritten == 2
        assert ng.num_edges == g.num_edges + rewritten
        assert ng.num_nodes == g.num_nodes + rewritten

    def test_fresh_labels_avoid_collisions(self):
        g = Graph([("s0", "s0"), ("s0", "s1"), ("s1", "s0")])
        ng, nm = normalize(g)
        assert nm.subdivision_nodes.isdisjoint({"s0", "s1"})
        assert _rewritten_edges(ng) == []

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
            min_size=1,
            max_size=12,
        )
    )
    def test_idempotent(self, edges):
        ng, _ = normalize(Graph(edges))
        again, nm = normalize(ng)
        assert again is ng
        assert nm.is_identity

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
            min_size=1,
            max_size=12,
        )
    )
    def test_projection_identity_on_edge_ids(self, edges):
        g = Graph(edges)
        ng, nm = normalize(g)
        assert sorted(set(nm.origin)) == list(range(g.num_edges))


class TestProjection:
    def test_circuit_projects_to_original_walk(self):
        # Eulerian multigraph with a loop and a parallel pair.
        g = Graph([("a", "a"), ("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        ng, nm = normalize(g)
        circuit = find_eulerian_circuit(ng)
        projected = nm.project(circuit.edges, circular=True)
        assert sorted(projected) == list(range(g.num_edges))
        assert is_valid_walk(g, projected)

    def test_random_multigraph_circuits_project(self):
        rng = random.Random(5)
        for _ in range(30):
            pool = "abcde"
            base = [
                (rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 4))
            ]
            # Balance by mirroring every edge, which also keeps loops.
            edges = base + [(h, t) for t, h in base]
            g = Graph(edges)
            if not is_eulerian(g):
                continue
            ng, nm = normalize(g)
            circuit = find_eulerian_circuit(ng)
            projected = nm.project(circuit.edges, circular=True)
            assert sorted(projected) == list(range(g.num_edges))
            assert is_valid_walk(g, projected)


class TestIsEulerian:
    def test_triangle(self, triangle):
        check = is_eulerian(triangle)
        assert check.ok
        assert bool(check)

    def test_open_path_unbalanced(self):
        g = Graph([("a", "b"), ("b", "c")])
        check = is_eulerian(g)
        assert not check.ok
        assert check.reason == "unbalanced"
        assert check.witness == "a"
        assert "out-degree 1" in check.detail and "in-degree 0" in check.detail

    def test_disconnected(self):
        g = Graph(
            [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")]
        )
        check = is_eulerian(g)
        assert not check.ok
        assert check.reason == "not-weakly-connected"
        assert check.witness in {"x", "y", "z"}

    def test_self_loop_only(self):
        assert is_eulerian(Graph([("a", "a")])).ok

    def test_requires_weak_not_strong_orientation(self):
        # Antiparallel pair: weakly and strongly connected, balanced.
        assert is_eulerian(Graph([("a", "b"), ("b", "a")])).ok


def brute_force_verdict(g):
    """(reason, witness) straight from the definition, from the edge list:
    the first node in id order whose out- and in-degree differ, else the
    lowest id not reachable from node 0 ignoring directions."""
    n = g.num_nodes
    pairs = list(zip(g.tails, g.heads))
    for v in range(n):
        if sum(t == v for t, _ in pairs) != sum(h == v for _, h in pairs):
            return "unbalanced", g.labels[v]
    seen = {0}
    changed = True
    while changed:
        changed = False
        for t, h in pairs:
            if (t in seen) != (h in seen):
                seen |= {t, h}
                changed = True
    unreached = [v for v in range(n) if v not in seen]
    if unreached:
        return "not-weakly-connected", g.labels[unreached[0]]
    return None, None


def refusal(require, g):
    """The message ``require`` raises on ``g``, or None if it passes."""
    try:
        require(g)
    except ContractError as exc:
        return str(exc)
    return None


def test_witness_matches_brute_force():
    # The oracles' own Euler check refuses exactly as the analysis pass does.
    rng = random.Random(20261018)
    reasons = Counter()
    for _ in range(2000):
        # Closed walks over two label pools that may or may not touch, plus
        # sometimes one stray edge that unbalances two nodes.
        edges = []
        for _ in range(rng.randint(1, 4)):
            pool = rng.choice(("abcd", "wxyz", "dw"))
            walk = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            edges += [(walk[i - 1], walk[i]) for i in range(len(walk))]
        if rng.random() < 0.4:
            edges.append((rng.choice("abcdwxyz"), rng.choice("abcdwxyz")))
        rng.shuffle(edges)
        g = Graph(edges)
        check = is_eulerian(g)
        assert (check.reason, check.witness) == brute_force_verdict(g), edges
        assert check.ok == (check.reason is None)
        assert refusal(_require_eulerian, g) == refusal(graph.require_eulerian, g), edges
        reasons[check.reason] += 1
    assert min(reasons.values()) > 200, reasons


def pair_batch(g):
    checker = SafePairChecker(g)
    for e1 in range(g.num_edges):
        for e2 in range(g.num_edges):
            if e1 != e2 and g.heads[e1] == g.tails[e2]:
                checker.check(e1, e2)


def cli_safe(fmt):
    """`safe` in format ``fmt`` on a graph, through the CLI's own writer."""

    def run(g):
        with mock.patch.object(cli, "_load_graph", lambda path: g):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.cmd_safe(argparse.Namespace(path="-", format=fmt)) == 0
        assert out.getvalue().startswith(f"edges: {g.num_edges}\n" if fmt == "text" else "{")

    return run


@pytest.mark.parametrize(
    "entry",
    [
        has_unique_eulerian_circuit,
        maximal_safe_walks,
        count_circuits,
        pair_batch,
        cli_safe("text"),
        cli_safe("structured"),
    ],
    ids=["unique", "walks", "count", "pair-batch", "safe-text", "safe-structured"],
)
def test_entry_points_run_the_pass_once(monkeypatch, entry):
    calls = []
    analyse = graph._analyse

    def counted(g):
        calls.append(g)
        return analyse(g)

    monkeypatch.setattr(graph, "_analyse", counted)
    graphs = [
        Graph([("v", "a"), ("a", "b"), ("b", "v"), ("v", "c"), ("c", "d"), ("d", "v")]),
        Graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")]),
        Graph([("a", "a"), ("a", "b"), ("b", "a"), ("a", "b"), ("b", "a")]),
    ]
    for g in graphs:
        calls.clear()
        entry(g)
        assert calls == [g]
