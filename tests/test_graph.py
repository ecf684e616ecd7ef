"""Parsing, the multigraph model, normalization, and the analysis pass."""
import random
import tracemalloc
from collections import Counter

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
    is_valid_walk,
    maximal_safe_walks,
    normalize,
    parse_edge_list,
    walk_nodes,
)
from eulersafe import graph
from eulersafe.circuit import find_eulerian_circuit
from eulersafe.oracles import _rewritten_edges
from test_cli import cactus_edges


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
        # Line numbers count "\n" only; str.splitlines() would also break
        # at these characters, which split() reads as whitespace.
        for separator in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            with pytest.raises(ParseError, match="line 3:"):
                parse_edge_list(f"a b{separator}\nb a\nbad\n")
        with pytest.raises(ParseError, match="line 2:"):
            parse_edge_list("a b\r\nbad\r\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("")
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("# only a comment\n")

    def test_blank_lines_skipped(self):
        g = parse_edge_list("\na b\n\nb a\n")
        assert g.num_edges == 2


def test_parse_peaks_under_twice_the_graph():
    # The CSR is filled in place, with no int object held per entry.
    text = "".join(f"{t} {h}\n" for t, h in cactus_edges(100_000, seed=11))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == 100_000
    assert peak <= 2 * held


class TestGraphModel:
    def test_edge_ids_follow_input_order(self):
        g = Graph([("x", "y"), ("y", "x"), ("x", "y")])
        assert g.edge(0) == ("x", "y")
        assert g.edge(1) == ("y", "x")
        assert g.edge(2) == ("x", "y")

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


def test_witness_matches_brute_force():
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
        reasons[check.reason] += 1
    assert min(reasons.values()) > 200, reasons


def pair_batch(g):
    checker = SafePairChecker(g)
    for e1 in range(g.num_edges):
        for e2 in range(g.num_edges):
            if e1 != e2 and g.heads[e1] == g.tails[e2]:
                checker.check(e1, e2)


@pytest.mark.parametrize(
    "entry",
    [has_unique_eulerian_circuit, maximal_safe_walks, count_circuits, pair_batch],
    ids=["unique", "walks", "count", "pair-batch"],
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
