"""Parsing, the multigraph model, normalization, and Eulerian checks."""
import random

import pytest
from hypothesis import given, strategies as st

from eulersafe import (
    ContractError,
    Graph,
    GraphError,
    ParseError,
    is_eulerian,
    is_valid_walk,
    normalize,
    parse_edge_list,
    walk_nodes,
)
from eulersafe.circuit import find_eulerian_circuit
from eulersafe.oracles import is_simple


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

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("")
        with pytest.raises(ParseError, match="at least one edge"):
            parse_edge_list("# only a comment\n")

    def test_blank_lines_skipped(self):
        g = parse_edge_list("\na b\n\nb a\n")
        assert g.num_edges == 2


class TestGraphModel:
    def test_edge_ids_follow_input_order(self):
        g = Graph([("x", "y"), ("y", "x"), ("x", "y")])
        assert g.edge(0) == ("x", "y")
        assert g.edge(1) == ("y", "x")
        assert g.edge(2) == ("x", "y")

    def test_adjacency_consistency(self):
        g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")])
        for v in range(g.num_nodes):
            for e in g.out_adj[v]:
                assert g.tails[e] == v
            for e in g.in_adj[v]:
                assert g.heads[e] == v
        assert sum(len(a) for a in g.out_adj) == g.num_edges
        assert sum(len(a) for a in g.in_adj) == g.num_edges

    def test_degrees(self):
        g = Graph([("a", "b"), ("a", "b"), ("b", "a")])
        a = g.index["a"]
        assert (len(g.out_adj[a]), len(g.in_adj[a])) == (2, 1)

    def test_no_edges_rejected(self):
        with pytest.raises(GraphError):
            Graph([])

    def test_is_simple(self):
        assert is_simple(Graph([("a", "b"), ("b", "a")]))
        assert not is_simple(Graph([("a", "a")]))
        assert not is_simple(Graph([("a", "b"), ("a", "b")]))


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
        assert is_simple(ng)
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
            assert (len(ng.out_adj[v]), len(ng.in_adj[v])) == (1, 1)

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
        assert is_simple(ng)

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
