"""Circuit construction and verification."""
import pytest

from eulersafe import (
    Circuit,
    ContractError,
    Graph,
    find_eulerian_circuit,
)
from eulersafe.circuit import verify_circuit


class TestFindEulerianCircuit:
    def test_triangle(self, triangle):
        assert find_eulerian_circuit(triangle).edges == (0, 1, 2)

    def test_figure_eight(self, figure_eight):
        c = find_eulerian_circuit(figure_eight)
        assert c.edges == (0, 1, 2, 3, 4, 5)

    def test_three_triangles(self, three_triangles):
        c = find_eulerian_circuit(three_triangles)
        assert verify_circuit(three_triangles, c)
        assert c.edges[0] == 0

    def test_multigraph_with_loop_and_parallel(self):
        g = Graph([("a", "a"), ("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        c = find_eulerian_circuit(g)
        assert verify_circuit(g, c)

    def test_not_eulerian_raises_with_reason(self):
        with pytest.raises(ContractError, match="out-degree"):
            find_eulerian_circuit(Graph([("a", "b")]))
        disconnected = Graph(
            [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")]
        )
        with pytest.raises(ContractError, match="not reachable"):
            find_eulerian_circuit(disconnected)

    def test_stack_pushes_linear(self, corpus_4):
        # One push per edge plus the start node.
        for g in corpus_4:
            stats = {}
            find_eulerian_circuit(g, stats=stats)
            assert stats["stack_pushes"] == g.num_edges + 1


class TestVerifyCircuit:
    def test_accepts_rotations(self, triangle):
        assert verify_circuit(triangle, Circuit((1, 2, 0)))

    def test_rejects_wrong_length(self, triangle):
        assert not verify_circuit(triangle, Circuit((0, 1)))

    def test_rejects_duplicates(self, triangle):
        assert not verify_circuit(triangle, Circuit((0, 1, 1)))

    def test_rejects_bad_ids(self, triangle):
        assert not verify_circuit(triangle, Circuit((0, 1, 7)))

    def test_rejects_inconsistent_order(self, figure_eight):
        assert not verify_circuit(figure_eight, Circuit((0, 1, 2, 4, 3, 5)))

    def test_rejects_open_walk(self):
        g = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("c", "b"), ("b", "a")])
        assert not verify_circuit(g, Circuit((0, 1, 2, 3, 4, 0)))
