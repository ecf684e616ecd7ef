"""Circuit construction, verification, and the sub-circuit swap."""
import random

import pytest

from eulersafe import (
    Circuit,
    ContractError,
    Graph,
    canonical_rotation,
    normalize,
    random_eulerian_edges,
    find_eulerian_circuit,
    swap_at_node,
    verify_circuit,
)


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


class TestCanonicalRotation:
    def test_rotates_to_smallest_id(self):
        assert canonical_rotation((4, 2, 7, 5)) == (2, 7, 5, 4)

    def test_fixed_point(self):
        assert canonical_rotation((0, 3, 1)) == (0, 3, 1)


class TestSwapAtNode:
    def test_three_triangles_middle_occurrence(self, three_triangles):
        c = find_eulerian_circuit(three_triangles)
        swapped = swap_at_node(three_triangles, c, "v", 1)
        assert swapped.edges == (0, 1, 2, 6, 7, 8, 3, 4, 5)
        assert verify_circuit(three_triangles, swapped)

    def test_changes_pair_at_selected_occurrence(self, three_triangles):
        g = three_triangles
        c = find_eulerian_circuit(g)
        node = g.index["v"]
        for occ in range(3):
            swapped = swap_at_node(g, c, "v", occ)
            assert verify_circuit(g, swapped)
            before = {
                (c.edges[i - 1], c.edges[i])
                for i in range(len(c.edges))
                if g.tails[c.edges[i]] == node
            }
            after = {
                (swapped.edges[i - 1], swapped.edges[i])
                for i in range(len(swapped.edges))
                if g.tails[swapped.edges[i]] == node
            }
            assert before != after

    def test_involution(self, three_triangles):
        g = three_triangles
        c = find_eulerian_circuit(g)
        for occ in range(3):
            swapped = swap_at_node(g, c, "v", occ)
            # The occurrence keeps its index because re-anchoring restores
            # the original starting edge.
            assert swap_at_node(g, swapped, "v", occ) == c

    def test_requires_three_occurrences(self, figure_eight):
        c = find_eulerian_circuit(figure_eight)
        with pytest.raises(ContractError, match="at least 3"):
            swap_at_node(figure_eight, c, "v", 0)

    def test_unknown_node_and_bad_occurrence(self, three_triangles):
        c = find_eulerian_circuit(three_triangles)
        with pytest.raises(ContractError, match="not in the graph"):
            swap_at_node(three_triangles, c, "zz", 0)
        with pytest.raises(ContractError, match="out of range"):
            swap_at_node(three_triangles, c, "v", 3)

    def test_random_graphs(self):
        rng = random.Random(99)
        tried = 0
        while tried < 40:
            edges = random_eulerian_edges(5, 3, seed=rng)
            g, _ = normalize(Graph(edges))
            degrees = [end - start for start, end in zip(g.off, g.out_end)]
            if max(degrees) < 3:
                continue
            tried += 1
            v = g.labels[degrees.index(max(degrees))]
            c = find_eulerian_circuit(g)
            for occ in range(max(degrees)):
                swapped = swap_at_node(g, c, v, occ)
                assert verify_circuit(g, swapped)
                assert swapped.edges != c.edges
