"""Undirected view, articulation points, and component splits. The
harness's sides column (families.py) checks the cut nodes against
component_split on every family."""
import random

import pytest

from eulersafe import (
    ContractError,
    Graph,
    articulation_points,
    component_split,
    is_eulerian,
    underlying_undirected,
)
from eulersafe.circuit import edge_blocks
from families import brute_force_blocks, renumbered


def brute_force_cut_nodes(u) -> set:
    """A node is a cut node iff deleting it splits the rest into >1 component."""
    cuts = set()
    if u.num_nodes <= 2:
        return cuts
    for label in u.labels:
        if component_split(u, label).count > 1:
            cuts.add(label)
    return cuts


class TestUnderlyingUndirected:
    def test_edge_ids_preserved(self, figure_eight):
        # The undirected view is the graph's own CSR, both parts together.
        g = figure_eight
        assert underlying_undirected(g) is g
        assert len(g.nbr) == len(g.eid) == 2 * g.num_edges
        v = g.index["v"]
        assert sorted(g.eid[g.off[v] : g.off[v + 1]]) == [0, 2, 3, 5]

    def test_antiparallel_pair_stays_parallel(self):
        g = Graph([("a", "b"), ("b", "a")])
        a = g.index["a"]
        assert sorted(g.eid[g.off[a] : g.off[a + 1]]) == [0, 1]
        assert list(g.nbr[g.off[a] : g.off[a + 1]]) == [g.index["b"]] * 2


class TestArticulationPoints:
    def test_triangle_has_none(self, triangle):
        assert articulation_points(triangle) == set()

    def test_figure_eight_center(self, figure_eight):
        assert articulation_points(figure_eight) == {"v"}

    def test_three_triangles_center(self, three_triangles):
        assert articulation_points(three_triangles) == {"v"}

    def test_antiparallel_pair_is_biconnected(self):
        # The doubled undirected edge must not make 'a' or 'b' a cut node.
        g = Graph([("a", "b"), ("b", "a")])
        assert articulation_points(g) == set()

    def test_path_of_antiparallel_pairs(self):
        g = Graph(
            [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("c", "d"), ("d", "c")]
        )
        assert articulation_points(g) == {"b", "c"}

    def test_root_with_two_children(self):
        # First-inserted node sits between the two halves: the DFS root,
        # labelled as its first child's block, sees the second's larger
        # label.
        g = Graph(
            [("v", "a"), ("a", "b"), ("b", "v"), ("v", "c"), ("c", "d"), ("d", "v")]
        )
        assert g.labels[0] == "v"
        assert articulation_points(g) == {"v"}

    def test_disconnected_rejected(self):
        g = Graph([("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")])
        with pytest.raises(ContractError, match="node 'x' is not reachable"):
            articulation_points(g)


class TestComponentSplit:
    def test_figure_eight_split_at_center(self, figure_eight):
        split = component_split(figure_eight, "v")
        assert split.count == 2
        assert split.component["a"] == split.component["b"]
        assert split.component["c"] == split.component["d"]
        assert split.component["a"] != split.component["c"]
        assert "v" not in split.component

    def test_non_cut_node_leaves_one_component(self, triangle):
        split = component_split(triangle, "b")
        assert split.count == 1
        assert set(split.component) == {"a", "c"}

    def test_unknown_node(self, triangle):
        with pytest.raises(ContractError, match="not in the graph"):
            component_split(triangle, "zz")


def cycle(*nodes):
    """The edges of the directed cycle through ``nodes`` in order."""
    return [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]


class TestChains:
    """The analysis pass runs through each chain of one-in one-out nodes
    without a frame per node; these shapes make it end at every kind of
    node. Node 0 is the first tail."""

    SHAPES = {
        # r branches into a triangle and a pendant 4-cycle of chain nodes.
        "pendant cycle at node 0": (cycle("r", "a", "b") + cycle("r", "p", "q", "s"), {"r"}),
        # d hangs off a by two 2-cycles and carries the pendant x, y, z.
        "pendant cycle at a deep node": (
            cycle("r", "a", "b") + cycle("r", "a") + cycle("a", "d") + cycle("d", "a")
            + cycle("d", "x", "y", "z"),
            {"a", "d"},
        ),
        "2-cycle": (cycle("a", "b", "c") + cycle("b", "w"), {"b"}),
        # The DFS enters u from r and v from u; from v, the chain c1, c2
        # ends at r, above v's parent u.
        "chain closes above its parent": (
            cycle("r", "u", "v", "c1", "c2") + cycle("u", "x") + cycle("v", "y"),
            {"u", "v"},
        ),
        # v's out-edges all go back to r, so its chain through c starts
        # at an in-edge and runs against the edge directions.
        "chain entered by an in-edge": (
            [("r", "v"), ("v", "r"), ("v", "r"), ("c", "v"), ("r", "c")],
            set(),
        ),
        "one simple cycle": (cycle("a", "b", "c", "d", "e"), set()),
        "one 2-cycle": (cycle("a", "b"), set()),
        "chains between branching nodes": (
            cycle("r", "a", "b", "s", "c", "d") + cycle("r", "e", "s") + cycle("s", "f", "g"),
            {"s"},
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cut_nodes_and_blocks_match_the_definition(self, shape):
        edges, cuts = self.SHAPES[shape]
        g = Graph(edges)
        assert is_eulerian(g).ok
        assert articulation_points(g) == brute_force_cut_nodes(g) == cuts
        assert renumbered(edge_blocks(g)[0]) == brute_force_blocks(g)

    def test_pure_chain_component_keeps_the_witness(self):
        # A second component that is one cycle of chain nodes, then a
        # first one that is; the lowest unreached node id is the witness.
        g = Graph(cycle("a", "b", "c") + cycle("a", "d") + cycle("x", "y", "z"))
        check = is_eulerian(g)
        assert check == (
            False,
            "not-weakly-connected",
            "x",
            "node 'x' is not reachable from 'a' ignoring directions",
        )
        with pytest.raises(ContractError, match=f"^graph is not Eulerian: {check.detail}$"):
            articulation_points(g)
        g = Graph(cycle("a", "b", "c") + cycle("x", "y") + cycle("y", "z"))
        assert is_eulerian(g)[1:] == (
            "not-weakly-connected",
            "x",
            "node 'x' is not reachable from 'a' ignoring directions",
        )

    def test_blocks_match_the_definition_on_cacti(self):
        # Random cacti, with chains of every length between their joints.
        rng = random.Random(26)
        for _ in range(60):
            edges = cycle("c0", "c1")
            n = 2
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(2, 6)
                fresh = [f"c{n + x}" for x in range(k - 1)]
                edges += cycle(f"c{rng.randrange(n)}", *fresh)
                n += k - 1
            rng.shuffle(edges)
            g = Graph(edges)
            assert articulation_points(g) == brute_force_cut_nodes(g), edges
            assert renumbered(edge_blocks(g)[0]) == brute_force_blocks(g), edges
