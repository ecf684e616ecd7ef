"""Exact circuit counting over biconnected blocks, and the block labelling
it is built on, on named shapes and at their bounds. The harness's count
and blocks columns (families.py) check both against the dense BEST oracle,
the state count and the block definition on every small family."""
from array import array
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from eulersafe import ContractError, Graph, count_circuits, is_eulerian
from eulersafe.circuit import MAX_BLOCK_NODES, edge_blocks
from eulersafe.oracles import count_by_states
from families import as_graph, brute_force_blocks, renumbered


def closed_walks(max_nodes: int, max_len: int, max_walks: int):
    """Raw multigraphs as unions of closed walks: self-loops (walks of
    length 1), parallel and antiparallel edges all occur."""
    walk = st.integers(1, max_len).flatmap(
        lambda k: st.lists(st.integers(0, max_nodes - 1), min_size=k, max_size=k)
    )
    return st.lists(walk, min_size=1, max_size=max_walks).map(
        lambda walks: [(w[i], w[(i + 1) % len(w)]) for w in walks for i in range(len(w))]
    )


@pytest.mark.parametrize("d", range(1, 8))
def test_single_node_with_loops(d):
    assert count_circuits(as_graph([(0, 0)] * d)) == factorial(d - 1)


def test_series_reduction_of_a_theta_graph():
    # Three directed paths of length 3 from a to b and back: after series
    # reduction a and b remain, joined by three arcs each way.
    edges = []
    for i in range(3):
        edges += [("a", f"x{i}"), (f"x{i}", f"y{i}"), (f"y{i}", "b")]
        edges += [("b", f"p{i}"), (f"p{i}", f"q{i}"), (f"q{i}", "a")]
    g = Graph(edges)
    # t = 3 arborescences, times 2! at each of a and b.
    assert count_circuits(g) == 3 * 2 * 2
    assert count_by_states(g) == 12
    # The reduced graph itself: three parallel arcs each way, nothing to reduce.
    assert count_circuits(Graph([("a", "b"), ("b", "a")] * 3)) == 12


def test_not_eulerian_is_refused():
    with pytest.raises(ContractError, match="not Eulerian"):
        count_circuits(Graph([("a", "b"), ("b", "c")]))


def bidirected_ring(k: int, prefix: str = "v") -> list[tuple[str, str]]:
    edges = []
    for i in range(k):
        a, b = f"{prefix}{i}", f"{prefix}{(i + 1) % k}"
        edges += [(a, b), (b, a)]
    return edges


def test_block_above_bound_is_refused():
    g = Graph(bidirected_ring(MAX_BLOCK_NODES + 1))
    with pytest.raises(ContractError, match="determinant bound"):
        count_circuits(g)


def test_block_bound_is_checked_before_the_factorials(monkeypatch):
    # On a large dense input the factorial product alone took seconds, so a
    # refusal must not wait for it.
    def factorial_not_expected(n):
        raise AssertionError("factorial computed before the block bound")

    monkeypatch.setattr("eulersafe.circuit.factorial", factorial_not_expected)
    with pytest.raises(ContractError, match="determinant bound"):
        count_circuits(Graph(bidirected_ring(MAX_BLOCK_NODES + 1)))


def test_block_bound_is_checked_before_series_reduction(monkeypatch):
    # Reducing a block builds lists over all its edges: on a million-edge
    # input that tripled the memory of a refusal.
    def reduce_not_expected(g, edges):
        raise AssertionError("block reduced before the block bound")

    monkeypatch.setattr("eulersafe.circuit._series_reduce", reduce_not_expected)
    with pytest.raises(ContractError, match="1 block[(]s[)] of up to 151 nodes"):
        count_circuits(Graph(bidirected_ring(MAX_BLOCK_NODES + 1)))


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "a")] * 1000,
        bidirected_ring(40),
        [(f"k{i}", f"k{j}") for i in range(7) for j in range(7) if i != j for _ in range(3)],
        bidirected_ring(30, "a") + bidirected_ring(30, "b") + [("a0", "a0"), ("b5", "a0"), ("a0", "b5")],
    ],
    ids=["loops", "bidirected-ring", "complete-multigraph", "two-blocks-and-a-loop"],
)
def test_digit_bound_is_exact(monkeypatch, edges):
    # The size estimate, from lgamma and the determinants, names the exact
    # number of digits on these inputs: refused one digit below it,
    # counted at it.
    g = Graph(edges)
    count = count_circuits(g)
    digits = len(str(count))
    monkeypatch.setattr("eulersafe.circuit.MAX_COUNT_DIGITS", digits - 1)
    with pytest.raises(ContractError, match=f"about {digits} decimal digits"):
        count_circuits(g)
    monkeypatch.setattr("eulersafe.circuit.MAX_COUNT_DIGITS", digits)
    assert count_circuits(g) == count


def test_bound_covers_the_sum_over_blocks():
    # Each block alone fits, but together their cubic cost exceeds that of
    # one block at the bound.
    k = int(MAX_BLOCK_NODES * 0.8)
    assert 2 * k**3 > MAX_BLOCK_NODES**3
    edges = bidirected_ring(k, "a") + bidirected_ring(k, "b") + [("a0", "b0"), ("b0", "a0")]
    with pytest.raises(ContractError, match="2 block"):
        count_circuits(Graph(edges))


def test_long_cycles_need_no_determinant():
    # Far more nodes than the bound, but every block is a directed cycle.
    edges = [(f"r{i}", f"r{(i + 1) % 5000}") for i in range(5000)]
    edges += [("r0", "s1"), ("s1", "s2"), ("s2", "r0"), ("r0", "r0")]
    assert count_circuits(Graph(edges)) == factorial(2)


class TestEdgeBlocks:
    def test_figure_eight(self, figure_eight):
        block, count = edge_blocks(figure_eight)
        assert count == 2
        assert renumbered(block) == [0, 0, 0, 1, 1, 1]

    def test_loops_belong_to_no_block(self):
        g = Graph([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")])
        block, count = edge_blocks(g)
        assert count == 1
        assert block == array("i", [-1, 0, 0, -1])

    def test_single_node(self):
        g = Graph([("a", "a"), ("a", "a")])
        assert edge_blocks(g) == (array("i", [-1, -1]), 0)

    def test_disconnected_rejected(self):
        g = Graph([("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")])
        with pytest.raises(ContractError, match="node 'x' is not reachable"):
            edge_blocks(g)

    @settings(max_examples=200, deadline=None)
    @given(closed_walks(max_nodes=7, max_len=6, max_walks=5))
    def test_matches_brute_force_on_multigraphs(self, edges):
        g = as_graph(edges)
        assume(is_eulerian(g))
        block, count = edge_blocks(g)
        assert renumbered(block) == brute_force_blocks(g)
        assert count == len({b for b in block if b >= 0})
