"""The ground-truth oracles, checked against each other and by hand."""
import random
import sys
import time
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest

from eulersafe import (
    ContractError,
    Graph,
    count_circuits,
    has_unique_eulerian_circuit,
)
from eulersafe import graph, oracles
from eulersafe.circuit import verify_circuit
from eulersafe.oracles import (
    _bareiss_determinant,
    brute_force_safe_walks,
    component_split,
    count_arborescences,
    count_best,
    count_by_states,
    enumerate_eulerian_circuits,
    pevzner_intersection_graph,
)
from families import canonical_rotation, corpus, ring

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import make_cactus  # noqa: E402


@pytest.mark.parametrize("fixture", ["bidirected_triangle", "three_triangles"])
def test_oracles_run_without_the_analysis_pass(request, monkeypatch, fixture):
    """No oracle reaches the production analysis pass: each answers the
    same with it made to raise."""
    g = request.getfixturevalue(fixture)
    runs = [
        count_by_states,
        enumerate_eulerian_circuits,
        count_best,
        brute_force_safe_walks,
        pevzner_intersection_graph,
        lambda g: component_split(g, g.labels[0]),
    ]
    expected = [run(g) for run in runs]

    def refuse(g):
        raise AssertionError("the analysis pass ran")

    monkeypatch.setattr(graph, "_analyse", refuse)
    assert [run(g) for run in runs] == expected


class TestEnumeration:
    def test_triangle_single_circuit(self, triangle):
        result = enumerate_eulerian_circuits(triangle)
        assert result.count == 1
        assert not result.overflow
        assert result.circuits[0].edges == (0, 1, 2)

    def test_bidirected_triangle(self, bidirected_triangle):
        result = enumerate_eulerian_circuits(bidirected_triangle)
        assert result.count == 3
        for c in result.circuits:
            assert verify_circuit(bidirected_triangle, c)
            assert c.edges[0] == 0

    def test_three_triangles(self, three_triangles):
        result = enumerate_eulerian_circuits(three_triangles)
        assert {c.edges for c in result.circuits} == {
            (0, 1, 2, 3, 4, 5, 6, 7, 8),
            (0, 1, 2, 6, 7, 8, 3, 4, 5),
        }

    def test_rotation_classes_are_distinct(self):
        for g in corpus(4)[::11]:
            result = enumerate_eulerian_circuits(g)
            canon = {canonical_rotation(c.edges) for c in result.circuits}
            assert len(canon) == result.count

    def test_cap_semantics(self, bidirected_triangle):
        capped = enumerate_eulerian_circuits(bidirected_triangle, cap=2)
        assert capped.count == 2
        assert capped.overflow
        exact = enumerate_eulerian_circuits(bidirected_triangle, cap=3)
        assert exact.count == 3
        assert not exact.overflow

    def test_count_without_storing(self, bidirected_triangle, three_triangles):
        assert count_by_states(bidirected_triangle) == 3
        assert count_by_states(three_triangles) == 2

    def test_rejects_non_eulerian(self):
        with pytest.raises(ContractError):
            enumerate_eulerian_circuits(Graph([("a", "b")]))

    def test_no_dead_ends_on_a_cactus(self):
        # 165 edges and 16 circuits. Backtracking that takes any unused
        # out-edge spent 17 s in dead ends here; pruned, every branch
        # ends in a circuit.
        g = Graph(make_cactus(random.Random(7), 140, 2, 12, True).edges)
        assert g.num_edges == 165
        start = time.perf_counter()
        result = enumerate_eulerian_circuits(g)
        elapsed = time.perf_counter() - start
        assert result.count == count_circuits(g) == 16
        assert elapsed < 1.0


# (graph, cap, enumeration (count, overflow), the same pair as the state
# count implies it). Each cap stops the search at circuit cap + 1, so cap 0
# overflows even on a unique circuit.
CAP_TABLE = [
    ("triangle", None, (1, False), (1, False)),
    ("triangle", 0, (0, True), (0, True)),
    ("triangle", 1, (1, False), (1, False)),
    ("triangle", 2, (1, False), (1, False)),
    ("triangle", 3, (1, False), (1, False)),
    ("bidirected_triangle", None, (3, False), (3, False)),
    ("bidirected_triangle", 0, (0, True), (0, True)),
    ("bidirected_triangle", 1, (1, True), (1, True)),
    ("bidirected_triangle", 2, (2, True), (2, True)),
    ("bidirected_triangle", 3, (3, False), (3, False)),
    ("three_triangles", None, (2, False), (2, False)),
    ("three_triangles", 0, (0, True), (0, True)),
    ("three_triangles", 1, (1, True), (1, True)),
    ("three_triangles", 2, (2, False), (2, False)),
    ("three_triangles", 3, (2, False), (2, False)),
]


class TestCaps:
    @pytest.mark.parametrize("name, cap, enumerated, counted", CAP_TABLE)
    def test_cap_table(self, request, name, cap, enumerated, counted):
        g = request.getfixturevalue(name)
        result = enumerate_eulerian_circuits(g, cap=cap)
        assert (result.count, result.overflow) == enumerated
        exact = count_by_states(g)
        if cap is not None and exact > cap:
            assert (cap, True) == counted
        else:
            assert (exact, False) == counted

    @pytest.mark.parametrize("oracle", [enumerate_eulerian_circuits])
    @pytest.mark.parametrize("cap", [-1, -2])
    def test_negative_cap_refused(self, bidirected_triangle, oracle, cap):
        with pytest.raises(ContractError, match="cap must be at least 0"):
            oracle(bidirected_triangle, cap=cap)


def naive_determinant(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * naive_determinant(minor)
    return total


def brute_force_arborescences(g: Graph, root: str) -> int:
    """Count edge subsets of size n-1 where every non-root node has exactly
    one outgoing edge and can reach the root."""
    n = g.num_nodes
    r = g.index[root]
    count = 0
    for subset in combinations(range(g.num_edges), n - 1):
        out = [-1] * n
        ok = True
        for e in subset:
            t = g.tails[e]
            if t == r or out[t] != -1:
                ok = False
                break
            out[t] = g.heads[e]
        if not ok or any(out[v] == -1 for v in range(n) if v != r):
            continue
        for v in range(n):
            if v == r:
                continue
            cur = v
            for _ in range(n):
                cur = out[cur]
                if cur == r:
                    break
            else:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestArborescences:
    def test_examples(self, triangle, bidirected_triangle, figure_eight):
        # Toward node 0: a, a and v.
        assert count_arborescences(triangle) == 1
        assert count_arborescences(bidirected_triangle) == 3
        assert count_arborescences(figure_eight) == 1

    def test_matches_subset_enumeration(self):
        for g in corpus(4)[::7]:
            assert count_arborescences(g) == brute_force_arborescences(
                g, g.labels[0]
            ), list(g.edge_pairs())

    def test_root_independent_on_eulerian_graphs(self):
        # Rotating the edge list to start at an out-edge of a label makes
        # that label node 0, so every label in turn is the root.
        for g in corpus(4)[::13]:
            edges = list(g.edge_pairs())
            counts = set()
            for label in g.labels:
                e = g.tails.index(g.index[label])
                rotated = Graph(edges[e:] + edges[:e])
                assert rotated.labels[0] == label
                counts.add(count_arborescences(rotated))
            assert len(counts) == 1, edges

    def test_bareiss_matches_cofactor_expansion(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            expected = naive_determinant([row[:] for row in a])
            assert _bareiss_determinant([row[:] for row in a]) == expected

    def test_bareiss_singular_and_pivoting(self):
        assert _bareiss_determinant([[0, 1], [0, 2]]) == 0
        assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert _bareiss_determinant([]) == 1


class TestCircuitCounting:
    def test_examples(self, triangle, figure_eight, bidirected_triangle, three_triangles):
        assert count_best(triangle).epsilon == 1
        assert count_best(figure_eight).epsilon == 1
        report = count_best(bidirected_triangle)
        assert (report.epsilon, report.t, report.degree_factorial_product) == (3, 3, 1)
        report = count_best(three_triangles)
        assert (report.epsilon, report.t, report.degree_factorial_product) == (2, 1, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_loops_at_one_node(self, d):
        report = count_best(Graph([("a", "a")] * d))
        assert (report.epsilon, report.t, report.degree_factorial_product) == (
            factorial(d - 1),
            1,
            factorial(d - 1),
        )

    def test_rejects_non_eulerian(self):
        with pytest.raises(ContractError, match="not Eulerian"):
            count_best(Graph([("a", "b")]))


class TestStateCount:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 14])
    def test_loops_at_one_node(self, d):
        assert count_by_states(Graph([("a", "a")] * d)) == factorial(d - 1)

    def test_long_ring(self):
        # Deeper than the interpreter's recursion limit: the stack is explicit.
        assert count_by_states(Graph(ring(1500))) == 1

    def test_pruned_cactus(self):
        # Without Fleury's rule the memo reaches millions of states here.
        g = Graph(make_cactus(random.Random(7), 140, 2, 12, True).edges)
        start = time.perf_counter()
        assert count_by_states(g) == 16
        assert time.perf_counter() - start < 1.0

    def test_refused_past_the_bound(self, monkeypatch, figure_eight):
        monkeypatch.setattr(oracles, "MAX_STATE_WORK", 100)
        message = "^state count refused: more than 100 units of work$"
        with pytest.raises(ContractError, match=message):
            count_by_states(figure_eight)

    def test_rejects_non_eulerian(self):
        with pytest.raises(ContractError, match="not Eulerian"):
            count_by_states(Graph([("a", "b")]))


class TestBruteForceSafeWalks:
    def test_unique_circuit_reported_whole(self, figure_eight):
        report = brute_force_safe_walks(figure_eight)
        assert report.unique_circuit
        assert report.walks == ((0, 1, 2, 3, 4, 5),)

    def test_three_triangles(self, three_triangles):
        report = brute_force_safe_walks(three_triangles)
        assert not report.unique_circuit
        assert sorted(report.walks) == [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        assert sum(map(len, report.walks)) == 9

    def test_bidirected_triangle(self, bidirected_triangle):
        report = brute_force_safe_walks(bidirected_triangle)
        assert sorted(report.walks) == [(e,) for e in range(6)]


class TestIntersectionGraph:
    def test_single_cycle(self, triangle):
        gi = pevzner_intersection_graph(triangle)
        assert gi.cycles == (("a", "b", "c", "a"),)
        assert gi.cycle_edges == ((0, 1, 2),)
        assert gi.edges == ()
        assert gi.is_tree

    def test_figure_eight_is_tree(self, figure_eight):
        gi = pevzner_intersection_graph(figure_eight)
        assert len(gi.cycles) == 2
        assert gi.edges == ((0, 1, "v"),)
        assert gi.is_tree

    def test_three_triangles_triple_point(self, three_triangles):
        gi = pevzner_intersection_graph(three_triangles)
        assert len(gi.cycles) == 3
        # Three cycles pairwise sharing v: one multiedge per pair.
        assert sorted((i, j) for i, j, _ in gi.edges) == [(0, 1), (0, 2), (1, 2)]
        assert not gi.is_tree

    def test_bidirected_triangle_cycle_of_cycles(self, bidirected_triangle):
        gi = pevzner_intersection_graph(bidirected_triangle)
        assert len(gi.cycles) == 3
        assert len(gi.edges) == 3
        assert not gi.is_tree

    def test_cycle_edges_partition(self):
        for g in corpus(4)[::9]:
            gi = pevzner_intersection_graph(g)
            covered = sorted(e for cyc in gi.cycle_edges for e in cyc)
            assert covered == list(range(g.num_edges))
            for nodes, edges in zip(gi.cycles, gi.cycle_edges):
                assert nodes[0] == nodes[-1]
                assert len(nodes) == len(edges) + 1
                assert len(set(nodes[:-1])) == len(edges)

    def test_parallel_pair_cycles_meet_twice(self):
        gi = pevzner_intersection_graph(
            Graph([("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        )
        assert gi.cycle_edges == ((0, 2), (1, 3))
        assert sorted(gi.edges) == [(0, 1, "a"), (0, 1, "b")]
        assert not gi.is_tree

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_loops_at_one_node(self, d):
        # d loops pairwise share their node: a tree up to two loops, as
        # (d - 1)! circuits are unique only up to d = 2.
        g = Graph([("a", "a")] * d)
        gi = pevzner_intersection_graph(g)
        assert gi.cycles == (("a", "a"),) * d
        assert gi.is_tree == (d <= 2) == has_unique_eulerian_circuit(g)
