"""Node classification, safe pairs, uniqueness, and maximal safe walks."""
import random
from array import array

import pytest

from eulersafe import (
    ContractError,
    Graph,
    SafePairChecker,
    SafetyEvidence,
    classify_nodes,
    count_best,
    count_circuits,
    has_unique_eulerian_circuit,
    maximal_safe_walks,
    normalize,
)
from eulersafe import safety
from eulersafe.oracles import brute_force_safe_walks, enumerate_eulerian_circuits
from eulersafe.cli import WALK_CHUNK

from families import canonical_rotation, cycling_successors, raw_multigraphs, ring, simple_sample


class TestClassifyNodes:
    def test_figure_eight(self, figure_eight):
        classes = classify_nodes(figure_eight)
        v = classes["v"]
        assert (v.degree, v.is_cut, v.in_a) == (2, True, True)
        a = classes["a"]
        assert (a.degree, a.is_cut, a.in_a) == (1, False, True)

    def test_three_triangles_center_excluded(self, three_triangles):
        classes = classify_nodes(three_triangles)
        assert classes["v"].degree == 3
        assert classes["v"].is_cut
        assert not classes["v"].in_a
        assert all(c.in_a for label, c in classes.items() if label != "v")

    def test_bidirected_triangle_all_excluded(self, bidirected_triangle):
        classes = classify_nodes(bidirected_triangle)
        for c in classes.values():
            assert (c.degree, c.is_cut, c.in_a) == (2, False, False)

    def test_self_loop_forces_degree_two_node(self):
        classes = classify_nodes(Graph([("a", "a"), ("a", "b"), ("b", "a")]))
        a = classes["a"]
        assert (a.degree, a.is_cut, a.in_a) == (2, False, True)
        assert classify_nodes(Graph([("a", "a")] * 2))["a"].in_a
        assert not classify_nodes(Graph([("a", "a")] * 3))["a"].in_a

    def test_flags_are_bools(self, figure_eight, three_triangles, bidirected_triangle):
        # The analysis keeps its flags in bytearrays; the records hold bools.
        loop = Graph([("a", "a"), ("a", "b"), ("b", "a")])
        for g in (figure_eight, three_triangles, bidirected_triangle, loop):
            for c in classify_nodes(g).values():
                assert type(c.is_cut) is bool and type(c.in_a) is bool, c

    def test_rejects_unbalanced(self):
        with pytest.raises(ContractError, match="not Eulerian"):
            classify_nodes(Graph([("a", "b"), ("b", "c")]))

    def test_rejects_disconnected(self):
        g = Graph(
            [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")]
        )
        with pytest.raises(ContractError, match="node 'x' is not reachable"):
            classify_nodes(g)


class TestSafePair:
    def test_degree_one(self, triangle):
        evidence = SafePairChecker(triangle).check(0, 1)
        assert evidence.safe
        assert evidence.reason == "degree-one"

    def test_cut_split(self, figure_eight):
        evidence = SafePairChecker(figure_eight).check(2, 3)
        assert evidence.safe
        assert evidence.reason == "cut-split"
        assert evidence.component_u != evidence.component_w
        # v is node 0, so side 0 is the one that holds a, the head of its
        # lowest-id out-edge.
        assert evidence == SafetyEvidence(True, "cut-split", 0, 1)

    def test_same_side_of_cut(self, figure_eight):
        evidence = SafePairChecker(figure_eight).check(2, 0)
        assert not evidence.safe
        assert evidence.reason == "not-in-any-circuit"
        assert evidence.component_u == evidence.component_w

    def test_degree_too_high(self, three_triangles):
        evidence = SafePairChecker(three_triangles).check(2, 3)
        assert not evidence.safe
        assert evidence.reason == "degree-too-high"

    def test_degree_two_non_cut(self, bidirected_triangle):
        evidence = SafePairChecker(bidirected_triangle).check(0, 2)
        assert not evidence.safe
        assert evidence.reason == "not-forced"

    def test_self_loop_is_its_own_side(self):
        # Edges: 0 = a->a, 1 = a->b, 2 = b->a; every circuit is 0 1 2.
        checker = SafePairChecker(Graph([("a", "a"), ("a", "b"), ("b", "a")]))
        assert checker.check(2, 0) == SafetyEvidence(True, "cut-split", 0, 1)
        assert checker.check(0, 1) == SafetyEvidence(True, "cut-split", 1, 0)
        assert checker.check(2, 1) == SafetyEvidence(False, "not-in-any-circuit", 0, 0)
        two_loops = SafePairChecker(Graph([("a", "a")] * 2))
        assert two_loops.check(0, 1) == SafetyEvidence(True, "cut-split", 0, 1)
        # A loop is consecutive with itself; only a lone loop repeats.
        assert checker.check(0, 0) == SafetyEvidence(False, "not-in-any-circuit", 1, 1)
        assert two_loops.check(0, 0) == SafetyEvidence(False, "not-in-any-circuit", 0, 0)
        assert two_loops.check(1, 1) == SafetyEvidence(False, "not-in-any-circuit", 1, 1)
        one_loop = SafePairChecker(Graph([("a", "a")]))
        assert one_loop.check(0, 0) == SafetyEvidence(True, "degree-one")
        three_loops = SafePairChecker(Graph([("a", "a")] * 3))
        assert three_loops.check(1, 1) == SafetyEvidence(False, "degree-too-high")

    def test_edges_missing(self, triangle):
        evidence = SafePairChecker(triangle).check(0, 9)
        assert not evidence.safe
        assert evidence.reason == "edges-missing"

    def test_contract_violations(self, triangle):
        with pytest.raises(ContractError, match="not consecutive"):
            SafePairChecker(triangle).check(1, 1)
        with pytest.raises(ContractError, match="not consecutive"):
            SafePairChecker(triangle).check(0, 2)

    def test_checker_batches_queries(self, figure_eight):
        checker = SafePairChecker(figure_eight)
        assert checker.check(2, 3).safe
        assert checker.check(5, 0).safe
        assert not checker.check(5, 3).safe


class TestUniqueness:
    def test_examples(self, triangle, figure_eight, bidirected_triangle, three_triangles):
        assert has_unique_eulerian_circuit(triangle)
        assert has_unique_eulerian_circuit(figure_eight)
        assert not has_unique_eulerian_circuit(bidirected_triangle)
        assert not has_unique_eulerian_circuit(three_triangles)

    def test_parallel_pair_never_unique(self):
        assert not has_unique_eulerian_circuit(
            Graph([("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        )

    def test_self_loops(self):
        assert has_unique_eulerian_circuit(Graph([("a", "a")]))
        assert has_unique_eulerian_circuit(Graph([("a", "a"), ("a", "a")]))
        assert has_unique_eulerian_circuit(
            Graph([("a", "a"), ("a", "b"), ("b", "a")])
        )
        # Loop at a degree-3 node rules uniqueness out.
        assert not has_unique_eulerian_circuit(
            Graph(
                [("a", "a"), ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")]
            )
        )

    def test_rejects_non_eulerian(self):
        with pytest.raises(ContractError, match="not Eulerian"):
            has_unique_eulerian_circuit(Graph([("a", "b")]))


class TestMaximalSafeWalks:
    def test_figure_eight_whole_circuit(self, figure_eight):
        report = maximal_safe_walks(figure_eight)
        assert report.unique_circuit
        assert report.walks == ((0, 1, 2, 3, 4, 5),)
        assert sum(map(len, report.walks)) == 6

    def test_three_triangles_cut_at_center(self, three_triangles):
        report = maximal_safe_walks(three_triangles)
        assert not report.unique_circuit
        assert report.walks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert sum(map(len, report.walks)) == 9

    def test_bidirected_triangle_single_edges(self, bidirected_triangle):
        report = maximal_safe_walks(bidirected_triangle)
        assert sorted(report.walks) == [(e,) for e in range(6)]
        assert sum(map(len, report.walks)) == 6

    def test_independent_of_circuit_choice(self):
        # Every circuit, cut at every occurrence of a non-forcing node, gives
        # the maximal safe walks.
        for g in simple_sample()[:60]:
            classes = classify_nodes(g)
            cut_at = {g.index[label] for label, c in classes.items() if not c.in_a}
            expected = list(maximal_safe_walks(g).walks)
            for circuit in enumerate_eulerian_circuits(g).circuits:
                edges = circuit.edges
                starts = [i for i, e in enumerate(edges) if g.tails[e] in cut_at]
                if not starts:
                    assert expected == [canonical_rotation(edges)]
                    continue
                edges = edges[starts[0]:] + edges[: starts[0]]
                starts = [i - starts[0] for i in starts] + [len(edges)]
                walks = [edges[i:j] for i, j in zip(starts, starts[1:])]
                assert sorted(walks) == expected, list(g.edge_pairs())

    def test_multigraph_projection(self):
        g = Graph([("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
        ng, nm = normalize(g)
        report = maximal_safe_walks(ng, norm_map=nm)
        assert sorted(report.walks) == [(0,), (1,), (2,), (3,)]
        assert sum(map(len, report.walks)) == 4
        assert not report.unique_circuit

    def test_unique_multigraph_projection(self):
        g = Graph([("a", "a"), ("a", "b"), ("b", "a")])
        ng, nm = normalize(g)
        report = maximal_safe_walks(ng, norm_map=nm)
        assert report.unique_circuit
        assert len(report.walks) == 1
        assert sorted(report.walks[0]) == [0, 1, 2]
        assert sum(map(len, report.walks)) == 3


@pytest.mark.parametrize(
    "length", [WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, 2 * WALK_CHUNK + 1, 3 * WALK_CHUNK]
)
class TestLongWalks:
    """Every walk is followed into one ``array("i")``, and `safe` writes one
    past WALK_CHUNK edges in pieces; it must come out whole and in order at
    every chunk boundary."""

    def test_unique_ring(self, length):
        report = maximal_safe_walks(Graph(ring(length)))
        assert report.unique_circuit
        assert report.walks == (tuple(range(length)),)

    def test_ring_through_a_hub(self, length):
        # h gets degree 3, so the ring is one walk between two short ones.
        g = Graph([("h", "a"), ("a", "h")] + ring(length) + [("h", "b"), ("b", "h")])
        report = maximal_safe_walks(g)
        assert not report.unique_circuit
        assert report.walks == ((0, 1), tuple(range(2, length + 2)), (length + 2, length + 3))
        assert sum(map(len, report.walks)) == g.num_edges

    def test_walk_is_an_int_array(self, length):
        # 4 bytes per edge at every length, never a list: the unique ring,
        # then the ring between two short walks through a degree-3 hub.
        hub = [("h", "a"), ("a", "h")] + ring(length) + [("h", "b"), ("b", "h")]
        for g, ring_walk in ((Graph(ring(length)), 0), (Graph(hub), 1)):
            _, _, succ, starts = safety._safe_walks(g)
            walks = [safety._walk(succ, first) for first in starts]
            assert all(type(walk) is array and walk.typecode == "i" for walk in walks)
            assert walks[ring_walk] == array("i", range(2 * ring_walk, 2 * ring_walk + length))


def test_runaway_chain_is_a_contract_error(monkeypatch, figure_eight):
    monkeypatch.setattr(safety, "_successors", cycling_successors)
    with pytest.raises(ContractError, match="chain from edge 0 is longer than [|]E[|] = 6"):
        maximal_safe_walks(figure_eight)


def test_raw_multigraphs_match_normalized_pipeline():
    """On raw multigraphs every answer equals the one obtained by first
    rewriting loops and parallel edges into two-edge paths."""
    graphs = pairs = 0
    for g in raw_multigraphs(1000, seed=20261017):
        ng, nm = normalize(g)
        edges = list(g.edge_pairs())
        report = maximal_safe_walks(g)
        assert report == maximal_safe_walks(ng, norm_map=nm), edges
        assert report == brute_force_safe_walks(g), edges
        assert has_unique_eulerian_circuit(g) == report.unique_circuit
        assert has_unique_eulerian_circuit(g) == has_unique_eulerian_circuit(ng), edges
        assert count_best(ng).epsilon == count_circuits(g), edges
        classes = classify_nodes(g)
        normalized_classes = classify_nodes(ng)
        for label, c in classes.items():
            assert c.in_a == normalized_classes[label].in_a, (edges, label)
        # An original edge enters its head through its last normalized
        # piece and leaves its tail through its first.
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for k, e in enumerate(nm.origin):
            first.setdefault(e, k)
            last[e] = k
        checker = SafePairChecker(g)
        normalized_checker = SafePairChecker(ng)
        for e1 in range(g.num_edges):
            v = g.heads[e1]
            for e2 in g.eid[g.off[v] : g.out_end[v]]:
                if e1 == e2:
                    continue
                native = checker.check(e1, e2)
                expected = normalized_checker.check(last[e1], first[e2])
                assert (native.safe, native.reason) == (expected.safe, expected.reason), (
                    edges, e1, e2,
                )
                pairs += 1
        graphs += 1
    assert graphs == 1005
    print(f"\n{graphs} raw multigraphs, {pairs} consecutive pairs: 0 divergences")


def de_bruijn_edges(seed: int, bases: int = 100_000, k: int = 12) -> list[tuple[str, str]]:
    """The k-mers of a circular ACGT genome as edges between (k-1)-mers,
    edge i the k-mer at position i, so the genome order is one Eulerian
    circuit. About a hundred copied segments of 20 to 400 bases give long
    repeats besides the short ones that chance gives."""
    rng = random.Random(seed)
    genome = rng.choices("ACGT", k=bases)
    for _ in range(100):
        length = rng.randint(20, 400)
        source = rng.randrange(bases - length)
        target = rng.randrange(bases - length)
        genome[target : target + length] = genome[source : source + length]
    text = "".join(genome)
    text += text[: k - 1]
    return [(text[i : i + k - 1], text[i + 1 : i + k]) for i in range(bases)]


def test_de_bruijn_genome():
    """On a genome-sized de Bruijn graph the walks follow the genome, and a
    pair of consecutive genome edges is safe exactly inside a walk."""
    g = Graph(de_bruijn_edges(seed=7))
    m = g.num_edges
    report = maximal_safe_walks(g)
    assert not report.unique_circuit
    assert sorted(e for walk in report.walks for e in walk) == list(range(m))
    last = set()
    for walk in report.walks:
        assert all(f == (e + 1) % m for e, f in zip(walk, walk[1:])), walk[0]
        last.add(walk[-1])
    classes = classify_nodes(g)
    loops = {t for t, h in g.edge_pairs() if t == h}
    assert any(
        c.degree == 2 and not c.is_cut and label not in loops for label, c in classes.items()
    )
    checker = SafePairChecker(g)
    for e in range(m):
        assert checker.check(e, (e + 1) % m).safe == (e not in last), e
