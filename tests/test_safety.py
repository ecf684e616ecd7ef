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
    has_unique_eulerian_circuit,
    is_eulerian,
    maximal_safe_walks,
    normalize,
)
from eulersafe import safety
from eulersafe.graph import is_valid_walk
from eulersafe.oracles import (
    _possible_successors,
    brute_force_safe_walks,
    component_split,
    enumerate_eulerian_circuits,
)
from eulersafe.cli import WALK_CHUNK

from conftest import canonical_rotation


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

    def test_matches_circuit_enumeration(self, corpus_4):
        # Safe iff the pair occurs (consecutively, circularly) in every circuit.
        for g in corpus_4[::5]:
            circuits = enumerate_eulerian_circuits(g).circuits
            checker = SafePairChecker(g)
            m = g.num_edges
            for e1 in range(m):
                for e2 in range(m):
                    if e1 == e2 or g.heads[e1] != g.tails[e2]:
                        continue
                    expected = all(
                        any(
                            c.edges[i] == e1 and c.edges[(i + 1) % m] == e2
                            for i in range(m)
                        )
                        for c in circuits
                    )
                    assert checker.check(e1, e2).safe == expected, (
                        list(g.edge_pairs()),
                        e1,
                        e2,
                    )


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

    def test_matches_enumeration_on_corpus(self, corpus_4):
        for g in corpus_4:
            count = enumerate_eulerian_circuits(g, cap=2).count
            assert has_unique_eulerian_circuit(g) == (count == 1), list(
                g.edge_pairs()
            )

    def test_matches_enumeration_on_multigraphs(self):
        rng = random.Random(42)
        pool = "abc"
        checked = 0
        while checked < 200:
            base = [
                (rng.choice(pool), rng.choice(pool))
                for _ in range(rng.randint(1, 3))
            ]
            edges = base + [(h, t) for t, h in base if t != h]
            g = Graph(edges)
            if not is_eulerian(g):
                continue
            checked += 1
            ng, _ = normalize(g)
            count = enumerate_eulerian_circuits(ng, cap=2).count
            assert has_unique_eulerian_circuit(g) == (count == 1), edges


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

    def test_walks_partition_edges(self, corpus_4):
        for g in corpus_4[::3]:
            report = maximal_safe_walks(g)
            covered = sorted(e for w in report.walks for e in w)
            assert covered == list(range(g.num_edges))
            assert sum(map(len, report.walks)) == g.num_edges
            for w in report.walks:
                assert is_valid_walk(g, w)

    def test_matches_brute_force_on_corpus(self, corpus_4):
        for g in corpus_4:
            assert maximal_safe_walks(g) == brute_force_safe_walks(g), list(g.edge_pairs())

    def test_matches_brute_force_on_random_sample(self, random_sample_500):
        for g in random_sample_500[:120]:
            assert maximal_safe_walks(g) == brute_force_safe_walks(g), list(g.edge_pairs())

    def test_independent_of_circuit_choice(self, random_sample_500):
        # Every circuit, cut at every occurrence of a non-forcing node, gives
        # the maximal safe walks.
        for g in random_sample_500[:60]:
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


def ring(length: int, through: str = "h") -> list[tuple[str, str]]:
    """A directed cycle of ``length`` edges from ``through`` back to it."""
    nodes = [through] + [f"ring{i}" for i in range(1, length)]
    return [(nodes[i], nodes[(i + 1) % length]) for i in range(length)]


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


def cycling_successors(g, a, in_a):
    """A faulty successor table: 1 -> 2 -> 1, a cycle that edge 0 enters
    and never leaves."""
    succ = array("i", [-1]) * g.num_edges
    succ[0], succ[1], succ[2] = 1, 2, 1
    return succ


def test_runaway_chain_is_a_contract_error(monkeypatch, figure_eight):
    monkeypatch.setattr(safety, "_forced_successors", cycling_successors)
    with pytest.raises(ContractError, match="chain from edge 0 is longer than [|]E[|] = 6"):
        maximal_safe_walks(figure_eight)


def raw_multigraphs(count: int, seed: int):
    """Seeded Eulerian multigraphs as shuffled unions of random closed
    walks, so self-loops, parallel and antiparallel edges all occur; then
    the single node with 1 to 5 self-loops."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        edges = []
        for _ in range(rng.randint(1, 4)):
            walk = [rng.choice("abcde") for _ in range(rng.randint(1, 5))]
            edges += [(walk[i - 1], walk[i]) for i in range(len(walk))]
        rng.shuffle(edges)
        g = Graph(edges)
        if is_eulerian(g):
            found += 1
            yield g
    for d in range(1, 6):
        yield Graph([("a", "a")] * d)


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


def test_walks_are_maximal_chains_of_safe_pairs():
    """Every consecutive pair inside a walk is safe; when the circuit is
    not unique, no pair that leaves a walk's last edge is."""
    for g in raw_multigraphs(1000, seed=20261018):
        edges = list(g.edge_pairs())
        report = maximal_safe_walks(g)
        checker = SafePairChecker(g)
        for walk in report.walks:
            for e1, e2 in zip(walk, walk[1:]):
                assert checker.check(e1, e2).safe, (edges, e1, e2)
            if report.unique_circuit:
                if len(walk) > 1:
                    assert checker.check(walk[-1], walk[0]).safe, edges
                continue
            last = walk[-1]
            v = g.heads[last]
            for e2 in g.eid[g.off[v] : g.out_end[v]]:
                if e2 != last:
                    assert not checker.check(last, e2).safe, (edges, last, e2)


def test_side_0_holds_node_0(corpus_5):
    """At a loop-free forcing degree-2 node v, side 0 is the pair whose other
    ends lie in the component of g - v that holds node 0, or, when v is node
    0, the one that holds the head of its lowest-id out-edge: a numbering
    that does not depend on the analysis DFS."""
    nodes = 0
    # The de Bruijn graph has one loop-free cut node of degree 2.
    for g in [*corpus_5, *raw_multigraphs(1000, seed=7), Graph(de_bruijn_edges(2, 1000, 12))]:
        block, degrees, _ = safety._forcing(g)
        checker = SafePairChecker(g)
        for v, d in enumerate(degrees):
            sides = safety._sides(g, block, v) if d == 2 else None
            if sides is None or sides[0] == sides[1]:
                continue
            out_edges = g.eid[g.off[v] : g.out_end[v]]
            in_edges = g.eid[g.out_end[v] : g.off[v + 1]]
            component = component_split(g, g.labels[v]).component
            home = component[g.labels[g.heads[min(out_edges)] if v == 0 else 0]]
            side = {e: int(component[g.labels[g.heads[e]]] != home) for e in out_edges}
            side |= {e: int(component[g.labels[g.tails[e]]] != home) for e in in_edges}
            (out1,) = [e for e in out_edges if side[e]]
            (in1,) = [e for e in in_edges if side[e]]
            assert sides == (out1, in1), (list(g.edge_pairs()), v)
            for e1 in in_edges:
                for e2 in out_edges:
                    evidence = checker.check(e1, e2)
                    assert (evidence.component_u, evidence.component_w) == (side[e1], side[e2])
            nodes += 1
    assert nodes > 1000


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


def test_pair_verdicts_match_the_definition(corpus_5):
    """A pair (e, f) is safe exactly when f is the only successor of e that
    some circuit takes, by splicing the pair into one edge, and that f is
    then the forced successor the walks follow. This covers every
    consecutive pair, a self-loop with itself and those at nodes of degree
    3 or more included, and the safe walks of mid-sized de Bruijn graphs."""
    pairs = high = 0
    for g in [*corpus_5, *raw_multigraphs(1000, seed=11)]:
        edges = list(g.edge_pairs())
        checker = SafePairChecker(g)
        block, _, in_a = safety._forcing(g)
        forced = safety._forced_successors(g, block, in_a)
        for e in range(g.num_edges):
            possible = _possible_successors(g, e)
            assert forced[e] == (possible[0] if len(possible) == 1 else -1), (edges, e)
            v = g.heads[e]
            for f in g.eid[g.off[v] : g.out_end[v]]:
                safe = checker.check(e, f).safe
                assert safe == (possible == [f]), (edges, e, f)
                pairs += 1
                high += g.out_end[v] - g.off[v] >= 3
    assert high > 10_000
    for seed, bases, k in [(1, 500, 3), (2, 700, 4), (3, 1000, 5), (4, 1200, 6)]:
        g = Graph(de_bruijn_edges(seed, bases, k))
        assert brute_force_safe_walks(g) == maximal_safe_walks(g), (seed, bases, k)
    print(f"\n{pairs} pairs, {high} at nodes of degree >= 3: 0 divergences")
