"""Acceptance gate: equivalence with the oracles, conservation, scaling,
and the structural properties behind the uniqueness characterization.

Each test prints one summary line; the corpus fixtures cover every simple
Eulerian digraph on up to 5 nodes plus seeded random samples.
"""
import random
import time

from eulersafe import (
    Graph,
    component_split,
    has_unique_eulerian_circuit,
    maximal_safe_walks,
    random_eulerian_edges,
)
from eulersafe.oracles import (
    brute_force_safe_walks,
    count_best,
    count_by_states,
    enumerate_eulerian_circuits,
)
from eulersafe.safety import classify_nodes


def test_uniqueness_equivalence_exhaustive(corpus_5, random_sample_500):
    """has_unique <=> exactly one enumerated circuit <=> BEST count 1."""
    start = time.time()
    graphs = corpus_5 + random_sample_500
    divergences = 0
    for g in graphs:
        fast = has_unique_eulerian_circuit(g)
        enum_unique = enumerate_eulerian_circuits(g, cap=2).count == 1
        best_unique = count_best(g).epsilon == 1
        if not (fast == enum_unique == best_unique):
            divergences += 1
    elapsed = time.time() - start
    assert divergences == 0
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 1: uniqueness equivalence on {len(graphs)} graphs, "
        f"0 divergences, {elapsed:.1f}s"
    )


def test_circuit_count_matches_enumeration(corpus_5, random_sample_500):
    """Exact circuit counts: determinant formula vs. the exhaustive state
    count."""
    total = 0
    for g in corpus_5 + random_sample_500:
        count = count_by_states(g)
        assert count_best(g).epsilon == count, list(g.edge_pairs())
        total += count
    # Formula spot checks worked out by hand.
    bidirected = Graph(
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")]
    )
    assert count_best(bidirected).epsilon == 3
    three = Graph(
        [
            ("v", "a1"), ("a1", "a2"), ("a2", "v"),
            ("v", "b1"), ("b1", "b2"), ("b2", "v"),
            ("v", "c1"), ("c1", "c2"), ("c2", "v"),
        ]
    )
    assert count_best(three).epsilon == 2
    print(
        f"\nPASS criterion 2: exact count agreement, {total} circuits counted "
        "across the corpus, spot checks 3 and 2"
    )


def test_safe_walks_match_brute_force(corpus_5, random_sample_500):
    """Linear-time maximal safe walks equal the definitional brute force."""
    graphs = corpus_5 + random_sample_500
    for g in graphs:
        assert maximal_safe_walks(g) == brute_force_safe_walks(g), list(g.edge_pairs())
    print(
        f"\nPASS criterion 3: safe-walk record equality on {len(graphs)} graphs, "
        "0 divergences"
    )


def test_conservation(corpus_5):
    """Walks always partition the edge set; total length is |E|."""
    checked = 0
    for g in corpus_5:
        report = maximal_safe_walks(g)
        assert sum(map(len, report.walks)) == g.num_edges
        assert sorted(e for w in report.walks for e in w) == list(range(g.num_edges))
        checked += 1
    rng = random.Random(20240818)
    for _ in range(1000):
        edges = random_eulerian_edges(rng.randint(2, 12), rng.randint(1, 4), seed=rng)
        g = Graph(edges)
        report = maximal_safe_walks(g)
        assert sum(map(len, report.walks)) == g.num_edges
        assert sorted(e for w in report.walks for e in w) == list(range(g.num_edges))
        checked += 1
    print(f"\nPASS criterion 4: conservation on {checked} inputs")


def _pipeline_seconds(g: Graph) -> float:
    # maximal_safe_walks on the raw multigraph spans the whole pipeline:
    # node classification (degrees, cut nodes, loops), circuit
    # construction, cutting, and the report.
    start = time.perf_counter()
    maximal_safe_walks(g)
    return time.perf_counter() - start


def test_linear_time_scaling():
    """~10x more edges must cost at most 15x wall time, under 5s total."""
    small = Graph(random_eulerian_edges(2000, 100, seed=7))
    large = Graph(random_eulerian_edges(2000, 1000, seed=7))
    # Alternate the samples, so that a burst of load from elsewhere slows
    # both sizes rather than one.
    t_small = t_large = float("inf")
    for _ in range(3):
        t_small = min(t_small, _pipeline_seconds(small))
        t_large = min(t_large, _pipeline_seconds(large))
    ratio = (t_large / t_small) / (large.num_edges / small.num_edges) * 10
    assert t_large < 5.0
    assert ratio <= 15.0
    print(
        f"\nPASS criterion 5: {small.num_edges} edges in {t_small:.3f}s, "
        f"{large.num_edges} edges in {t_large:.3f}s, "
        f"normalized 10x ratio {ratio:.1f} <= 15"
    )


def test_cut_split_property(corpus_5):
    """Removing a degree-2 cut node leaves exactly 2 components, each seeing
    one of its in-neighbors and one of its out-neighbors."""
    checked = 0
    for g in corpus_5:
        classes = classify_nodes(g)
        for label, cls in classes.items():
            if not (cls.degree == 2 and cls.is_cut):
                continue
            split = component_split(g, label)
            assert split.count == 2
            v = g.index[label]
            out_comps = sorted(
                split.component[g.labels[g.nbr[i]]] for i in range(g.off[v], g.out_end[v])
            )
            in_comps = sorted(
                split.component[g.labels[g.nbr[i]]] for i in range(g.out_end[v], g.off[v + 1])
            )
            assert out_comps == [0, 1]
            assert in_comps == [0, 1]
            checked += 1
    assert checked > 0
    print(f"\nPASS criterion 7: cut-split property on {checked} degree-2 cut nodes")
