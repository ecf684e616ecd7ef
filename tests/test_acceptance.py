"""Acceptance gate: every fast answer against the independent oracles, over
named graph families (the harness and its table are in families.py), and
linear-time scaling.

The fast answers: a node forces iff it has degree 1, or degree 2 and is a
cut node or carries a self-loop; the circuit is unique iff every node
forces; the maximal safe walks are the chains of forced successors.
"""
import time

import pytest

from eulersafe import Graph, maximal_safe_walks, random_eulerian_edges
from eulersafe.oracles import count_best
from families import COLUMNS, FAMILIES, checked


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fast_answers_match_the_oracles(family):
    for column in COLUMNS:
        checked(family, column)


def test_uniqueness_equivalence_exhaustive():
    """has_unique <=> exactly one enumerated circuit <=> state count 1 <=>
    BEST count 1."""
    for family in ("corpus-5", "simple-sample"):
        # The count column, BEST against the state count, ran on every graph.
        assert checked(family, "uniqueness")["graphs"] == checked(family, "count")["graphs"]


def test_circuit_count_matches_enumeration():
    """Exact circuit counts: determinant formula vs. the exhaustive state
    count, and two formula spot checks worked out by hand."""
    for family in ("corpus-5", "simple-sample"):
        checked(family, "count")
    bidirected = Graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")])
    assert count_best(bidirected).epsilon == 3
    three = Graph([(x, y) for p in "abc" for x, y in (("v", p + "1"), (p + "1", p + "2"), (p + "2", "v"))])
    assert count_best(three).epsilon == 2


def test_safe_walks_match_brute_force():
    """Linear-time maximal safe walks equal the definitional brute force."""
    for family in ("corpus-5", "simple-sample"):
        checked(family, "walks")


def test_conservation():
    """Walks always partition the edge set: simple graphs, generator output
    as drawn, and multigraphs."""
    for family in ("corpus-5", "generator", "raw-multigraphs"):
        checked(family, "walks")


def test_cut_split_property():
    """Removing a degree-2 cut node leaves exactly 2 components, each seeing
    one of its in-neighbors and one of its out-neighbors."""
    assert checked("corpus-5", "sides")["degree-2 cut nodes"] > 0


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
