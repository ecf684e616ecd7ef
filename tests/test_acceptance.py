"""Acceptance gate: every fast answer against the independent oracles, one
run of the differential harness per named graph family (the harness, its
families and their floors are in families.py), and linear-time scaling.

The fast answers: a node forces iff it has degree 1, or degree 2 and is a
cut node or carries a self-loop; the circuit is unique iff every node
forces; the maximal safe walks are the chains of forced successors.
"""
import time

import pytest

from eulersafe import Graph, maximal_safe_walks, random_eulerian_edges
from families import FAMILIES, checked


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fast_answers_match_the_oracles(family):
    checked(family)


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
