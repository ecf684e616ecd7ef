"""Shared fixtures: named example graphs."""
from __future__ import annotations

import pytest

from eulersafe import Graph

# The harness's comparisons live in families.py; show their operands when
# one fails, as in a test module.
pytest.register_assert_rewrite("families")


def make_triangle() -> Graph:
    return Graph([("a", "b"), ("b", "c"), ("c", "a")])


def make_figure_eight() -> Graph:
    # Two directed triangles sharing the node v.
    return Graph(
        [("v", "a"), ("a", "b"), ("b", "v"), ("v", "c"), ("c", "d"), ("d", "v")]
    )


def make_bidirected_triangle() -> Graph:
    return Graph(
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a")]
    )


def make_three_triangles() -> Graph:
    # Three directed triangles sharing the node v; d(v) = 3.
    return Graph(
        [
            ("v", "a1"), ("a1", "a2"), ("a2", "v"),
            ("v", "b1"), ("b1", "b2"), ("b2", "v"),
            ("v", "c1"), ("c1", "c2"), ("c2", "v"),
        ]
    )


@pytest.fixture
def triangle() -> Graph:
    return make_triangle()


@pytest.fixture
def figure_eight() -> Graph:
    return make_figure_eight()


@pytest.fixture
def bidirected_triangle() -> Graph:
    return make_bidirected_triangle()


@pytest.fixture
def three_triangles() -> Graph:
    return make_three_triangles()
