"""The generator's draw against a plain reference copy of it.

``generator._draw`` stops its union-find once one set holds every node.
``reference_draw`` runs the full union-find on every cycle, so the two must
give the same edges, make the same RNG calls and accept or retry the same
draws. The comparison is against this copy, not against pinned digests:
CPython does not promise that ``sample`` and ``randint`` give the same
stream across versions.
"""
import random
from array import array

import pytest

from eulersafe import generator
from eulersafe.graph import GraphError


def reference_draw(num_nodes: int, num_cycles: int, rng: random.Random) -> tuple[array, array, int]:
    """``_draw``'s edges drawn with the full union-find on every cycle, and
    the number of attempts it took."""
    for attempt in range(1, generator.MAX_ATTEMPTS + 1):
        tails = array("i")
        heads = array("i")
        parent = list(range(num_nodes))
        used = [False] * num_nodes
        for _ in range(num_cycles):
            k = rng.randint(2, num_nodes)
            nodes = rng.sample(range(num_nodes), k)
            tails.extend(nodes)
            heads.extend(nodes[1:] + nodes[:1])
            for v in nodes:
                used[v] = True
                parent[root(parent, v)] = root(parent, nodes[0])
        if len({root(parent, v) for v in range(num_nodes) if used[v]}) == 1:
            return tails, heads, attempt
    raise GraphError("no weakly connected draw")


def root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        v = parent[v]
    return v


class Scripted(random.Random):
    """Replays the given cycles: each ``randint`` returns the next cycle's
    length and the ``sample`` after it that cycle."""

    def __init__(self, cycles):
        super().__init__(0)
        self.cycles = iter(cycles)

    def randint(self, a, b):
        self.cycle = next(self.cycles)
        return len(self.cycle)

    def sample(self, population, k):
        return list(self.cycle)


def test_shared_rng_sweep_matches_the_reference():
    params = random.Random(31)
    rng = random.Random(32)
    ref_rng = random.Random(32)
    retried = 0
    for _ in range(3000):
        n, c = params.randint(2, 14), params.randint(1, 6)
        tails, heads, attempts = reference_draw(n, c, ref_rng)
        assert generator._draw(n, c, rng) == (tails, heads), (n, c)
        assert rng.random() == ref_rng.random(), (n, c)
        retried += attempts > 1
    # The sweep must take the reject path, not only first-attempt draws.
    assert retried


@pytest.mark.parametrize("num_nodes, num_cycles, seed", [(500, 240, 7), (2000, 100, 7)])
def test_int_seed_matches_the_reference(num_nodes, num_cycles, seed):
    tails, heads, _ = reference_draw(num_nodes, num_cycles, random.Random(seed))
    assert generator._draw(num_nodes, num_cycles, seed) == (tails, heads)


def test_later_disjoint_cycle_is_retried():
    # Two sets opened, then joined while nodes 4 and 5 are on no cycle;
    # the last cycle holds only those two, so the first draw has two
    # components and must be retried. The second draw is one ring.
    cycles = [[0, 1], [2, 3], [0, 2], [4, 5], [0, 1, 2, 3, 4, 5], [1, 0], [3, 2], [5, 4]]
    tails, heads, attempts = reference_draw(6, 4, Scripted(cycles))
    assert attempts == 2
    assert generator._draw(6, 4, Scripted(cycles)) == (tails, heads)
