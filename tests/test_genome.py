"""Planted-repeat genomes, whose answers are known by construction.

A circular random genome over ACGT gives a de Bruijn graph with k = 20:
nodes are its 19-mers, edge i is the 20-mer at position i, and the genome
order is one Eulerian circuit. With 19-mers this long, only planted repeats
recur. Each is planted twice, with different bases on both flanks, so that
it is a degree-2 node and every other node has degree 1. Most nodes then
lie on long chains of degree-1 nodes that meet at the repeats.

Two repeats interleave when each arc that one's copies bound holds one copy
of the other. A repeat is a cut node iff no other repeat interleaves with it
(the picture behind Ukkonen's conjecture, which Pevzner proved). So the
circuit is unique iff no two repeats interleave, and the maximal safe walks
are the genome cut at every copy of an interleaved repeat. Edge ids are
shuffled so that node 0 and the side numbering fall anywhere.
"""
import random

import pytest

from eulersafe import (
    Graph,
    SafePairChecker,
    articulation_points,
    classify_nodes,
    has_unique_eulerian_circuit,
    maximal_safe_walks,
)

K = 20


def planted_genome(
    rng: random.Random, bases: int, repeats: int, reach: int
) -> tuple[str, list[tuple[int, int]]]:
    """A circular genome of ``bases`` bases and the two start positions of
    each planted (K-1)-mer, at most ``reach`` bases apart, with at least
    two free bases between copies."""
    while True:
        genome = rng.choices("ACGT", k=bases)
        taken = set()
        copies = []
        while len(copies) < repeats:
            # No copy or flank wraps around the end of the text.
            p = rng.randrange(2, bases - 2 * K - 4)
            q = rng.randrange(p + K + 3, min(p + reach, bases - K - 1))
            span = {x for s in (p, q) for x in range(s - 2, s + K + 1)}
            if p + bases - q < K + 3 or span & taken:
                continue
            taken |= span
            repeat = rng.choices("ACGT", k=K - 1)
            for s in (p, q):
                genome[s : s + K - 1] = repeat
            # Different bases on both flanks: two in-edges and two out-edges.
            for before, after in ((p - 1, q - 1), (p + K - 1, q + K - 1)):
                if genome[before] == genome[after]:
                    genome[after] = "ACGT"["ACGT".index(genome[before]) - 1]
            copies.append((p, q))
        text = "".join(genome)
        text += text[: K - 1]
        nodes = [text[i : i + K - 1] for i in range(bases)]
        # Chance repeats are astronomically rare at this length; redraw if any.
        if len(set(nodes)) == bases - repeats:
            return text, copies


def interleaved(copies: list[tuple[int, int]]) -> set[int]:
    """The indexes of the repeats that some other repeat interleaves with."""
    found = set()
    for a, (p, q) in enumerate(copies):
        for b, (r, s) in enumerate(copies):
            if (p < r < q) != (p < s < q):
                found |= {a, b}
    return found


# Short reaches nest or separate most repeats (cut nodes); long ones cross
# most of them. Seed 3 is unique with six cut nodes.
@pytest.mark.parametrize(
    "seed, bases, repeats, reach",
    [
        (1, 3000, 0, 3000),
        (2, 3000, 1, 3000),
        (3, 4000, 6, 400),
        (4, 4000, 6, 4000),
        (5, 5000, 12, 300),
        (6, 5000, 12, 1500),
        (7, 6000, 25, 6000),
        (8, 6000, 25, 300),
    ],
)
def test_planted_genome_matches_the_closed_form(seed, bases, repeats, reach):
    rng = random.Random(seed)
    text, copies = planted_genome(rng, bases, repeats, reach)
    perm = list(range(bases))
    rng.shuffle(perm)  # genome edge i gets edge id perm[i]
    order = sorted(range(bases), key=perm.__getitem__)
    g = Graph([(text[i : i + K - 1], text[i + 1 : i + K]) for i in order])
    assert g.num_nodes == bases - repeats

    crossed = interleaved(copies)
    cut_labels = {text[p : p + K - 1] for a, (p, _) in enumerate(copies) if a not in crossed}
    assert articulation_points(g) == cut_labels
    classes = classify_nodes(g)
    assert {label for label, c in classes.items() if c.is_cut} == cut_labels
    assert {label for label, c in classes.items() if not c.in_a} == {
        text[copies[a][0] : copies[a][0] + K - 1] for a in crossed
    }

    # A walk runs from each copy of an interleaved repeat to the next one.
    report = maximal_safe_walks(g)
    ends = sorted(s for a in crossed for s in copies[a])
    if ends:
        walks = [
            tuple(perm[x % bases] for x in range(p, q))
            for p, q in zip(ends, [*ends[1:], ends[0] + bases])
        ]
        walks.sort()
    else:
        first = order[0]
        walks = [tuple(perm[(first + x) % bases] for x in range(bases))]
    assert report.walks == tuple(walks)
    assert report.unique_circuit == has_unique_eulerian_circuit(g) == (not crossed)

    # The genome takes (p - 1, p) and (q - 1, q) at the repeat with copies
    # at p and q: safe iff it is a cut node. There, the other two pairs
    # stay on one arc and lie in no circuit.
    checker = SafePairChecker(g)
    for a, (p, q) in enumerate(copies):
        pairs = [(p - 1, p, True), (q - 1, q, True), (p - 1, q, False), (q - 1, p, False)]
        for e1, e2, along in pairs:
            evidence = checker.check(perm[e1], perm[e2])
            if a in crossed:
                assert evidence[:2] == (False, "not-forced")
            elif along:
                assert evidence[:2] == (True, "cut-split")
                assert evidence.component_u != evidence.component_w
            else:
                assert evidence[:2] == (False, "not-in-any-circuit")
                assert evidence.component_u == evidence.component_w
    starts = {s for pair in copies for s in pair}
    for i in rng.sample(range(bases), 50):
        if i not in starts:
            assert checker.check(perm[i - 1], perm[i]).reason == "degree-one"
