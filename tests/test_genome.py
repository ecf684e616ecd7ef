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
import pytest

from eulersafe import (
    SafePairChecker,
    articulation_points,
    classify_nodes,
    has_unique_eulerian_circuit,
    maximal_safe_walks,
)
from families import GENOMES, K, genome


def interleaved(copies: list[tuple[int, int]]) -> set[int]:
    """The indexes of the repeats that some other repeat interleaves with."""
    found = set()
    for a, (p, q) in enumerate(copies):
        for b, (r, s) in enumerate(copies):
            if (p < r < q) != (p < s < q):
                found |= {a, b}
    return found


@pytest.mark.parametrize("seed, bases, repeats, reach", GENOMES)
def test_planted_genome_matches_the_closed_form(seed, bases, repeats, reach):
    g, text, copies, perm = genome(seed, bases, repeats, reach)
    order = sorted(range(bases), key=perm.__getitem__)
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
    for i in range(bases):
        if i not in starts:
            assert checker.check(perm[i - 1], perm[i]).reason == "degree-one"
