"""Tests of the benchmark itself: generators, closed forms, failure counting.

Run from the repository root: python3 -m pytest -q bench
"""
from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import eulersafe  # noqa: E402
import verify  # noqa: E402
import workloads as w  # noqa: E402
from eulersafe import cli, count_best, enumerate_eulerian_circuits, normalize, Graph  # noqa: E402
from layers import Tracer  # noqa: E402

INSTANCES = 200


def circuits_over_original_ids(edges):
    """Every Eulerian circuit of ``edges`` as a tuple of original edge ids,
    parallel edges told apart, by exhaustive enumeration."""
    ng, nm = normalize(Graph(edges))
    found = enumerate_eulerian_circuits(ng, cap=ENUMERATION_LIMIT)
    assert not found.overflow
    return [nm.project(c.edges, circular=True) for c in found.circuits]


def forced_pairs(circuits):
    """Consecutive edge pairs that occur in every circuit."""
    common = None
    for c in circuits:
        pairs = {(c[i - 1], c[i]) for i in range(len(c))}
        common = pairs if common is None else common & pairs
    return common


def assert_closed_forms(edges, unique, walks, count, pairs=()):
    circuits = circuits_over_original_ids(edges)
    assert len(circuits) == count
    assert count_best(normalize(Graph(edges))[0]).epsilon == count
    assert (len(circuits) == 1) == unique
    forced = forced_pairs(circuits)
    # Every unforced transition of a circuit starts a new maximal safe walk.
    assert (len(edges) - len(forced) or 1) == walks
    for p in pairs:
        assert ((p.e1, p.e2) in forced) == p.safe
        if p.reason == "not-in-any-circuit":
            assert not any((p.e1, p.e2) in {(c[i - 1], c[i]) for i in range(len(c))} for c in circuits)


ENUMERATION_LIMIT = 5000


def small_dense(rng):
    """A small superposition of random cycles with minimum degree 3 and at
    most ENUMERATION_LIMIT circuits."""
    while True:
        edges = eulersafe.random_eulerian_edges(rng.randint(3, 4), rng.randint(3, 5), seed=rng)
        degrees = Counter(t for t, _ in edges)
        if len(edges) <= 12 and min(degrees.values()) >= 3:
            count = count_best(normalize(Graph(edges))[0]).epsilon
            if count <= ENUMERATION_LIMIT:
                return edges, degrees, count


def test_dense_closed_form_matches_oracles():
    rng = random.Random(1)
    for _ in range(INSTANCES):
        edges, degrees, count = small_dense(rng)
        unique, walks = w.walks_closed_form(degrees)
        assert not unique and walks == len(edges)
        pairs = w.dense_pairs(rng, edges, q=2)
        assert_closed_forms(edges, unique, walks, count, pairs)


def test_complete_multigraph_count_matches_oracles():
    rng = random.Random(2)
    # Small enough to enumerate: at most 2592 circuits.
    shapes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
    for i in range(INSTANCES):
        n, k = shapes[i % len(shapes)]
        edges = w.complete_multigraph(rng, n, k)
        expected = w.complete_multigraph_count(n, k)
        assert len(circuits_over_original_ids(edges)) == expected
    for n, k in [(5, 1), (5, 3), (7, 2), (w.COMPLETE_N, w.COMPLETE_K)]:
        edges = w.complete_multigraph(rng, n, k)
        assert count_best(normalize(Graph(edges))[0]).epsilon == w.complete_multigraph_count(n, k)


@pytest.mark.parametrize(
    "min_len, max_len, any_node, seed",
    [(3, 6, False, 3), (2, 4, True, 4)],
    ids=["cactus_long", "count_cactus"],
)
def test_cactus_closed_forms_match_oracles(min_len, max_len, any_node, seed):
    rng = random.Random(seed)
    for _ in range(INSTANCES):
        c = w.make_cactus(rng, rng.randint(4, 10), min_len, max_len, any_node)
        degrees = Counter(t for t, _ in c.edges)
        unique, walks = w.walks_closed_form(degrees)
        shared = sum(1 for d in degrees.values() if d == 2)
        pairs = w.cactus_pairs(rng, c, q=min(2, shared)) if shared else ()
        assert_closed_forms(c.edges, unique, walks, w.cactus_count(degrees), pairs)


def test_cactus_precondition_is_enforced():
    c = w.make_cactus(random.Random(5), 20, 3, 5, any_node=False)
    w.assert_cactus(c, max_degree=2)
    # Two cycles through the same pair of nodes: not a cactus.
    bad = w.Cactus(c.edges + [("x", "y"), ("y", "x"), ("x", "z"), ("z", "y"), ("y", "w"), ("w", "x")],
                   c.cycles + [["x", "y"], ["x", "z", "y", "w"]])
    with pytest.raises(AssertionError):
        w.assert_cactus(bad, max_degree=None)


@pytest.mark.parametrize("name", sorted(w.SHAPES))
def test_generators_are_deterministic(name):
    a, b, other = w.SHAPES[name](11), w.SHAPES[name](11), w.SHAPES[name](12)
    assert a == b
    assert a.edges != other.edges


def cli_output(tmp_path, capsys, edges, *args):
    path = tmp_path / "g.txt"
    path.write_text(w.text_of(edges))
    code = cli.main([args[0], str(path), *args[1:]])
    return code, capsys.readouterr().out


@pytest.fixture
def cactus_instance():
    rng = random.Random(6)
    c = w.make_cactus(rng, 40, 2, 5, any_node=True)
    degrees = Counter(t for t, _ in c.edges)
    unique, walks = w.walks_closed_form(degrees)
    assert not unique
    return w.Instance(c.edges, c.edges, unique, walks, w.cactus_count(degrees), w.cactus_pairs(rng, c, 2))


def test_correct_outputs_pass(tmp_path, capsys, cactus_instance):
    inst = cactus_instance
    assert verify.check_safe_text(*cli_output(tmp_path, capsys, inst.edges, "safe"), inst) is None
    out = cli_output(tmp_path, capsys, inst.edges, "safe", "--format", "structured")
    assert verify.check_safe_structured(*out, inst) is None
    assert verify.check_count(*cli_output(tmp_path, capsys, inst.edges, "count"), inst) is None
    assert verify.check_unique(*cli_output(tmp_path, capsys, inst.edges, "unique"), inst) is None


def swap_two_ids(line: str) -> str:
    head, _, ids = line.rpartition("[edges ")
    first, second, *rest = ids.rstrip("]").split()
    return f"{head}[edges {' '.join([second, first, *rest])}]"


def test_corrupted_outputs_fail(tmp_path, capsys, cactus_instance):
    inst = cactus_instance
    code, text = cli_output(tmp_path, capsys, inst.edges, "safe")
    lines = text.splitlines()
    long_walk = next(i for i, line in enumerate(lines) if "(length 1)" not in line and line.startswith("walk"))
    corrupted = lines[:long_walk] + [swap_two_ids(lines[long_walk])] + lines[long_walk + 1:]
    assert verify.check_safe_text(code, "\n".join(corrupted), inst)
    assert verify.check_safe_text(code, "\n".join(lines[:-1]), inst)  # a walk missing
    assert verify.check_safe_text(1, text, inst)  # wrong exit code
    code, text = cli_output(tmp_path, capsys, inst.edges, "safe", "--format", "structured")
    assert verify.check_safe_structured(code, text.replace('"unique":false', '"unique":true'), inst)
    assert verify.check_count(0, str(inst.count + 1), inst)
    assert verify.check_unique(0, "unique", inst)
    assert verify.crashed("Traceback (most recent call last):\n  ...\nValueError: x")


def test_corrupted_cli_output_counts_as_failed_operation(cactus_instance):
    import run

    co = run.Checkout(ROOT, "test-corrupted")
    co.graph.write_text(w.text_of(cactus_instance.edges))
    tally = run.Tally()
    try:
        def op(code, args, check):
            return run.program_op(co, ["-c", code, *args, str(co.graph)], check, cactus_instance, tally)

        assert op(run.CLI, ["unique"], verify.check_unique)
        # The same call with its output replaced by the wrong verdict.
        assert op("print('unique')", ["unique"], verify.check_unique) is None
        assert op("raise ValueError('boom')", ["check"], verify.check_check) is None
    finally:
        co.close()
    assert (tally.attempted, tally.failed) == (3, 2)


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    selfs = tracer.self_times()
    outer, first, second = tracer.spans
    whole = outer["end"] - outer["start"]
    inner = sum(s["end"] - s["start"] for s in (first, second))
    assert selfs[0] == pytest.approx(whole - inner)
    assert first["parent"] == second["parent"] == 0
    assert selfs[1] == pytest.approx(first["end"] - first["start"])
