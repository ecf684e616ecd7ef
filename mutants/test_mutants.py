"""The mutation gate: each row of MUTANTS changes one piece of ``src/`` and
names the tests that must then fail.

Run it with ``python3 -m pytest -q mutants``; tier-1's ``testpaths`` leaves
this directory out. Each mutant is applied to a fresh copy of the whole
checkout, not of ``src/`` alone: ``pyproject.toml`` puts the checkout's own
``src`` first on the path, so a mutated ``src/`` pointed at by
``PYTHONPATH`` would be ignored and every mutant would survive. The named
tests then run in a child process under a time limit and an address-space
limit set in that child only. A mutant is killed only when pytest exits 1
and every named test fails; a collection error or a timeout is not a kill.

A mutant that no test can tell from the original is recorded here as
equivalent, with the reason, and has no row:

- ``generator._draw`` with ``untouched = num_nodes - 1``, as if the first
  set's first node were counted twice. The union-find is then skipped
  while one node is still on no cycle, but every later cycle has at least
  2 nodes, so it always meets the one set: the draw is accepted or retried
  as before, and its edges and RNG calls do not change. Counting every
  set's first node twice is not equivalent: with two sets opened, two
  nodes can be left out, and a later cycle on just those two is a second
  component (the row "generator: each set's first node counted twice").
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD_SECONDS = 120
CHILD_BYTES = 2 << 30


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killed_by: tuple[str, ...]


HARNESS = "tests/test_acceptance.py::test_fast_answers_match_the_oracles"
GENOME = "tests/test_genome.py::test_planted_genome_matches_the_closed_form"
CHAINS = "tests/test_cutnodes.py::TestChains::test_cut_nodes_and_blocks_match_the_definition"
SAFETY = "tests/test_safety.py::"
STARTUP = "tests/test_startup.py::test_command_loads_only_what_it_runs"
ESCAPED = "tests/test_cli.py::TestSafeMatchesReference::test_escaped_labels"
DRAW = "tests/test_generator.py::"

MUTANTS = [
    # The block-label rule: v is a cut node iff a neighbour's label is
    # larger than v's, and a cut node's sides are read off the labels.
    Mutant(
        "sides: >= in the out-edge test",
        "src/eulersafe/safety.py",
        "        if block[nbr[i]] > own:\n",
        "        if block[nbr[i]] >= own:\n",
        (HARNESS + "[simple-sample]", HARNESS + "[genomes]", GENOME + "[3-4000-6-400]", SAFETY + "TestSafePair::test_cut_split"),
    ),
    Mutant(
        "cut nodes: the larger end marked",
        "src/eulersafe/graph.py",
        "cut[t if label[t] < label[h] else h] = 1",
        "cut[t if label[t] > label[h] else h] = 1",
        (HARNESS + "[simple-sample]", CHAINS + "[2-cycle]", "tests/test_cutnodes.py::TestArticulationPoints::test_figure_eight_center"),
    ),
    Mutant(
        "analysis: no root label",
        "src/eulersafe/graph.py",
        'block = array("i", [1]) * n',
        'block = array("i", [0]) * n',
        (HARNESS + "[simple-sample]", CHAINS + "[one simple cycle]", GENOME + "[1-3000-0-3000]"),
    ),
    Mutant(
        "sides: flipped in-edge",
        "src/eulersafe/safety.py",
        "return eid[i], eid[start + 2] if block[nbr[start + 2]] > own else eid[start + 3]",
        "return eid[i], eid[start + 3] if block[nbr[start + 2]] > own else eid[start + 2]",
        (HARNESS + "[genomes]", HARNESS + "[raw-multigraphs]", GENOME + "[3-4000-6-400]", SAFETY + "TestSafePair::test_cut_split"),
    ),
    Mutant(
        "sides: no loop branch",
        "src/eulersafe/safety.py",
        "    for i in (start + 1, start):\n        if nbr[i] == v:\n            return eid[i], eid[i]\n",
        "",
        (HARNESS + "[raw-multigraphs]", SAFETY + "TestSafePair::test_self_loop_is_its_own_side"),
    ),
    Mutant(
        "sides: first loop first",
        "src/eulersafe/safety.py",
        "    for i in (start + 1, start):\n",
        "    for i in (start, start + 1):\n",
        # Which loop is side 1 is a numbering rule with no oracle, so the
        # harness does not see it.
        (SAFETY + "TestSafePair::test_self_loop_is_its_own_side",),
    ),
    Mutant(
        "successors: side ignored, larger in-edge taken as side 1",
        "src/eulersafe/safety.py",
        "                out1, in1 = sides\n",
        "                out1, in1 = sides[0], eid[mid + 1]\n",
        (HARNESS + "[simple-sample]", HARNESS + "[genomes]", GENOME + "[3-4000-6-400]"),
    ),
    Mutant(
        "edge blocks: the smaller end's label",
        "src/eulersafe/circuit.py",
        "block[e] = ids[lt if lt > lh else lh]",
        "block[e] = ids[lt if lt < lh else lh]",
        (HARNESS + "[simple-sample]", CHAINS + "[2-cycle]", "tests/test_count.py::TestEdgeBlocks::test_figure_eight"),
    ),
    # The analysis pass's run through chains of one-in one-out nodes.
    Mutant(
        "chains: > in the block-closing test",
        "src/eulersafe/graph.py",
        "        if dw >= disc[v]:\n",
        "        if dw > disc[v]:\n",
        (HARNESS + "[simple-sample]", CHAINS + "[2-cycle]", GENOME + "[3-4000-6-400]"),
    ),
    Mutant(
        "chains: block labelled disc[w], not disc[c]",
        "src/eulersafe/graph.py",
        "            dc = disc[c]\n",
        "            dc = disc[w]\n",
        (HARNESS + "[simple-sample]", CHAINS + "[one simple cycle]", GENOME + "[1-3000-0-3000]"),
    ),
    Mutant(
        "chains: turned back along the entered edge",
        "src/eulersafe/graph.py",
        "                j = off[w] + back\n",
        "                j = off[w] + 1 - back\n",
        (HARNESS + "[simple-sample]", CHAINS + "[chain entered by an in-edge]", GENOME + "[1-3000-0-3000]"),
    ),
    Mutant(
        "chains: no lowlink from a chain's end",
        "src/eulersafe/graph.py",
        "            i += 1\n        # The branch below v",
        "            i += 1\n            dw = disc[c]\n        # The branch below v",
        (HARNESS + "[simple-sample]", CHAINS + "[chain entered by an in-edge]", GENOME + "[2-3000-1-3000]"),
    ),
    Mutant(
        "chains: w, not c, on the frame",
        "src/eulersafe/graph.py",
        "stack.append((v, i + 1, lv, entered, c))",
        "stack.append((v, i + 1, lv, entered, w))",
        (HARNESS + "[simple-sample]", CHAINS + "[chains between branching nodes]", GENOME + "[2-3000-1-3000]"),
    ),
    Mutant(
        "chains: the hop also through degree-2 nodes",
        "src/eulersafe/graph.py",
        "                if off[w + 1] - off[w] != 2:\n",
        "                if off[w + 1] - off[w] not in (2, 4):\n",
        (HARNESS + "[simple-sample]", CHAINS + "[chain entered by an in-edge]", GENOME + "[2-3000-1-3000]"),
    ),
    # Uniqueness and the walk count, read off the successor table.
    Mutant(
        "uniqueness: only edge 0's successor read",
        "src/eulersafe/safety.py",
        "return -1 not in _successors(g)[1]",
        "return _successors(g)[1][0] != -1",
        (HARNESS + "[simple-sample]", SAFETY + "TestUniqueness::test_examples"),
    ),
    Mutant(
        "walk count: edge 0 left out",
        "src/eulersafe/safety.py",
        "number = succ.count(-1)",
        "number = succ[1:].count(-1)",
        ("tests/test_cli.py::TestSafe::test_structured_format", "tests/test_cli.py::TestSafeMatchesReference::test_corpus[text]"),
    ),
    # The walk follower and the partition of the edges into walks.
    Mutant(
        "walks: a unique circuit not closed",
        "src/eulersafe/safety.py",
        "        if e < 0 or e == first:\n",
        "        if e < 0:\n",
        (HARNESS + "[generator]",),
    ),
    Mutant(
        "walks: started at the edges entering a non-forcing node",
        "src/eulersafe/safety.py",
        "map(unforced.__getitem__, g.tails)",
        "map(unforced.__getitem__, g.heads)",
        (HARNESS + "[generator]",),
    ),
    # The safe writers: labels escaped as json.dumps does, and each
    # multi-edge walk's first label read from its first edge's tail.
    Mutant(
        "writers: non-ASCII labels left unescaped",
        "src/eulersafe/cli.py",
        "from json.encoder import encode_basestring_ascii",
        "from json.encoder import encode_basestring as encode_basestring_ascii",
        (ESCAPED + "[ring-structured]", ESCAPED + "[bidirected-ring-structured]"),
    ),
    Mutant(
        "writers: text walk starts at the first edge's head",
        "src/eulersafe/cli.py",
        "labels[tails[walk[0]]]",
        "labels[heads[walk[0]]]",
        (ESCAPED + "[ring-text]",),
    ),
    Mutant(
        "writers: structured walk starts at the first edge's head",
        "src/eulersafe/cli.py",
        "names[tails[walk[0]]]",
        "names[heads[walk[0]]]",
        (ESCAPED + "[ring-structured]",),
    ),
    # The generator's draw and its early stop of the union-find.
    Mutant(
        "generator: union-find stopped with nodes left",
        "src/eulersafe/generator.py",
        "if sets == 1 and not untouched:",
        "if sets == 1:",
        (DRAW + "test_shared_rng_sweep_matches_the_reference", DRAW + "test_later_disjoint_cycle_is_retried", HARNESS + "[generator]"),
    ),
    Mutant(
        "generator: disconnected draws accepted",
        "src/eulersafe/generator.py",
        "if sets == 1:\n            return tails, heads",
        "if sets >= 1:\n            return tails, heads",
        (DRAW + "test_shared_rng_sweep_matches_the_reference", DRAW + "test_later_disjoint_cycle_is_retried", HARNESS + "[generator]"),
    ),
    Mutant(
        "generator: each set's first node counted twice",
        "src/eulersafe/generator.py",
        "                sets += 1\n                untouched -= 1\n",
        "                sets += 1\n                untouched -= 2\n",
        (DRAW + "test_later_disjoint_cycle_is_retried",),
    ),
    # Start-up: each command imports only the code it runs.
    Mutant(
        "start-up: argparse imported by cli",
        "src/eulersafe/cli.py",
        "import sys\nfrom collections.abc import",
        "import argparse\nimport sys\nfrom collections.abc import",
        (STARTUP + "[check]", STARTUP + "[gen]"),
    ),
    Mutant(
        "start-up: safety imported by cli",
        "src/eulersafe/cli.py",
        "_read_edge_list, is_eulerian\n",
        "_read_edge_list, is_eulerian\nfrom .safety import _safe_walks\n",
        (STARTUP + "[check]", STARTUP + "[gen]"),
    ),
    Mutant(
        "start-up: typing imported by graph",
        "src/eulersafe/graph.py",
        "from operator import add\n",
        "from operator import add\nfrom typing import NamedTuple\n",
        (STARTUP + "[check]", STARTUP + "[safe-structured]"),
    ),
]


def _copy_checkout(dest: Path) -> Path:
    shutil.copytree(
        ROOT,
        dest,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"),
    )
    return dest


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES))


def _run_tests(tree: Path, ids) -> tuple[int, set[str], str]:
    """Run pytest on ``ids`` in ``tree``: its exit code (-1 on timeout),
    the ids that failed and the tail of its output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_SECONDS,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return -1, set(), f"timed out after {CHILD_SECONDS} s"
    failed = {
        line[len("FAILED ") :].split(" - ")[0]
        for line in result.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return result.returncode, failed, (result.stdout + result.stderr)[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_matches_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.killed_by


def test_unmutated_tree_passes_every_named_test(tmp_path):
    ids = sorted({i for m in MUTANTS for i in m.killed_by})
    code, failed, tail = _run_tests(_copy_checkout(tmp_path / "tree"), ids)
    assert (code, failed) == (0, set()), tail


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(tmp_path, mutant):
    tree = _copy_checkout(tmp_path / "tree")
    path = tree / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1
    path.write_text(text.replace(mutant.old, mutant.new))
    code, failed, tail = _run_tests(tree, mutant.killed_by)
    assert (code, failed) == (1, set(mutant.killed_by)), tail
