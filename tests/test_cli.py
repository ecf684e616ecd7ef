"""End-to-end command-line behavior, including exit codes."""
import contextlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

import eulersafe
from eulersafe import (
    ContractError,
    ParseError,
    cli,
    graph,
    parse_edge_list,
    is_eulerian,
    maximal_safe_walks,
    walk_nodes,
)
from eulersafe.circuit import MAX_BLOCK_NODES, MAX_COUNT_DIGITS
from eulersafe.cli import WALK_CHUNK
from eulersafe.generator import random_eulerian_edges
from eulersafe.oracles import count_by_states, pevzner_intersection_graph
from eulersafe.safety import SafeWalkReport
from families import cactus_edges, corpus, cycling_successors, raw_multigraphs, ring

TRIANGLE = "a b\nb c\nc a\n"
FIGURE_EIGHT = "v a\na b\nb v\nv c\nc d\nd v\n"
BIDIRECTED = "a b\nb a\nb c\nc b\na c\nc a\n"
MULTI = "a b\na b\nb a\nb a\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestCheck:
    def test_eulerian(self, graph_file, capsys):
        assert cli.main(["check", graph_file(TRIANGLE)]) == 0
        assert capsys.readouterr().out.strip() == "eulerian"

    def test_not_eulerian(self, graph_file, capsys):
        assert cli.main(["check", graph_file("a b\nb c\n")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("not eulerian: unbalanced")

    def test_missing_file(self, capsys):
        assert cli.main(["check", "/nonexistent/graph.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, graph_file, capsys):
        assert cli.main(["check", graph_file("a\n")]) == 2
        assert "parse error: line 1" in capsys.readouterr().err


class TestUnique:
    def test_unique(self, graph_file, capsys):
        assert cli.main(["unique", graph_file(FIGURE_EIGHT)]) == 0
        assert capsys.readouterr().out.strip() == "unique"

    def test_not_unique(self, graph_file, capsys):
        assert cli.main(["unique", graph_file(BIDIRECTED)]) == 1
        assert capsys.readouterr().out.strip() == "not-unique"

    def test_non_eulerian_is_an_error(self, graph_file, capsys):
        assert cli.main(["unique", graph_file("a b\nb c\n")]) == 2
        assert "not Eulerian" in capsys.readouterr().err


NOT_EULERIAN = {
    "unbalanced": ("a b\nb a\nb c\n", "node 'b' has out-degree 2 and in-degree 1"),
    "disconnected": (
        "a b\nb a\nx y\ny x\n",
        "node 'x' is not reachable from 'a' ignoring directions",
    ),
}


class TestNotEulerian:
    """Every command reads the one analysis pass, so each names the same
    witness for the same input."""

    @pytest.mark.parametrize("kind", sorted(NOT_EULERIAN))
    @pytest.mark.parametrize(
        "command",
        [["unique"], ["safe"], ["safe", "--format", "structured"], ["count"], ["oracle-compare"]],
        ids=["unique", "safe", "safe-structured", "count", "oracle-compare"],
    )
    def test_error_names_the_witness(self, graph_file, capsys, command, kind):
        text, detail = NOT_EULERIAN[kind]
        assert cli.main([command[0], graph_file(text), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: graph is not Eulerian: {detail}\n"

    @pytest.mark.parametrize("kind", sorted(NOT_EULERIAN))
    def test_check_prints_the_same_detail(self, graph_file, capsys, kind):
        text, detail = NOT_EULERIAN[kind]
        assert cli.main(["check", graph_file(text)]) == 1
        reason = "unbalanced" if kind == "unbalanced" else "not-weakly-connected"
        assert capsys.readouterr().out == f"not eulerian: {reason} ({detail})\n"


class TestSafe:
    def test_text_format(self, graph_file, capsys):
        assert cli.main(["safe", graph_file(FIGURE_EIGHT)]) == 0
        out = capsys.readouterr().out
        assert "maximal safe walks: 1" in out
        assert "total length: 6" in out
        assert "unique circuit: yes" in out
        assert "v -> a -> b -> v -> c -> d -> v" in out

    def test_structured_format(self, graph_file, capsys):
        assert (
            cli.main(["safe", graph_file(BIDIRECTED), "--format", "structured"]) == 0
        )
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        header = records[0]
        assert header == {
            "record": "header",
            "edges": 6,
            "walks": 6,
            "total_length": 6,
            "unique": False,
        }
        walks = records[1:]
        assert len(walks) == 6
        assert sum(w["length"] for w in walks) == 6
        assert sorted(tuple(w["edges"]) for w in walks) == [(e,) for e in range(6)]
        for w in walks:
            assert w["record"] == "walk"
            assert len(w["nodes"]) == w["length"] + 1

    def test_multigraph_reports_original_edge_ids(self, graph_file, capsys):
        assert cli.main(["safe", graph_file(MULTI), "--format", "structured"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert records[0]["edges"] == 4
        assert records[0]["total_length"] == 4
        assert sorted(tuple(w["edges"]) for w in records[1:]) == [
            (0,),
            (1,),
            (2,),
            (3,),
        ]


def reference_safe_output(g, fmt: str) -> str:
    """`safe`'s stdout formatted record by record, the way the CLI first
    wrote it: ``json.dumps`` of each whole record for structured output,
    one f-string per line for text."""
    report = maximal_safe_walks(g)
    if fmt == "structured":
        records = [
            dict(
                record="header",
                edges=g.num_edges,
                walks=len(report.walks),
                total_length=sum(map(len, report.walks)),
                unique=report.unique_circuit,
            )
        ]
        for index, walk in enumerate(report.walks):
            records.append(
                dict(
                    record="walk",
                    index=index,
                    length=len(walk),
                    edges=list(walk),
                    nodes=walk_nodes(g, walk),
                )
            )
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records
        )
    lines = [
        f"edges: {g.num_edges}",
        f"maximal safe walks: {len(report.walks)}",
        f"total length: {sum(map(len, report.walks))}",
        f"unique circuit: {'yes' if report.unique_circuit else 'no'}",
    ]
    for index, walk in enumerate(report.walks):
        nodes = " -> ".join(walk_nodes(g, walk))
        ids = " ".join(str(e) for e in walk)
        lines.append(f"walk {index} (length {len(walk)}): {nodes} [edges {ids}]")
    return "".join(line + "\n" for line in lines)


# Labels that JSON must escape: a quote, a backslash, non-ASCII, a
# character outside the BMP (a surrogate pair in \u form), control and
# DEL characters, and all of them in one label.
ESCAPED_LABELS = ['"', "\\", "\u00e9", "\U0001f600", "\x01", "\x7f", 'q"\\\u00e9\U0001f600\x01\x7f']


@pytest.mark.parametrize("fmt", ["text", "structured"])
class TestSafeMatchesReference:
    """`safe` escapes a label at most once and writes line by line; its stdout
    must equal the record-by-record reference byte for byte."""

    @staticmethod
    def stdout_of(g, fmt, monkeypatch, capsys) -> str:
        monkeypatch.setattr(cli, "_load_graph", lambda path: g)
        assert cli.cmd_safe(SimpleNamespace(path="-", format=fmt)) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("bidirected", [False, True], ids=["ring", "bidirected-ring"])
    def test_escaped_labels(self, tmp_path, capsys, fmt, bidirected):
        k = len(ESCAPED_LABELS)
        edges = [(ESCAPED_LABELS[i], ESCAPED_LABELS[(i + 1) % k]) for i in range(k)]
        if bidirected:
            edges += [(h, t) for t, h in edges]
        path = tmp_path / "labels.txt"
        path.write_text("".join(f"{t} {h}\n" for t, h in edges), encoding="utf-8")
        assert cli.main(["safe", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        g = parse_edge_list(path.read_text(encoding="utf-8"))
        assert g.labels == ESCAPED_LABELS
        assert out == reference_safe_output(g, fmt)

    @pytest.mark.parametrize("bidirected", [False, True], ids=["ring", "bidirected-ring"])
    def test_label_escaped_past_the_first_chunk(self, monkeypatch, capsys, fmt, bidirected):
        # Labels are checked for escaping WALK_CHUNK at a time; here only
        # the last one, in the second chunk, needs it.
        labels = [f"n{i}" for i in range(WALK_CHUNK + 1)] + ['late"\u00e9']
        k = len(labels)
        edges = [(labels[i], labels[(i + 1) % k]) for i in range(k)]
        if bidirected:
            edges += [(h, t) for t, h in edges]
        g = parse_edge_list("".join(f"{t} {h}\n" for t, h in edges))
        assert g.labels == labels
        out = self.stdout_of(g, fmt, monkeypatch, capsys)
        assert out == reference_safe_output(g, fmt)

    def test_corpus(self, monkeypatch, capsys, fmt):
        for g in corpus(5):
            out = self.stdout_of(g, fmt, monkeypatch, capsys)
            assert out == reference_safe_output(g, fmt), list(g.edge_pairs())

    def test_raw_multigraphs(self, monkeypatch, capsys, fmt):
        unique = Counter()
        for g in raw_multigraphs(500, seed=61):
            out = self.stdout_of(g, fmt, monkeypatch, capsys)
            assert out == reference_safe_output(g, fmt), list(g.edge_pairs())
            unique[maximal_safe_walks(g).unique_circuit] += 1
        assert unique[True] > 50 and unique[False] > 50


def hub_graph(cycles: int) -> str:
    """Two-edge cycles through one hub: one maximal safe walk per cycle
    once the hub has degree 3 or more, the whole circuit below that."""
    return "".join(f"h a{i}\na{i} h\n" for i in range(cycles))


def pairs_graph(walks: int) -> str:
    """Two hubs joined by ``walks // 2`` parallel pairs ``h k`` / ``k h``,
    and a self-loop at ``h`` if ``walks`` is odd. For ``walks`` >= 4
    neither hub forces, so every edge is a one-edge maximal safe walk."""
    return "h k\nk h\n" * (walks // 2) + "h h\n" * (walks % 2)


class RecordingStdout:
    """Stands in for ``sys.stdout`` and keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def safe_child(path: str, *args: str, unbuffered: bool) -> tuple[list[str], dict[str, str]]:
    """Command line and environment of a ``safe`` child process, with
    stdout unbuffered or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return [sys.executable, "-m", "eulersafe.cli", "safe", path, *args], env


class TestSafeBatches:
    """`safe` writes its lines joined, at most 1024 walks per write."""

    @staticmethod
    def check_write_count(graph_file, monkeypatch, fmt, text, walks):
        g = parse_edge_list(text)
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["safe", graph_file(text), "--format", fmt]) == 0
        assert "".join(stdout.writes) == reference_safe_output(g, fmt)
        assert len(stdout.writes) <= -(-walks // 1024) + 1
        walk_marker = "(length " if fmt == "text" else '"record":"walk"'
        assert max(w.count(walk_marker) for w in stdout.writes) <= 1024

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("walks", [1, 1023, 1024, 1025, 3000])
    def test_write_count(self, graph_file, monkeypatch, fmt, walks):
        text = hub_graph(walks)
        assert len(maximal_safe_walks(parse_edge_list(text)).walks) == walks
        self.check_write_count(graph_file, monkeypatch, fmt, text, walks)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("walks", [4, 1023, 1024, 1025, 3000])
    def test_write_count_one_edge_walks(self, graph_file, monkeypatch, fmt, walks):
        text = pairs_graph(walks)
        report = maximal_safe_walks(parse_edge_list(text))
        assert [len(walk) for walk in report.walks] == [1] * walks
        self.check_write_count(graph_file, monkeypatch, fmt, text, walks)

    @staticmethod
    def check_long_walk(graph_file, monkeypatch, fmt, length, before, after, short):
        # A ring of `length` edges through the hub h, between the short
        # walks of `before` and `after`: one long walk amid short ones,
        # with the lines of `before` still batched when it comes.
        text = before + "".join(f"{t} {h}\n" for t, h in ring(length)) + after
        g = parse_edge_list(text)
        assert [len(walk) for walk in maximal_safe_walks(g).walks] == short + [length] + short
        expected = reference_safe_output(g, fmt)
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["safe", graph_file(text), "--format", fmt]) == 0
        assert "".join(stdout.writes) == expected
        (line,) = [x for x in expected.splitlines(keepends=True) if x.count("ring") == length - 1]
        holding = [w for w in stdout.writes if line in w]
        if length <= WALK_CHUNK:
            assert len(holding) == 1
        else:
            assert not holding
            assert max(w.count("ring") for w in stdout.writes) <= WALK_CHUNK

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("length", [WALK_CHUNK, WALK_CHUNK + 1, 3 * WALK_CHUNK + 5])
    def test_long_walk_is_written_in_pieces(self, graph_file, monkeypatch, fmt, length):
        # 600 two-edge cycles through the hub on either side.
        after = "".join(f"h b{i}\nb{i} h\n" for i in range(600))
        self.check_long_walk(graph_file, monkeypatch, fmt, length, hub_graph(600), after, [2] * 600)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("length", [WALK_CHUNK, WALK_CHUNK + 1, 3 * WALK_CHUNK + 5])
    def test_long_walk_among_one_edge_walks(self, graph_file, monkeypatch, fmt, length):
        # 600 one-edge walks between the hubs h and k on either side, whose
        # lines `safe` writes straight from the edge arrays.
        pairs = pairs_graph(600)
        self.check_long_walk(graph_file, monkeypatch, fmt, length, pairs, pairs, [1] * 600)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_same_bytes_unbuffered(self, graph_file, fmt):
        text = hub_graph(3000)
        path = graph_file(text)
        outputs = []
        for unbuffered in (False, True):
            command, env = safe_child(path, "--format", fmt, unbuffered=unbuffered)
            result = subprocess.run(command, capture_output=True, env=env, timeout=60)
            assert (result.returncode, result.stderr) == (0, b"")
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == reference_safe_output(parse_edge_list(text), fmt).encode()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_gone_is_one_line(self, graph_file, unbuffered):
        # About 280 kB of output, more than a pipe holds, so the child is
        # still writing when the reader closes its end.
        command, env = safe_child(graph_file(hub_graph(5000)), unbuffered=unbuffered)
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert child.stdout.readline() == b"edges: 10000\n"
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err.startswith(b"error: ") and err.count(b"\n") == 1
        assert b"Traceback" not in err and b"Exception ignored" not in err


class TestCount:
    def test_default_method(self, graph_file, capsys):
        assert cli.main(["count", graph_file(BIDIRECTED)]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_enumerate_method(self, graph_file, capsys):
        # The state count, reached through the library, agrees with count.
        assert cli.main(["count", graph_file(BIDIRECTED)]) == 0
        assert capsys.readouterr().out == f"{count_by_states(parse_edge_list(BIDIRECTED))}\n"

    def test_multigraph_counted_after_normalization(self, graph_file, capsys):
        assert cli.main(["count", graph_file(MULTI)]) == 0
        count = int(capsys.readouterr().out)
        assert count >= 2


def flipped_tree_test(g):
    """The cycle-intersection verdict on ``g``, its tree test flipped."""
    verdict = pevzner_intersection_graph(g)
    return verdict._replace(is_tree=not verdict.is_tree)


class TestOracleCompare:
    def test_pass(self, graph_file, capsys):
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_pass_on_multigraph(self, graph_file, capsys):
        assert cli.main(["oracle-compare", graph_file(MULTI)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_counter_fault_is_caught(self, graph_file, capsys, monkeypatch):
        monkeypatch.setattr("eulersafe.circuit.count_circuits", lambda g: 4)
        assert cli.main(["oracle-compare", graph_file(BIDIRECTED)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: circuit count: block factorization gives 4")

    def test_every_fault_is_reported(self, graph_file, capsys, monkeypatch):
        # A wrong block count and a flipped tree test: one line each, in
        # the order the checks run.
        monkeypatch.setattr("eulersafe.circuit.count_circuits", lambda g: 4)
        monkeypatch.setattr("eulersafe.oracles.pevzner_intersection_graph", flipped_tree_test)
        assert cli.main(["oracle-compare", graph_file(BIDIRECTED)]) == 1
        assert capsys.readouterr().out == (
            "FAIL: circuit count: block factorization gives 4, determinant formula "
            "gives 3, state count gives 3\n"
            "FAIL: uniqueness: cycle-intersection tree test gives True, "
            "linear-time verdict False\n"
        )

    def test_fault_injection_is_caught(self, graph_file, capsys, monkeypatch):
        # Break the pipeline on purpose; the oracles must notice.
        def wrong(g, norm_map=None):
            return SafeWalkReport(
                walks=tuple((e,) for e in range(g.num_edges)),
                unique_circuit=False,
            )

        monkeypatch.setattr("eulersafe.safety.maximal_safe_walks", wrong)
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL:")
        assert "safe walks" in out

    def test_walk_order_fault_is_caught(self, graph_file, capsys, monkeypatch):
        # The right walks in the wrong order: the records are compared whole.
        def reversed_order(g, norm_map=None):
            report = maximal_safe_walks(g)
            return report._replace(walks=report.walks[::-1])

        monkeypatch.setattr("eulersafe.safety.maximal_safe_walks", reversed_order)
        assert cli.main(["oracle-compare", graph_file(BIDIRECTED)]) == 1
        assert capsys.readouterr().out == "FAIL: maximal safe walks differ from brute-force result\n"

    def test_shared_determinant_fault_is_caught(self, graph_file, capsys, monkeypatch):
        # Both determinant-based counters share Bareiss: only the state
        # count can see it go wrong. Bidirected K5 has 20 edges.
        from eulersafe import circuit

        bareiss = circuit._bareiss_determinant

        def off_by_one(matrix):
            return bareiss(matrix) + (len(matrix) >= 2)

        monkeypatch.setattr("eulersafe.circuit._bareiss_determinant", off_by_one)
        monkeypatch.setattr("eulersafe.oracles._bareiss_determinant", off_by_one)
        text = "".join(f"k{i} k{j}\n" for i in range(5) for j in range(5) if i != j)
        assert cli.main(["oracle-compare", graph_file(text)]) == 1
        assert capsys.readouterr().out.startswith("FAIL: circuit count")

    @pytest.mark.parametrize(
        "text", [FIGURE_EIGHT, "a a\n" * 14, MULTI], ids=["simple", "loops", "parallel"]
    )
    def test_refused_before_the_other_oracles(self, graph_file, capsys, monkeypatch, text):
        def refuse(g):
            raise AssertionError("an oracle ran past the state count's refusal")

        monkeypatch.setattr("eulersafe.oracles.MAX_STATE_WORK", 100)
        for name in ("count_best", "brute_force_safe_walks", "pevzner_intersection_graph"):
            monkeypatch.setattr(f"eulersafe.oracles.{name}", refuse)
        monkeypatch.setattr("eulersafe.circuit.count_circuits", refuse)
        assert cli.main(["oracle-compare", graph_file(text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: state count refused: ")
        assert captured.err.count("\n") == 1

    def test_oracles_run_on_the_raw_graph(self, graph_file, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("normalize ran")

        monkeypatch.setattr("eulersafe.oracles.normalize", refuse)
        outcomes = Counter()
        for g in raw_multigraphs(150, seed=5):
            edges = list(g.edge_pairs())
            text = "".join(f"{t} {h}\n" for t, h in edges)
            assert cli.main(["oracle-compare", graph_file(text)]) == 0, edges
            out = capsys.readouterr().out
            assert out == "PASS\n", (edges, out)
            multigraph = len(set(edges)) < len(edges) or any(t == h for t, h in edges)
            outcomes[out[:4], multigraph] += 1
        assert outcomes["PASS", True] > 50

    def test_pevzner_fault_is_caught(self, graph_file, capsys, monkeypatch):
        # A cycle-intersection verdict that disagrees with uniqueness fails.
        monkeypatch.setattr("eulersafe.oracles.pevzner_intersection_graph", flipped_tree_test)
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "FAIL: uniqueness: cycle-intersection tree test gives False, "
            "linear-time verdict True"
        )


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# ``python -m eulersafe.cli`` on the package under test.
CLI = [sys.executable, "-m", "eulersafe.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
SPAWN = Path(__file__).resolve().parents[1] / "bench" / "spawn.py"


def run_cli(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """The CLI in a child limited to 60 s and 2 GiB of address space, so a
    runaway allocation fails in the child, not the machine. Its stdout goes
    to ``stdout``, captured by default."""
    result = subprocess.run(
        [*CLI, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env=CLI_ENV,
        preexec_fn=limit_memory,
    )
    assert "Traceback" not in result.stderr
    return result


def exact_decimal(n: int) -> str:
    """``str(n)`` past the interpreter's int-to-str digit limit, if any."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestLargeAndMalformedInput:
    """Inputs that once ended in a traceback, an OOM kill or no answer
    within a minute."""

    def test_out_of_memory_is_one_line(self, graph_file, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_count", exhausted)
        assert cli.main(["count", graph_file(TRIANGLE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_count_long_ring(self, graph_file):
        result = run_cli("count", graph_file("".join(f"r{i} r{(i + 1) % 3000}\n" for i in range(3000))))
        assert (result.returncode, result.stdout) == (0, "1\n")

    def test_count_large_cactus(self, graph_file):
        edges = cactus_edges(100_000, seed=5)
        expected = 1
        for d in Counter(t for t, _ in edges).values():
            expected *= factorial(d - 1)
        result = run_cli("count", graph_file("".join(f"{t} {h}\n" for t, h in edges)))
        assert (result.returncode, result.stdout) == (0, f"{expected}\n")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_count_longer_than_int_str_limit(self, graph_file):
        result = run_cli("count", graph_file("a a\n" * 2000))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"{factorial(1999)}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) > limit
        assert (result.returncode, result.stdout) == (0, expected)

    def test_count_of_a_million_loops_is_refused(self, graph_file):
        # (10**6 - 1)! has 5,565,703 digits; printing them would take minutes.
        result = run_cli("count", graph_file("a a\n" * 1_000_000))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(
            "error: exact count refused: the answer has about 5565703 decimal digits"
        )
        assert result.stderr.count("\n") == 1

    def test_count_of_a_million_edges_is_refused(self, tmp_path):
        # 999,863 edges on 2000 nodes of degree >= 3: one block far above
        # the determinant bound, refused before any factorial. gen holds
        # two int arrays, not an object per edge, so it peaks near 22 MB
        # (Python 3.11, x86-64 Linux). On Linux a child's ru_maxrss starts
        # from the size of the process that forked it, so bench/spawn.py,
        # which holds nothing, starts gen and reads its peak.
        path = str(tmp_path / "dense.txt")
        errors = tmp_path / "gen.err"
        request = {
            "args": [*CLI, "gen", "2000", "1000", "--seed", "7"],
            "stdout": path,
            "stderr": str(errors),
            "timeout": 60,
        }
        launcher = subprocess.run(
            [sys.executable, str(SPAWN)],
            input=json.dumps(request) + "\n",
            capture_output=True,
            text=True,
            env=CLI_ENV,
            preexec_fn=limit_memory,
        )
        reply = json.loads(launcher.stdout)
        assert (reply["code"], errors.read_text()) == (0, "")
        assert reply["maxrss_mb"] <= 40
        result = run_cli("count", path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: exact count refused")
        assert result.stderr.count("\n") == 1

    def test_count_just_under_the_digit_bound(self, graph_file):
        loops = 25_206
        result = run_cli("count", graph_file("a a\n" * loops))
        expected = exact_decimal(factorial(loops - 1))
        assert MAX_COUNT_DIGITS - 10 < len(expected) <= MAX_COUNT_DIGITS
        assert (result.returncode, result.stdout) == (0, f"{expected}\n")

    def test_enumerate_long_ring(self, graph_file):
        # Deeper than the recursion limit: the state count and count agree.
        text = "".join(f"r{i} r{(i + 1) % 1500}\n" for i in range(1500))
        assert count_by_states(parse_edge_list(text)) == 1
        result = run_cli("count", graph_file(text))
        assert (result.returncode, result.stdout) == (0, "1\n")

    def test_runaway_chain_is_one_line(self, graph_file, capsys, monkeypatch):
        monkeypatch.setattr("eulersafe.safety._successors", cycling_successors)
        assert cli.main(["safe", graph_file(FIGURE_EIGHT)]) == 2
        assert capsys.readouterr().err == (
            "error: forced-successor chain from edge 0 is longer than |E| = 6\n"
        )

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"\xff\xfe a b\n")
        result = run_cli("check", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("parse error: input is not valid UTF-8")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "args, text, code",
        [(["check"], "é b\n", 2), (["safe"], "é b\nb é\n", 2),
         (["safe", "--format", "structured"], "é b\nb é\n", 0)],
        ids=["check", "safe", "structured"],
    )
    def test_label_stdout_cannot_encode(self, graph_file, args, text, code):
        env = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
        env["PYTHONIOENCODING"] = "ascii"
        path = graph_file(text)
        result = subprocess.run(
            [sys.executable, "-m", "eulersafe.cli", args[0], path, *args[1:]],
            capture_output=True, timeout=60, env=env,
        )
        assert result.returncode == code
        if code == 0:
            expected = reference_safe_output(parse_edge_list(text), "structured")
            assert (result.stdout, result.stderr) == (expected.encode(), b"")
        else:
            assert result.stderr.startswith(b"error: 'ascii' codec can't encode character")
            assert result.stderr.count(b"\n") == 1
            assert b"\xe9" not in result.stdout

    def test_block_above_bound_is_refused(self, graph_file):
        k = MAX_BLOCK_NODES + 1
        text = "".join(f"b{i} b{(i + 1) % k}\nb{(i + 1) % k} b{i}\n" for i in range(k))
        result = run_cli("count", graph_file(text))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: exact count refused")
        assert result.stderr.count("\n") == 1

    def test_many_loops_are_counted_and_compared(self, graph_file):
        # 14 edges but 13! circuits: the state count memoizes 2**13 states.
        path = graph_file("a a\n" * 14)
        result = run_cli("count", path)
        assert (result.returncode, result.stdout) == (0, f"{factorial(13)}\n")
        result = run_cli("oracle-compare", path)
        assert (result.returncode, result.stdout) == (0, "PASS\n")

    @pytest.mark.parametrize(
        "text",
        [
            "a a\n" * 100_000,
            "".join(f"r{i} r{(i + 1) % 40_000}\n" for i in range(40_000)),
            "a b\nb a\n" * 50_000,
        ],
        ids=["loops", "ring", "antiparallel"],
    )
    @pytest.mark.parametrize("route", ["count", "compare"])
    def test_state_count_over_its_bound_is_refused(self, graph_file, text, route):
        if route == "count":
            # The library state count refuses each input by its work bound.
            with pytest.raises(ContractError, match="^state count refused: "):
                count_by_states(parse_edge_list(text))
            return
        result = run_cli("oracle-compare", graph_file(text))
        assert (result.returncode, result.stdout) == (2, "")
        # oracle-compare refuses the ring for its determinant before counting.
        assert result.stderr.startswith(
            ("error: state count refused: ", "error: oracle comparison refused: ")
        )
        assert result.stderr.count("\n") == 1

    def test_oracle_compare_long_ring_is_refused(self, graph_file):
        # The dense BEST oracle would need a 1499-row determinant.
        text = "".join(f"r{i} r{(i + 1) % 1500}\n" for i in range(1500))
        result = run_cli("oracle-compare", graph_file(text))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: oracle comparison refused")
        assert result.stderr.count("\n") == 1


def first_error(path) -> str:
    """The stderr line for an input that fails to load: its first error in
    input order. A byte that is not UTF-8 is reported unless a line that
    ends before it is malformed; a "\r" just before the byte has not ended
    its line yet."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode()
        ended = head[: max(head.rfind("\n"), head.rfind("\r", 0, len(head) - 1)) + 1]
        try:
            parse_edge_list(ended + "a b\n")  # one edge, so that only a bad line fails
        except ParseError as error:
            return f"parse error: {error}\n"
        return f"parse error: input is not valid UTF-8: {exc.reason} at byte {exc.start}\n"
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    return f"parse error: {info.value}\n"


# About 120 kB: 15 blocks of the CLI's reader.
RING_BYTES = "".join(f"n{i} n{(i + 1) % 10_000}\n" for i in range(10_000)).encode()


BOM = "\ufeff".encode()


NEWLINES = {
    "LF": "\n", "CR": "\r", "CRLF": "\r\n", "U+2028": "\u2028", "FF": "\x0c", "NEL": "\x85",
    "FS": "\x1c",
}


class TestStreamedInput:
    """The CLI parses its input as it reads it, a line at a time, and fails
    at the first error in input order."""

    @staticmethod
    def stderr_of(tmp_path, data: bytes, capsys) -> str:
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == first_error(path)
        return captured.err

    def test_offset_past_the_first_chunk(self, tmp_path, capsys):
        data = RING_BYTES[:33_783] + b"\xff" + RING_BYTES[33_783:]
        assert self.stderr_of(tmp_path, data, capsys) == (
            "parse error: input is not valid UTF-8: invalid start byte at byte 33783\n"
        )

    @pytest.mark.parametrize(
        "offset, bad",
        [
            (8_191, b"\xe2\x82"),  # truncated, across the end of the first block
            (65_535, b"\xe2\x82\xac\xff"),  # a valid sign across a block, then 0xff
            (65_534, b"\xf0\x9f\x98"),  # truncated, across a block
            (65_536, b"\x80"),  # a lone continuation byte at a block start
            (100_000, b"\xed\xa0\x80"),  # an encoded surrogate
            (len(RING_BYTES), b"\xe2\x82"),  # truncated at the end of the file
        ],
    )
    def test_offset_counts_from_the_file_start(self, tmp_path, capsys, offset, bad):
        err = self.stderr_of(tmp_path, RING_BYTES[:offset] + bad + RING_BYTES[offset:], capsys)
        assert err.startswith("parse error: input is not valid UTF-8: ")

    @pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES.keys())
    def test_lines_are_numbered_as_before(self, tmp_path, capsys, newline):
        # The malformed line lies past the first block.
        lines = [f"n{i} n{(i + 1) % 3000}" for i in range(3000)]
        lines[2500] = "bad"
        data = (newline.join(lines) + "\n").encode()
        err = self.stderr_of(tmp_path, data, capsys)
        if newline in ("\n", "\r", "\r\n"):
            assert err.startswith("parse error: line 2501: ")
        else:
            assert err.startswith("parse error: line 1: ")

    def test_crlf_across_the_decoder_chunk(self, tmp_path, capsys):
        # "\r" ends the first block and "\n" starts the next: one line ending.
        data = b"#" * (graph.BLOCK_SIZE - 1) + b"\r\na b\r\nb a\r\nbad\r\n"
        assert self.stderr_of(tmp_path, data, capsys) == (
            "parse error: line 4: expected 'tail head', got 1 token(s)\n"
        )

    @pytest.mark.parametrize(
        "case, cut, error",
        [
            (b"bad\n\xff", 4, "line 2"),
            (b"bad\n\xff", 2, "line 2"),
            (b"bad\n" + RING_BYTES + b"\xff", 4, "line 2"),
            (b"bad\r\n\xff", 4, "line 2"),
            (b"bad\r\r\xff", 4, "line 2"),
            (b"bad\n\xe2\x82a", 6, "line 2"),
            (b"\xffbad\n", 1, "byte 8191"),
            (b"a b\n\xffbad\n", 4, "byte 8192"),
            (b"bad\r\xff", 4, "byte 8192"),
            (b"bad\r\xff", 3, "byte 8193"),
            (b"bad\xff\n", 3, "byte 8192"),
        ],
        ids=[
            "line-then-byte", "line-and-byte-in-one-block", "line-long-before",
            "crlf-then-byte", "cr-cr-then-byte", "line-then-cut-off-sequence",
            "byte-then-line", "edge-byte-line", "cr-then-byte-across",
            "cr-then-byte-in-one-block", "unended-line-then-byte",
        ],
    )
    def test_errors_come_in_input_order(self, tmp_path, capsys, case, cut, error):
        # A comment line puts case[cut] at byte 8192, the start of the
        # second block of the default size; the case begins on line 2.
        data = b"#" * (8191 - cut) + b"\n" + case
        err = self.stderr_of(tmp_path, data, capsys)
        if error.startswith("line"):
            assert err == f"parse error: {error}: expected 'tail head', got 1 token(s)\n"
        else:
            assert err.startswith("parse error: input is not valid UTF-8: ")
            assert err.endswith(f" at {error}\n")

    def test_bad_byte_wins_over_no_edges(self, tmp_path, capsys):
        err = self.stderr_of(tmp_path, b"# no edges\n" * 10_000 + b"\xff", capsys)
        assert err.startswith("parse error: input is not valid UTF-8: invalid start byte")

    def test_malformed_line_without_bad_bytes(self, tmp_path, capsys):
        assert self.stderr_of(tmp_path, RING_BYTES + b"bad\n", capsys) == (
            "parse error: line 10001: expected 'tail head', got 1 token(s)\n"
        )

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(BOM + b"# ring\n" + RING_BYTES)
        g = cli._load_graph(str(path))
        assert g.labels[0] == "n0"
        assert g == parse_edge_list(RING_BYTES.decode())
        # Only the first mark: a second one is part of the first label.
        path.write_bytes(BOM + BOM + b"a b\nb a\n")
        assert cli._load_graph(str(path)).labels == ["\ufeffa", "b", "a"]

    def test_lines_after_a_byte_order_mark_keep_their_numbers(self, tmp_path, capsys):
        assert self.stderr_of(tmp_path, BOM + b"# a graph\nbad\n" + RING_BYTES, capsys) == (
            "parse error: line 2: expected 'tail head', got 1 token(s)\n"
        )

    @pytest.mark.parametrize("offset", [0, 1, 8_190, 33_783])
    def test_offset_after_a_byte_order_mark_counts_the_mark(self, tmp_path, capsys, offset):
        data = BOM + RING_BYTES[:offset] + b"\xff" + RING_BYTES[offset:]
        assert self.stderr_of(tmp_path, data, capsys) == (
            f"parse error: input is not valid UTF-8: invalid start byte at byte {offset + 3}\n"
        )

    @pytest.mark.parametrize(
        "data, reason",
        [
            (BOM[:1], "unexpected end of data"),
            (BOM[:2], "unexpected end of data"),
            (BOM[:2] + b"a b\n", "invalid continuation byte"),
        ],
        ids=["one-byte", "two-bytes", "then-ascii"],
    )
    def test_cut_off_byte_order_mark(self, tmp_path, capsys, data, reason):
        assert self.stderr_of(tmp_path, data, capsys) == (
            f"parse error: input is not valid UTF-8: {reason} at byte 0\n"
        )


class TestStreamedInputSmallBlocks(TestStreamedInput):
    """The same cases with blocks of a few bytes, so that lines, line
    endings and multi-byte sequences carry over from block to block."""

    @pytest.fixture(autouse=True, params=[1, 5])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(graph, "BLOCK_SIZE", request.param)


def load_outcome(load, source):
    """The graph ``load(source)`` gives, or the message of its ParseError."""
    try:
        return load(source)
    except ParseError as exc:
        return str(exc)


class TestOneLineRule:
    """``parse_edge_list`` and the CLI's reader end lines at the same places."""

    @pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
    @pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES.keys())
    def test_entry_points_agree(self, tmp_path, newline, malformed):
        lines = ["", "a b", "# b c", "  b\tc ", "", "c a"]
        if malformed:
            lines.insert(4, "c a b")
        data = (newline.join(lines) + newline).encode()
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        expected = load_outcome(parse_edge_list, data.decode())
        assert load_outcome(cli._load_graph, str(path)) == expected
        if newline in ("\n", "\r", "\r\n"):
            assert expected == (
                "line 5: expected 'tail head', got 3 token(s)"
                if malformed
                else parse_edge_list("a b\nb c\nc a\n")
            )
        else:
            assert expected.startswith("line 1: ")

    @pytest.mark.parametrize("shift", range(-4, 5))
    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
    def test_line_across_a_slice_boundary(self, tmp_path, newline, shift):
        # parse_edge_list takes its text graph.BLOCK_SIZE characters at a
        # time; the comment puts each character of the lines after it at
        # that boundary in turn.
        lines = ["#" * (graph.BLOCK_SIZE - 4 + shift), "a b", "b a", "bad", ""]
        data = newline.join(lines).encode()
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        expected = "line 4: expected 'tail head', got 1 token(s)"
        assert load_outcome(parse_edge_list, data.decode()) == expected
        assert load_outcome(cli._load_graph, str(path)) == expected
        data = newline.join(lines[:3] + [""]).encode()
        path.write_bytes(data)
        assert load_outcome(parse_edge_list, data.decode()) == parse_edge_list("a b\nb a\n")
        assert load_outcome(cli._load_graph, str(path)) == parse_edge_list("a b\nb a\n")

    def test_random_inputs_agree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "BLOCK_SIZE", 7)
        rng = random.Random(12)
        pieces = ["a", "b", "é", "#", " ", "\t", "\ufeff", *NEWLINES.values()]
        path = tmp_path / "graph.txt"
        for _ in range(300):
            text = "".join(rng.choices(pieces, k=rng.randint(0, 60)))
            path.write_bytes(text.encode())
            expected = load_outcome(parse_edge_list, text)
            assert load_outcome(cli._load_graph, str(path)) == expected, repr(text)


def check_child(path: str, **kwargs) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``eulersafe check path`` run in a
    child limited to 60 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "eulersafe.cli", "check", path],
        capture_output=True, timeout=60, env=env, **kwargs,
    )
    return result.returncode, result.stdout.decode(), result.stderr.decode()


class TestUnseekableInput:
    """A FIFO or a pipe is read once, like a file, and a bad byte in it is
    reported with its offset from the start of the input."""

    BAD = RING_BYTES[:70_001] + b"\xff" + RING_BYTES[70_001:]
    BAD_ERROR = "parse error: input is not valid UTF-8: invalid start byte at byte 70001\n"

    def test_named_fifo(self, tmp_path):
        fifo = tmp_path / "graph.fifo"
        os.mkfifo(fifo)

        def feed():
            # The child closes the FIFO once it meets the bad byte.
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as handle:
                handle.write(self.BAD)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        outcome = check_child(str(fifo))
        # Frees a writer still waiting in open() for a child that never came.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert outcome == (2, "", self.BAD_ERROR)

    @pytest.mark.parametrize(
        "data, expected",
        [(BAD, (2, "", BAD_ERROR)), (RING_BYTES, (0, "eulerian\n", ""))],
        ids=["bad-byte", "valid"],
    )
    def test_pipe_on_dev_stdin(self, data, expected):
        assert check_child("/dev/stdin", input=data) == expected

    def test_endless_pipe_with_a_malformed_line(self):
        # Reading to the end of this input before reporting would never end.
        env = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "eulersafe.cli", "check", "/dev/stdin"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            bufsize=0, env=env,
        ) as child:

            def feed():
                with contextlib.suppress(BrokenPipeError):
                    while True:
                        child.stdin.write(b"a b c\n" * 1024)

            writer = threading.Thread(target=feed, daemon=True)
            writer.start()
            try:
                code = child.wait(timeout=60)
            finally:
                child.kill()
                writer.join(timeout=10)
            out, err = child.stdout.read(), child.stderr.read()
        assert not writer.is_alive()
        assert (code, out, err) == (
            2, b"", b"parse error: line 1: expected 'tail head', got 3 token(s)\n"
        )


class TestGen:
    def test_deterministic_output(self, capsys):
        assert cli.main(["gen", "6", "3", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["gen", "6", "3", "--seed", "11"]) == 0
        assert capsys.readouterr().out == first
        assert cli.main(["gen", "6", "3", "--seed", "12"]) == 0
        assert capsys.readouterr().out != first

    def test_output_is_eulerian(self, capsys):
        for seed in range(5):
            assert cli.main(["gen", "5", "2", "--seed", str(seed)]) == 0
            g = parse_edge_list(capsys.readouterr().out)
            assert is_eulerian(g)

    def test_stdout_is_the_library_text(self, capsys):
        assert cli.main(["gen", "4", "2", "--seed", "3"]) == 0
        edges = random_eulerian_edges(4, 2, seed=3)
        assert capsys.readouterr().out == "".join(f"{t} {h}\n" for t, h in edges)

    def test_equal_ids_share_one_label(self):
        edges = random_eulerian_edges(30, 20, seed=5)
        labels = {label for edge in edges for label in edge}
        assert len({id(label) for edge in edges for label in edge}) == len(labels)

    def test_bad_parameters(self, capsys):
        assert cli.main(["gen", "1", "2"]) == 2
        assert "at least 2 nodes" in capsys.readouterr().err

    def test_refuses_past_max_gen_edges(self, capsys):
        # Refused before any draw, so this returns at once.
        assert cli.main(["gen", "1000000", "1000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: random graph refused: ") and err.count("\n") == 1
        assert "up to 1000000000000 edges" in err

    def test_max_gen_edges_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr("eulersafe.generator.MAX_GEN_EDGES", 8)
        assert cli.main(["gen", "4", "2"]) == 0
        assert is_eulerian(parse_edge_list(capsys.readouterr().out))
        assert cli.main(["gen", "3", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: random graph refused: 3 nodes times 3 cycles may draw up to 9 edges, "
            "above MAX_GEN_EDGES = 8\n"
        )

    def test_gives_up_after_max_attempts(self, monkeypatch, capsys):
        monkeypatch.setattr("eulersafe.generator.MAX_ATTEMPTS", 0)
        assert cli.main(["gen", "6", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: could not draw a weakly connected graph in 0 attempts\n"
        )


TOP_USAGE = "usage: eulersafe [-h] {check,unique,safe,count,oracle-compare,gen} ...\n"
SAFE_USAGE = "usage: eulersafe safe [-h] [--format {text,structured}] path\n"
GEN_USAGE = "usage: eulersafe gen [-h] [--seed SEED] nodes cycles\n"


class TestParser:
    """The command table parses as argparse did: each usage error is
    argparse's stderr for it under Python 3.11, byte for byte, with exit 2
    and nothing on stdout."""

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2
        err = "eulersafe: error: the following arguments are required: command\n"
        assert capsys.readouterr() == ("", TOP_USAGE + err)

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2
        err = (
            "eulersafe: error: argument command: invalid choice: 'frobnicate' "
            "(choose from 'check', 'unique', 'safe', 'count', 'oracle-compare', 'gen')\n"
        )
        assert capsys.readouterr() == ("", TOP_USAGE + err)

    @pytest.mark.parametrize(
        "args", [["count", "G", "--method", "enumerate"], ["gen", "4", "2", "-o", "G"]],
        ids=["count-method", "gen-output"],
    )
    def test_removed_option_is_a_usage_error(self, tmp_path, args):
        path = tmp_path / "graph.txt"
        path.write_text(BIDIRECTED)
        argv = [str(path) if arg == "G" else arg for arg in args]
        result = run_cli(*argv)
        assert (result.returncode, result.stdout) == (2, "")
        error = f"eulersafe: error: unrecognized arguments: {argv[-2]} {argv[-1]}\n"
        assert result.stderr == TOP_USAGE + error
        assert path.read_text() == BIDIRECTED

    @pytest.mark.parametrize(
        "args, usage, error",
        [
            (["safe"], SAFE_USAGE, "the following arguments are required: path"),
            (["safe", "G", "extra"], TOP_USAGE, "unrecognized arguments: extra"),
            (["safe", "G", "--format", "xml"], SAFE_USAGE,
             "argument --format: invalid choice: 'xml' (choose from 'text', 'structured')"),
            (["gen", "x", "2"], GEN_USAGE, "argument nodes: invalid int value: 'x'"),
            # argparse read -1.5 as a negative number, a positional, not an option.
            (["gen", "-1.5", "2"], GEN_USAGE, "argument nodes: invalid int value: '-1.5'"),
            (["gen", "4", "2", "--seed", "y"], GEN_USAGE, "argument --seed: invalid int value: 'y'"),
            # argparse took a prefix of an option name; the table does not.
            (["safe", "G", "--form", "structured"], TOP_USAGE, "unrecognized arguments: --form structured"),
        ],
        ids=["no-path", "extra-positional", "bad-choice", "bad-int", "negative-float", "bad-int-option",
             "abbreviation"],
    )
    def test_usage_error(self, graph_file, capsys, args, usage, error):
        path = graph_file(FIGURE_EIGHT)
        with pytest.raises(SystemExit) as exc:
            cli.main([path if a == "G" else a for a in args])
        assert exc.value.code == 2
        prog = "eulersafe" if usage == TOP_USAGE else f"eulersafe {args[0]}"
        assert capsys.readouterr() == ("", f"{usage}{prog}: error: {error}\n")

    def test_option_forms_and_places(self, graph_file, capsys):
        path = graph_file(FIGURE_EIGHT)
        outputs = set()
        for args in (
            ["safe", path, "--format", "structured"],
            ["safe", path, "--format=structured"],
            ["safe", "--format", "structured", path],
            ["safe", "--format=structured", "--", path],
        ):
            assert cli.main(args) == 0
            outputs.add(capsys.readouterr())
        (out, err), = outputs
        assert out.startswith('{"edges":6,') and err == ""

    def test_lone_dash_and_negative_number_are_positionals(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text(TRIANGLE)
        assert cli.main(["check", "-"]) == 0
        assert cli.main(["gen", "4", "2", "--seed", "-1"]) == 0
        assert capsys.readouterr().out.startswith("eulerian\nv")

    @pytest.mark.parametrize("args", [["-h"], ["--help"], ["safe", "-h"], ["gen", "4", "--help"]])
    def test_help_exits_0(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        if len(args) == 1:
            assert out.startswith(TOP_USAGE)
            assert [line.split()[0] for line in out.splitlines()[4:]] == list(cli._COMMANDS)
        else:
            assert out.startswith(f"usage: eulersafe {args[0]} [-h]")
