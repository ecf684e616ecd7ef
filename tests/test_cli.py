"""End-to-end command-line behavior, including exit codes."""
import argparse
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

import eulersafe
from eulersafe import cli, parse_edge_list, is_eulerian, maximal_safe_walks, walk_nodes
from eulersafe.circuit import MAX_BLOCK_NODES, MAX_COUNT_DIGITS
from eulersafe.oracles import pevzner_intersection_graph
from eulersafe.safety import SafeWalkReport
from test_safety import raw_multigraphs

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
                total_length=report.total_edge_length,
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
        f"total length: {report.total_edge_length}",
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
    """`safe` encodes each label once and writes line by line; its stdout
    must equal the record-by-record reference byte for byte."""

    @staticmethod
    def stdout_of(g, fmt, monkeypatch, capsys) -> str:
        monkeypatch.setattr(cli, "_load_graph", lambda path: g)
        assert cli.cmd_safe(argparse.Namespace(path="-", format=fmt)) == 0
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

    def test_corpus(self, corpus_5, monkeypatch, capsys, fmt):
        for g in corpus_5:
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

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("walks", [1, 1023, 1024, 1025, 3000])
    def test_write_count(self, graph_file, monkeypatch, fmt, walks):
        text = hub_graph(walks)
        g = parse_edge_list(text)
        assert len(maximal_safe_walks(g).walks) == walks
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["safe", graph_file(text), "--format", fmt]) == 0
        assert "".join(stdout.writes) == reference_safe_output(g, fmt)
        assert len(stdout.writes) <= -(-walks // 1024) + 1
        walk_marker = "(length " if fmt == "text" else '"record":"walk"'
        assert max(w.count(walk_marker) for w in stdout.writes) <= 1024

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
        assert (
            cli.main(["count", graph_file(BIDIRECTED), "--method", "enumerate"]) == 0
        )
        assert capsys.readouterr().out.strip() == "3"

    def test_cap_hit(self, graph_file, capsys):
        assert (
            cli.main(
                [
                    "count",
                    graph_file(BIDIRECTED),
                    "--method",
                    "enumerate",
                    "--cap",
                    "2",
                ]
            )
            == 1
        )
        assert capsys.readouterr().out.strip() == ">= 2"

    def test_multigraph_counted_after_normalization(self, graph_file, capsys):
        assert cli.main(["count", graph_file(MULTI)]) == 0
        count = int(capsys.readouterr().out)
        assert count >= 2


class TestOracleCompare:
    def test_pass(self, graph_file, capsys):
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_pass_on_multigraph(self, graph_file, capsys):
        assert cli.main(["oracle-compare", graph_file(MULTI)]) == 0
        assert capsys.readouterr().out.strip() == "PASS"

    def test_skip_when_too_large(self, graph_file, capsys):
        assert (
            cli.main(
                ["oracle-compare", graph_file(FIGURE_EIGHT), "--max-edges", "5"]
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("skipped: enumeration infeasible")

    def test_counter_fault_is_caught(self, graph_file, capsys, monkeypatch):
        monkeypatch.setattr("eulersafe.circuit.count_circuits", lambda g: 4)
        assert cli.main(["oracle-compare", graph_file(BIDIRECTED)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: circuit count: block factorization gives 4")

    def test_fault_injection_is_caught(self, graph_file, capsys, monkeypatch):
        # Break the pipeline on purpose; the oracles must notice.
        def wrong(g, norm_map=None):
            return SafeWalkReport(
                walks=tuple((e,) for e in range(g.num_edges)),
                unique_circuit=False,
                total_edge_length=g.num_edges,
            )

        monkeypatch.setattr("eulersafe.safety.maximal_safe_walks", wrong)
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL:")
        assert "safe walks" in out

    @pytest.mark.parametrize(
        "text, max_edges, normalized",
        [(FIGURE_EIGHT, "5", 6), ("a a\n" * 14, "14", 28), (MULTI, "5", 6)],
        ids=["simple", "loops", "parallel"],
    )
    def test_skip_before_normalizing(
        self, graph_file, capsys, monkeypatch, text, max_edges, normalized
    ):
        def refuse(g):
            raise AssertionError("normalize ran on a graph over the cap")

        monkeypatch.setattr("eulersafe.oracles.normalize", refuse)
        assert cli.main(["oracle-compare", graph_file(text), "--max-edges", max_edges]) == 0
        assert capsys.readouterr().out == (
            f"skipped: enumeration infeasible (|E|={normalized} after normalization "
            f"> {max_edges})\n"
        )

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
            assert out == "PASS\n" or out.startswith("skipped: "), (edges, out)
            multigraph = len(set(edges)) < len(edges) or any(t == h for t, h in edges)
            outcomes[out[:4], multigraph] += 1
        assert outcomes["PASS", True] > 50

    def test_pevzner_fault_is_caught(self, graph_file, capsys, monkeypatch):
        # A cycle-intersection verdict that disagrees with uniqueness fails.
        def flipped(g):
            verdict = pevzner_intersection_graph(g)
            return verdict._replace(is_tree=not verdict.is_tree)

        monkeypatch.setattr("eulersafe.oracles.pevzner_intersection_graph", flipped)
        assert cli.main(["oracle-compare", graph_file(FIGURE_EIGHT)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "FAIL: uniqueness: cycle-intersection tree test gives False, "
            "linear-time verdict True"
        )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m eulersafe.cli`` in a child limited to 60 s and 2 GiB of
    address space, so a runaway allocation fails in the child, not the
    machine."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(eulersafe.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "eulersafe.cli", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
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


def cactus_edges(num_nodes: int, seed: int) -> list[tuple[str, str]]:
    """Directed cycles of length 2 to 6, each attached at a random node of
    the cactus built so far."""
    rng = random.Random(seed)
    edges = []
    n = 1
    while n < num_nodes:
        k = min(rng.randint(2, 6), num_nodes - n + 1)
        cycle = [rng.randrange(n), *range(n, n + k - 1)]
        n += k - 1
        edges += [(f"c{cycle[i]}", f"c{cycle[(i + 1) % k]}") for i in range(k)]
    return edges


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
        # the determinant bound, refused before any factorial.
        path = str(tmp_path / "dense.txt")
        assert run_cli("gen", "2000", "1000", "--seed", "7", "-o", path).returncode == 0
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
        text = "".join(f"r{i} r{(i + 1) % 1500}\n" for i in range(1500))
        result = run_cli("count", graph_file(text), "--method", "enumerate")
        assert (result.returncode, result.stdout) == (0, "1\n")

    def test_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"\xff\xfe a b\n")
        result = run_cli("check", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("parse error: input is not valid UTF-8")
        assert result.stderr.count("\n") == 1

    def test_block_above_bound_is_refused(self, graph_file):
        k = MAX_BLOCK_NODES + 1
        text = "".join(f"b{i} b{(i + 1) % k}\nb{(i + 1) % k} b{i}\n" for i in range(k))
        result = run_cli("count", graph_file(text))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: exact count refused")
        assert result.stderr.count("\n") == 1

    def test_oracle_compare_many_loops_is_skipped(self, graph_file):
        # 14 raw edges but 13! circuits; normalized, the loops count twice.
        result = run_cli("oracle-compare", graph_file("a a\n" * 14))
        assert result.returncode == 0
        assert result.stdout == "skipped: enumeration infeasible (|E|=28 after normalization > 14)\n"

    def test_oracle_compare_long_ring_is_refused(self, graph_file):
        # The dense BEST oracle would need a 1499-row determinant.
        text = "".join(f"r{i} r{(i + 1) % 1500}\n" for i in range(1500))
        result = run_cli("oracle-compare", graph_file(text), "--max-edges", "5000")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: oracle comparison refused")
        assert result.stderr.count("\n") == 1


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

    def test_write_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "gen.txt"
        assert cli.main(["gen", "4", "2", "--seed", "3", "-o", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        g = parse_edge_list(out_path.read_text())
        assert is_eulerian(g)

    def test_bad_parameters(self, capsys):
        assert cli.main(["gen", "1", "2"]) == 2
        assert "at least 2 nodes" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2
