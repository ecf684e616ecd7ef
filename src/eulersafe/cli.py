"""Command-line front end.

Exit codes: 0 for an affirmative verdict or success, 1 for a negative
verdict (not Eulerian, not unique, oracle mismatch, enumeration cap hit),
2 for usage, I/O, or parse errors, for a count or an oracle comparison
refused by its size bounds (see ``circuit.MAX_BLOCK_NODES`` and
``circuit.MAX_COUNT_DIGITS``), and for running out of memory.
"""
from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

# Each command imports the rest of what it runs, so that start-up pays only
# for the code that command uses.
from .graph import Graph, GraphError, ParseError, is_eulerian, parse_edge_list

if TYPE_CHECKING:
    from .safety import SafeWalkReport


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_edge_list(text)


def cmd_check(args) -> int:
    g = _load_graph(args.path)
    check = is_eulerian(g)
    if check.ok:
        print("eulerian")
        return 0
    print(f"not eulerian: {check.reason} ({check.detail})")
    return 1


def cmd_unique(args) -> int:
    from .safety import has_unique_eulerian_circuit

    g = _load_graph(args.path)
    if has_unique_eulerian_circuit(g):
        print("unique")
        return 0
    print("not-unique")
    return 1


def cmd_safe(args) -> int:
    from .safety import maximal_safe_walks

    g = _load_graph(args.path)
    report = maximal_safe_walks(g)
    write = sys.stdout.write
    if args.format == "structured":
        import json

        header = {
            "record": "header",
            "edges": g.num_edges,
            "walks": len(report.walks),
            "total_length": report.total_edge_length,
            "unique": report.unique_circuit,
        }
        write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        lines = _structured_walk_lines(g, report)
    else:
        write(
            f"edges: {g.num_edges}\n"
            f"maximal safe walks: {len(report.walks)}\n"
            f"total length: {report.total_edge_length}\n"
            f"unique circuit: {'yes' if report.unique_circuit else 'no'}\n"
        )
        lines = _text_walk_lines(g, report)
    # Walk lines go out joined, 1024 per write. A write per line costs a
    # system call each when stdout is unbuffered; one write of everything
    # would hold every line, and then their join, in memory. The header has
    # its own write, so that a lone walk (a unique circuit) is written
    # without a joined copy.
    for _ in range(0, len(report.walks), 1024):
        write("".join(islice(lines, 1024)))
    return 0


def _text_walk_lines(g: Graph, report: SafeWalkReport) -> Iterator[str]:
    labels = g.labels
    tails = g.tails
    heads = g.heads
    for index, walk in enumerate(report.walks):
        nodes = " -> ".join([labels[heads[e]] for e in walk])
        ids = " ".join(map(str, walk))
        yield (
            f"walk {index} (length {len(walk)}): {labels[tails[walk[0]]]} -> {nodes} "
            f"[edges {ids}]\n"
        )


def _structured_walk_lines(g: Graph, report: SafeWalkReport) -> Iterator[str]:
    from json.encoder import encode_basestring_ascii

    # json.dumps escapes strings with this same function under its default
    # ensure_ascii=True, so each label is encoded once and every record
    # matches json.dumps(record, sort_keys=True, separators=(",", ":"))
    # byte for byte.
    quoted = [encode_basestring_ascii(label) for label in g.labels]
    tails = g.tails
    heads = g.heads
    for index, walk in enumerate(report.walks):
        edges = ",".join(map(str, walk))
        nodes = ",".join([quoted[heads[e]] for e in walk])
        yield (
            f'{{"edges":[{edges}],"index":{index},"length":{len(walk)},'
            f'"nodes":[{quoted[tails[walk[0]]]},{nodes}],"record":"walk"}}\n'
        )


def cmd_count(args) -> int:
    g = _load_graph(args.path)
    if args.method == "best":
        from .circuit import count_circuits

        _print_exact(count_circuits(g))
        return 0
    from .oracles import count_eulerian_circuits

    count, capped = count_eulerian_circuits(g, cap=args.cap)
    if capped:
        print(f">= {count}")
        return 1
    print(count)
    return 0


def _print_exact(n: int) -> None:
    """Print an integer of any length. Interpreters that cap int-to-str
    conversion (``sys.set_int_max_str_digits``) would refuse a count
    such as (d - 1)! for one node with 2000 self-loops."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        print(n)
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        print(n)
    finally:
        set_limit(limit)


def cmd_oracle_compare(args) -> int:
    from . import oracles, safety
    from .circuit import count_circuits

    g = _load_graph(args.path)
    # A raw multigraph has far more circuits per edge than a simple graph
    # (one node with k loops has (k - 1)!), so the cap counts the edges of
    # the normalized graph, where each loop and parallel copy counts twice.
    # The raw graph has the same circuits and a search tree no larger.
    # Normalization would split each rewritten edge in two, so the count
    # needs no normalized graph. Every oracle below runs on the raw graph.
    normalized_edges = g.num_edges + len(oracles._rewritten_edges(g))
    if normalized_edges > args.max_edges:
        print(
            f"skipped: enumeration infeasible (|E|={normalized_edges} after normalization "
            f"> {args.max_edges})"
        )
        return 0
    oracles.require_best_size(g)

    failures = []
    enumerated, _ = oracles.count_eulerian_circuits(g)
    best = oracles.count_best(g)
    blocks = count_circuits(g)
    unique = safety.has_unique_eulerian_circuit(g)
    if not blocks == best.epsilon == enumerated:
        failures.append(
            f"circuit count: block factorization gives {blocks}, determinant formula "
            f"gives {best.epsilon}, enumeration gives {enumerated}"
        )
    if unique != (enumerated == 1):
        failures.append(
            f"uniqueness: linear-time verdict {unique}, enumeration count {enumerated}"
        )
    report = safety.maximal_safe_walks(g)
    brute = oracles.brute_force_safe_walks(g)
    if _walk_multiset(report) != _walk_multiset(brute):
        failures.append("maximal safe walks differ from brute-force result")
    if report.total_edge_length != g.num_edges:
        failures.append(
            f"conservation: walks cover {report.total_edge_length} of {g.num_edges} edges"
        )
    intersection = oracles.pevzner_intersection_graph(g)
    if intersection.is_tree != unique:
        failures.append(
            f"uniqueness: cycle-intersection tree test gives {intersection.is_tree}, "
            f"linear-time verdict {unique}"
        )
    if failures:
        print(f"FAIL: {failures[0]}")
        return 1
    print("PASS")
    return 0


def _walk_multiset(report: SafeWalkReport):
    from .circuit import canonical_rotation

    walks = report.walks
    if report.unique_circuit:
        walks = tuple(canonical_rotation(w) for w in walks)
    return sorted(walks)


def cmd_gen(args) -> int:
    from . import generator

    edges = generator.random_eulerian_edges(args.nodes, args.cycles, seed=args.seed)
    text = generator.edge_list_text(edges)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulersafe",
        description="Eulerian circuit uniqueness and maximal safe walks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="is the graph Eulerian?")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("unique", help="does the graph have a unique Eulerian circuit?")
    p.add_argument("path")
    p.set_defaults(func=cmd_unique)

    p = sub.add_parser("safe", help="compute all maximal safe walks")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_safe)

    p = sub.add_parser("count", help="count Eulerian circuits (rotation classes)")
    p.add_argument("path")
    p.add_argument("--method", choices=("best", "enumerate"), default="best")
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "oracle-compare", help="cross-check the linear-time results against oracles"
    )
    p.add_argument("path")
    p.add_argument(
        "--max-edges", type=int, default=14,
        help="skip graphs with more edges after normalization (default 14)",
    )
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("gen", help="emit a random Eulerian multigraph edge list")
    p.add_argument("nodes", type=int)
    p.add_argument("cycles", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
