"""Command-line front end, one route per answer: ``count`` is the
block-factored count, and the oracles run only under ``oracle-compare``.

Exit codes: 0 for an affirmative verdict or success, 1 for a negative
verdict (not Eulerian, not unique, oracle mismatch), 2 for usage, I/O, or
parse errors (a label that stdout cannot encode is an I/O error), for a
count or an oracle comparison refused by its size bounds (see
``circuit.MAX_BLOCK_NODES``, ``circuit.MAX_COUNT_DIGITS`` and
``oracles.MAX_STATE_WORK``), and for running out of memory.
"""
from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from types import SimpleNamespace

# Each command imports the rest of what it runs, so that start-up pays only
# for the code that command uses.
from .graph import Graph, GraphError, ParseError, _read_edge_list, is_eulerian


def _load_graph(path: str) -> Graph:
    """The graph of the edge list at ``path``, parsed as it is read."""
    with open(path, "rb") as handle:
        return _read_edge_list(handle)


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
    from .safety import _safe_walks

    g = _load_graph(args.path)
    count, unique, succ, starts = _safe_walks(g)
    write = sys.stdout.write
    # The walks partition the edges, so their total length is |E|.
    if args.format == "structured":
        write(
            f'{{"edges":{g.num_edges},"record":"header","total_length":{g.num_edges},'
            f'"unique":{"true" if unique else "false"},"walks":{count}}}\n'
        )
        _write_structured_walks(write, g, succ, starts)
    else:
        write(
            f"edges: {g.num_edges}\n"
            f"maximal safe walks: {count}\n"
            f"total length: {g.num_edges}\n"
            f"unique circuit: {'yes' if unique else 'no'}\n"
        )
        _write_text_walks(write, g, succ, starts)
    return 0


# `safe` writes a walk longer than this many edges in pieces of this many.
WALK_CHUNK = 4096


def _flush(write, batch: list[str]) -> None:
    """Write the batched walk lines, if any, as one string.

    Walk lines go out joined, 1024 per write. A write per line costs a
    system call each when stdout is unbuffered; one write of everything
    would hold every line, and then their join, in memory. The header has
    its own write. A one-edge walk's line is formatted straight from the
    edge arrays; every other walk is followed by ``safety._walk`` only when
    its turn comes, and its line is built by :func:`_write_pieces`.
    """
    if batch:
        write("".join(batch))
        batch.clear()


def _write_pieces(write, batch: list[str], walk: Sequence[int], pieces: Iterable[str]) -> None:
    """Add the line of ``walk``, given as its ``pieces``, to the batch; or,
    past ``WALK_CHUNK`` edges, flush the batch and write the line one piece
    at a time, so that no write holds all of it. Each of a long line's
    pieces holds at most ``WALK_CHUNK`` edges."""
    if len(walk) <= WALK_CHUNK:
        batch.append("".join(pieces))
        return
    _flush(write, batch)
    for piece in pieces:
        write(piece)


def _write_text_walks(write, g: Graph, succ: Sequence[int], starts: Iterable[int]) -> None:
    from .safety import _walk

    labels = g.labels
    tails = g.tails
    heads = g.heads

    def pieces(index: int, walk: Sequence[int]) -> Iterator[str]:
        yield f"walk {index} (length {len(walk)}): {labels[tails[walk[0]]]}"
        for i in range(0, len(walk), WALK_CHUNK):
            yield " -> " + " -> ".join([labels[heads[e]] for e in walk[i : i + WALK_CHUNK]])
        yield " [edges"
        for i in range(0, len(walk), WALK_CHUNK):
            yield " " + " ".join(map(str, walk[i : i + WALK_CHUNK]))
        yield "]\n"

    batch: list[str] = []
    for index, first in enumerate(starts):
        if succ[first] < 0:
            batch.append(
                f"walk {index} (length 1): {labels[tails[first]]} -> {labels[heads[first]]} "
                f"[edges {first}]\n"
            )
        else:
            walk = _walk(succ, first)
            _write_pieces(write, batch, walk, pieces(index, walk))
        if len(batch) == 1024:
            _flush(write, batch)
    _flush(write, batch)


def _write_structured_walks(write, g: Graph, succ: Sequence[int], starts: Iterable[int]) -> None:
    from json.encoder import encode_basestring_ascii

    from .safety import _walk

    # json.dumps escapes strings with this same function under its default
    # ensure_ascii=True, so every record matches
    # json.dumps(record, sort_keys=True, separators=(",", ":")) byte for
    # byte. It leaves a string unchanged only if no character in it needs
    # escaping, and it never escapes a space, so WALK_CHUNK labels joined
    # by spaces show at once whether any of them needs it. If none does,
    # the labels are written as they are, with no copy of them held;
    # otherwise each is escaped once, into a table without its quotes.
    labels = names = g.labels
    for i in range(0, len(labels), WALK_CHUNK):
        chunk = " ".join(labels[i : i + WALK_CHUNK])
        if encode_basestring_ascii(chunk) != f'"{chunk}"':
            names = [encode_basestring_ascii(label)[1:-1] for label in labels]
            break
    tails = g.tails
    heads = g.heads

    def pieces(index: int, walk: Sequence[int]) -> Iterator[str]:
        separator = '{"edges":['
        for i in range(0, len(walk), WALK_CHUNK):
            yield separator + ",".join(map(str, walk[i : i + WALK_CHUNK]))
            separator = ","
        yield f'],"index":{index},"length":{len(walk)},"nodes":["{names[tails[walk[0]]]}'
        for i in range(0, len(walk), WALK_CHUNK):
            yield '","' + '","'.join([names[heads[e]] for e in walk[i : i + WALK_CHUNK]])
        yield '"],"record":"walk"}\n'

    batch: list[str] = []
    for index, first in enumerate(starts):
        if succ[first] < 0:
            batch.append(
                f'{{"edges":[{first}],"index":{index},"length":1,'
                f'"nodes":["{names[tails[first]]}","{names[heads[first]]}"],"record":"walk"}}\n'
            )
        else:
            walk = _walk(succ, first)
            _write_pieces(write, batch, walk, pieces(index, walk))
        if len(batch) == 1024:
            _flush(write, batch)
    _flush(write, batch)


def cmd_count(args) -> int:
    from .circuit import count_circuits

    _print_exact(count_circuits(_load_graph(args.path)))
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
    # The two bounded oracles refuse first, before any other oracle runs.
    oracles.require_best_size(g)
    states = oracles.count_by_states(g)

    failures = []
    best = oracles.count_best(g)
    blocks = count_circuits(g)
    unique = safety.has_unique_eulerian_circuit(g)
    if not blocks == best.epsilon == states:
        failures.append(
            f"circuit count: block factorization gives {blocks}, determinant formula "
            f"gives {best.epsilon}, state count gives {states}"
        )
    if unique != (states == 1):
        failures.append(f"uniqueness: linear-time verdict {unique}, state count {states}")
    # Both list the walks by first edge id, a unique circuit from edge 0.
    if safety.maximal_safe_walks(g) != oracles.brute_force_safe_walks(g):
        failures.append("maximal safe walks differ from brute-force result")
    intersection = oracles.pevzner_intersection_graph(g)
    if intersection.is_tree != unique:
        failures.append(
            f"uniqueness: cycle-intersection tree test gives {intersection.is_tree}, "
            f"linear-time verdict {unique}"
        )
    if failures:
        print("\n".join(f"FAIL: {failure}" for failure in failures))
        return 1
    print("PASS")
    return 0


def cmd_gen(args) -> int:
    from .generator import _draw

    tails, heads = _draw(args.nodes, args.cycles, args.seed)
    write = sys.stdout.write
    # Lines go out joined, 1024 per write, straight from the node ids, so
    # that neither a label pair per edge nor the whole text is held.
    for i in range(0, len(tails), 1024):
        write("".join([f"v{t} v{h}\n" for t, h in zip(tails[i : i + 1024], heads[i : i + 1024])]))
    return 0


# The commands, in the order -h lists them: each one's help line, its
# positionals and its options, with their types or choices. An option's
# default is its first choice, or its type's zero. main() looks cmd_<command>
# up, dashes as underscores, when it runs it.
_COMMANDS = {
    "check": ("is the graph Eulerian?", {"path": str}, {}),
    "unique": ("does the graph have a unique Eulerian circuit?", {"path": str}, {}),
    "safe": ("compute all maximal safe walks", {"path": str}, {"format": ("text", "structured")}),
    "count": ("count Eulerian circuits (rotation classes)", {"path": str}, {}),
    "oracle-compare": ("cross-check the linear-time results against oracles", {"path": str}, {}),
    "gen": ("emit a random Eulerian multigraph edge list", {"nodes": int, "cycles": int}, {"seed": int}),
}
_USAGE = f"eulersafe [-h] {{{','.join(_COMMANDS)}}} ..."


def _usage_error(usage: str, message: str) -> None:
    """Write argparse's two lines for a usage error and exit 2."""
    sys.stderr.write(f"usage: {usage}\n{usage.partition(' [')[0]}: error: {message}\n")
    raise SystemExit(2)


def _value(usage: str, name: str, kind, text: str):
    """``text`` as argument ``name``, of type ``kind`` or one of its choices."""
    if isinstance(kind, tuple):
        if text in kind:
            return text
        message = f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
    else:
        try:
            return kind(text)
        except ValueError:
            message = f"invalid {kind.__name__} value: {text!r}"
    _usage_error(usage, f"argument {name}: {message}")


def _parse(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The command ``argv`` names and its arguments, by its ``_COMMANDS`` row
    and argparse's rules: "-" and a negative number (-1, -.5) are positionals."""
    if argv[:1] in (["-h"], ["--help"]):
        rows = "".join(f"  {name:<16}{row[0]}\n" for name, row in _COMMANDS.items())
        print(f"usage: {_USAGE}\n\nEulerian circuit uniqueness and maximal safe walks\n\n{rows}", end="")
        raise SystemExit(0)
    if not argv:
        _usage_error(_USAGE, "the following arguments are required: command")
    name = _value(_USAGE, "command", tuple(_COMMANDS), argv[0])
    about, positionals, options = _COMMANDS[name]
    wanted = list(positionals)
    usage = f"eulersafe {name} [-h]" + "".join(
        f" [--{k} {{{','.join(v)}}}]" if isinstance(v, tuple) else f" [--{k} {k.upper()}]"
        for k, v in options.items()
    ) + "".join(f" {key}" for key in wanted)
    args = SimpleNamespace(**{k: v[0] if isinstance(v, tuple) else v() for k, v in options.items()})
    extra, ended = [], False
    tokens = iter(argv[1:])
    for token in tokens:
        key, eq, text = token[2:].partition("=")
        number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
        if ended or token[:1] != "-" or token == "-" or number:
            if wanted:
                dest = wanted.pop(0)
                setattr(args, dest, _value(usage, dest, positionals[dest], token))
            else:
                extra.append(token)
        elif token == "--":
            ended = True
        elif token in ("-h", "--help"):
            print(f"usage: {usage}\n\n{about}")
            raise SystemExit(0)
        elif token[:2] == "--" and key in options:
            if not eq:
                text = next(tokens, None)
                if text is None:
                    _usage_error(usage, f"argument --{key}: expected one argument")
            setattr(args, key, _value(usage, f"--{key}", options[key], text))
        else:
            extra.append(token)
    if wanted:
        _usage_error(usage, f"the following arguments are required: {', '.join(wanted)}")
    if extra:
        _usage_error(_USAGE, f"unrecognized arguments: {' '.join(extra)}")
    return name, args


def main(argv: list[str] | None = None) -> int:
    name, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return globals()["cmd_" + name.replace("-", "_")](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, GraphError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
