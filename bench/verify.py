"""Check the program's outputs against a workload's closed-form answers.

Each check returns None when the output is right and a one-line reason
when it is not. Only the instance's own edge list is consulted.
"""
from __future__ import annotations

import json
from typing import Optional

from workloads import Instance

EXPECTED_RC = {True: 0, False: 1}


def crashed(stderr: str) -> Optional[str]:
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr: " + stderr.strip().splitlines()[-1][:200]
    return None


def check_check(rc: int, out: str, inst: Instance) -> Optional[str]:
    if rc != 0 or out.strip() != "eulerian":
        return f"check: exit {rc}, output {out.strip()[:80]!r}"
    return None


def check_unique(rc: int, out: str, inst: Instance) -> Optional[str]:
    want = "unique" if inst.unique else "not-unique"
    if rc != EXPECTED_RC[inst.unique] or out.strip() != want:
        return f"unique: exit {rc}, output {out.strip()[:80]!r}, expected {want!r}"
    return None


def check_count(rc: int, out: str, inst: Instance) -> Optional[str]:
    if rc != 0 or out.strip() != str(inst.count):
        return f"count: exit {rc}, output {out.strip()[:80]!r}, expected {inst.count}"
    return None


def check_pairs(rc: int, out: str, inst: Instance) -> Optional[str]:
    """``out`` holds one JSON line [safe, reason] per query, in order."""
    if rc != 0:
        return f"pairs: exit {rc}"
    try:
        verdicts = [tuple(json.loads(line)) for line in out.splitlines()]
    except ValueError:
        return "pairs: output is not JSON lines"
    return check_verdicts(verdicts, inst)


def check_verdicts(verdicts, inst: Instance) -> Optional[str]:
    """``verdicts`` are (safe, reason) pairs in the order of inst.pairs."""
    if len(verdicts) != len(inst.pairs):
        return f"pairs: {len(verdicts)} verdicts for {len(inst.pairs)} queries"
    for pair, got in zip(inst.pairs, verdicts):
        if got != (pair.safe, pair.reason):
            return f"pair ({pair.e1}, {pair.e2}): got {got}, expected {pair.reason}"
    return None


def check_walks(walks, unique: bool, inst: Instance) -> Optional[str]:
    """``walks`` is a list of (edge ids, node labels) as the program printed
    them; ``unique`` is the flag it printed."""
    if unique != inst.unique:
        return f"safe: unique flag {unique}, expected {inst.unique}"
    if len(walks) != inst.walks:
        return f"safe: {len(walks)} walks, expected {inst.walks}"
    edges = inst.edges
    m = len(edges)
    seen = bytearray(m)
    degrees = inst.degrees()
    for index, (ids, nodes) in enumerate(walks):
        if not ids or len(nodes) != len(ids) + 1:
            return f"safe: walk {index} has {len(ids)} edges and {len(nodes)} nodes"
        for i, e in enumerate(ids):
            if not 0 <= e < m or seen[e]:
                return f"safe: walk {index} repeats or invents edge {e}"
            seen[e] = 1
            if edges[e] != (nodes[i], nodes[i + 1]):
                return f"safe: walk {index} is not head-to-tail at edge {e}"
        if inst.unique:
            if ids[0] != 0 or nodes[0] != nodes[-1]:
                return "safe: the unique circuit is not closed or not anchored at edge 0"
        # Maximal: starts and ends where a transition is free, never inside.
        elif degrees[nodes[0]] < 3 or degrees[nodes[-1]] < 3:
            return f"safe: walk {index} ends at a forcing node"
        elif any(degrees[v] >= 3 for v in nodes[1:-1]):
            return f"safe: walk {index} passes a non-forcing node"
    if sum(seen) != m:
        return f"safe: walks cover {sum(seen)} of {m} edges"
    return None


def check_safe_text(rc: int, out: str, inst: Instance) -> Optional[str]:
    if rc != 0:
        return f"safe: exit {rc}"
    lines = out.splitlines()
    m = len(inst.edges)
    header = [
        f"edges: {m}",
        f"maximal safe walks: {inst.walks}",
        f"total length: {m}",
        f"unique circuit: {'yes' if inst.unique else 'no'}",
    ]
    if lines[:4] != header:
        return f"safe: header {lines[:4]!r:.200}"
    walks = []
    for index, line in enumerate(lines[4:]):
        prefix, _, rest = line.partition(": ")
        nodes, _, ids = rest.rpartition(" [edges ")
        if not prefix.startswith(f"walk {index} (length ") or not ids.endswith("]"):
            return f"safe: malformed walk line {index}"
        edge_ids = [int(x) for x in ids[:-1].split()]
        if prefix != f"walk {index} (length {len(edge_ids)})":
            return f"safe: walk {index} states the wrong length"
        walks.append((edge_ids, nodes.split(" -> ")))
    return check_walks(walks, inst.unique, inst)


def check_safe_structured(rc: int, out: str, inst: Instance) -> Optional[str]:
    if rc != 0:
        return f"safe: exit {rc}"
    lines = out.splitlines()
    m = len(inst.edges)
    try:
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except (IndexError, ValueError) as exc:
        return f"safe: structured output is not JSON lines ({exc})"
    want = {"edges": m, "record": "header", "total_length": m, "unique": inst.unique, "walks": inst.walks}
    if header != want:
        return f"safe: header {header!r:.200}"
    walks = []
    for index, rec in enumerate(records):
        if rec.get("record") != "walk" or rec.get("index") != index:
            return f"safe: record {index} is not walk {index}"
        if rec.get("length") != len(rec.get("edges", ())):
            return f"safe: walk {index} states the wrong length"
        walks.append((rec["edges"], rec["nodes"]))
    return check_walks(walks, header["unique"], inst)
