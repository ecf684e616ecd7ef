"""Answer a batch of pair queries through eulersafe's library path.

    python3 bench/pairs.py GRAPH '[[e1, e2], ...]'

Follows the README: parse the edge list, normalize it, build one
SafePairChecker, then ask each query. Query ids are input edge ids; an
edge that normalization leaves intact keeps one normalized id, found
through the NormalizationMap. Prints one JSON line [safe, reason] per
query.
"""
import json
import sys

from eulersafe import SafePairChecker, normalize, parse_edge_list


def main(path: str, queries: list[list[int]]) -> None:
    with open(path, encoding="utf-8") as handle:
        g = parse_edge_list(handle.read())
    ng, nm = normalize(g)
    wanted = {e for pair in queries for e in pair}
    ids = {o: e for e, (o, h) in enumerate(zip(nm.origin, nm.half)) if h == 0 and o in wanted}
    checker = SafePairChecker(ng)
    for e1, e2 in queries:
        verdict = checker.check(ids[e1], ids[e2])
        print(json.dumps([verdict.safe, verdict.reason]))


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]))
