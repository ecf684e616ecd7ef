"""Traced run: per-layer timings and counters for one workload.

The benchmark's own code calls the public functions of each eulersafe
module (names in ``eulersafe.__all__`` plus ``cli.main``) in the order the
CLI uses them, and records one span around each call: name, start, end,
parent span and run id. Spans stay in memory and are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl`` when the run ends.

A layer function that no longer exists is reported as absent: its metrics
are left out and listed on stderr, and the run goes on.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import verify
from workloads import Instance


class Absent(Exception):
    """A layer function this step needs is not in the program."""


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        result = {}
        for s in self.spans:
            covered = 0.0
            reach = s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[s["id"]] = s["end"] - s["start"] - covered
        return result

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path, extra: list[dict]) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")
            for record in extra:
                out.write(json.dumps(record) + "\n")


def api(name: str):
    """A public eulersafe name, or Absent."""
    import eulersafe

    if name == "cli.main":
        from eulersafe import cli

        found = getattr(cli, "main", None)
    else:
        found = getattr(eulersafe, name, None) if name in getattr(eulersafe, "__all__", ()) else None
    if found is None:
        raise Absent(name)
    return found


# Metric name -> the public names its step calls.
NEEDS = {
    "graph.parse_s": ["parse_edge_list"],
    "graph.build_s": ["Graph"],
    "graph.is_eulerian_s": ["is_eulerian"],
    "graph.normalize_s": ["normalize"],
    "graph.project_s": ["normalize", "maximal_safe_walks"],
    "graph.walk_nodes_s": ["walk_nodes", "maximal_safe_walks"],
    "undirected.build_s": ["underlying_undirected"],
    "undirected.cut_s": ["underlying_undirected", "articulation_points"],
    "undirected.split_s": ["underlying_undirected", "component_split"],
    "circuit.hierholzer_s": ["find_eulerian_circuit"],
    "safety.classify_s": ["classify_nodes"],
    "safety.walks_s": ["normalize", "maximal_safe_walks"],
    "safety.unique_s": ["has_unique_eulerian_circuit"],
    "safety.pair_init_s": ["SafePairChecker"],
    "safety.pair_check_s": ["SafePairChecker"],
    "oracles.best_s": ["normalize", "count_best"],
    "cli.safe_text_s": ["cli.main"],
    "cli.safe_structured_s": ["cli.main"],
}
PEAKS = {
    "graph.normalize_peak_mb": ["normalize"],
    "safety.walks_peak_mb": ["normalize", "maximal_safe_walks"],
    "oracles.best_peak_mb": ["normalize", "count_best"],
}
# cli.main minus the layer spans it is made of (labelled derived).
DERIVED = {
    "cli.text_self_s": ("cli.safe_text_s", ["graph.parse_s", "graph.normalize_s", "safety.walks_s"]),
    "cli.structured_self_s": ("cli.safe_structured_s", ["graph.parse_s", "graph.normalize_s", "safety.walks_s"]),
}


def available(names) -> bool:
    try:
        for name in names:
            api(name)
    except Absent:
        return False
    return True


class LayerPass:
    """One traced pass over every layer on one workload's inputs."""

    def __init__(self, co, inst: Instance, tracer: Tracer, tally):
        self.co = co
        self.inst = inst
        self.tracer = tracer
        self.tally = tally
        self.text = co.graph.read_text(encoding="utf-8")
        self.count_text = co.count_graph.read_text(encoding="utf-8")
        self.counters: dict[str, int] = {}

    def timed(self, metric: str, fn, *args, **kwargs):
        with self.tracer.span(metric[: -len("_s")]):
            return fn(*args, **kwargs)

    def run(self) -> None:
        a = api
        inst = self.inst
        if not available(NEEDS["graph.parse_s"]):
            return
        g = self.timed("graph.parse_s", a("parse_edge_list"), self.text)
        if available(NEEDS["graph.build_s"]):
            self.timed("graph.build_s", a("Graph"), inst.edges)
        if available(NEEDS["graph.is_eulerian_s"]):
            ok = self.timed("graph.is_eulerian_s", a("is_eulerian"), g)
            self.tally.record(None if ok else "is_eulerian: rejected an Eulerian graph")
        ng, nm = g, None
        if available(NEEDS["graph.normalize_s"]):
            ng, nm = self.timed("graph.normalize_s", a("normalize"), g)
            self.counters["graph.rewritten_edges"] = nm.self_loops + nm.parallel_duplicates
            self.counters["graph.normalized_edges"] = ng.num_edges
        u = None
        if available(NEEDS["undirected.build_s"]):
            u = self.timed("undirected.build_s", a("underlying_undirected"), ng)
            if available(NEEDS["undirected.cut_s"]):
                cuts = self.timed("undirected.cut_s", a("articulation_points"), u)
                self.counters["undirected.cut_nodes"] = len(cuts)
        if available(NEEDS["circuit.hierholzer_s"]):
            stats: dict = {}
            self.timed("circuit.hierholzer_s", a("find_eulerian_circuit"), ng, stats=stats)
            self.counters["circuit.stack_pushes"] = stats.get("stack_pushes", 0)
        if available(NEEDS["safety.classify_s"]):
            classes = self.timed("safety.classify_s", a("classify_nodes"), ng)
            self.counters["safety.forcing_nodes"] = sum(c.in_a for c in classes.values())
        if available(NEEDS["safety.walks_s"]):
            report = self.timed("safety.walks_s", a("maximal_safe_walks"), ng, norm_map=nm)
            self.counters["safety.walks"] = len(report.walks)
            self.counters["safety.max_walk_edges"] = max(len(w) for w in report.walks)
            if available(NEEDS["graph.walk_nodes_s"]):
                walk_nodes = a("walk_nodes")
                with self.tracer.span("graph.walk_nodes"):
                    walks = [(w, walk_nodes(g, w)) for w in report.walks]
                self.tally.record(verify.check_walks(walks, report.unique_circuit, inst))
            # Projection on its own: the same walks, computed unprojected.
            raw = a("maximal_safe_walks")(ng)
            with self.tracer.span("graph.project"):
                for w in raw.walks:
                    nm.project(w, circular=raw.unique_circuit)
        if available(NEEDS["safety.unique_s"]):
            unique = self.timed("safety.unique_s", a("has_unique_eulerian_circuit"), g)
            self.tally.record(None if unique == inst.unique else "has_unique_eulerian_circuit: wrong verdict")
        self.pairs(ng, nm, u)
        if available(NEEDS["oracles.best_s"]):
            cg, _ = a("normalize")(a("parse_edge_list")(self.count_text))
            best = self.timed("oracles.best_s", a("count_best"), cg)
            self.counters["oracles.laplacian_dim"] = cg.num_nodes - 1
            self.counters["oracles.count_digits"] = len(str(best.epsilon))
            self.tally.record(None if best.epsilon == inst.count else "count_best: wrong count")

    def cli_calls(self) -> None:
        """In-process cli.main, after run() has dropped its graphs."""
        if available(["cli.main"]):
            self.cli("cli.safe_text_s", [], verify.check_safe_text, "cli.text_bytes")
            self.cli("cli.safe_structured_s", ["--format", "structured"],
                     verify.check_safe_structured, "cli.structured_bytes")

    def pairs(self, ng, nm, u) -> None:
        inst = self.inst
        if nm is None:
            return
        ids = {o: e for e, (o, h) in enumerate(zip(nm.origin, nm.half)) if h == 0}
        if available(NEEDS["safety.pair_init_s"]):
            checker = self.timed("safety.pair_init_s", api("SafePairChecker"), ng)
            with self.tracer.span("safety.pair_check"):
                verdicts = [checker.check(ids[p.e1], ids[p.e2]) for p in inst.pairs]
            self.tally.record(verify.check_verdicts([(v.safe, v.reason) for v in verdicts], inst))
        if u is not None and available(NEEDS["undirected.split_s"]):
            component_split = api("component_split")
            nodes = {ng.labels[ng.heads[ids[p.e1]]] for p in inst.pairs}
            with self.tracer.span("undirected.split"):
                for v in sorted(nodes):
                    component_split(u, v)
            self.counters["undirected.splits"] = len(nodes)

    def cli(self, metric: str, extra: list[str], check, counter: str) -> None:
        out = self.co.work / "cli.txt"
        with open(out, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
            code = self.timed(metric, api("cli.main"), ["safe", str(self.co.graph), *extra])
        self.counters[counter] = out.stat().st_size
        self.tally.record(check(code, out.read_text(encoding="utf-8"), self.inst))

    def untraced_cli(self) -> float:
        """The same in-process cli.main call as cli.safe_text_s, no span."""
        with open(self.co.work / "cli.txt", "w", encoding="utf-8") as handle, \
                contextlib.redirect_stdout(handle):
            start = time.perf_counter()
            api("cli.main")(["safe", str(self.co.graph)])
            return time.perf_counter() - start


def peaks(co) -> dict[str, float]:
    """tracemalloc peaks in MB per layer, in a pass of its own that is not
    timed (tracing allocations makes Bareiss elimination about ten times
    slower)."""
    a = api
    result = {}

    def peak(metric: str, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = fn(*args, **kwargs)
        result[metric] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        return value

    if not available(["parse_edge_list", "normalize"]):
        return result
    g = a("parse_edge_list")(co.graph.read_text(encoding="utf-8"))
    cg, _ = a("normalize")(a("parse_edge_list")(co.count_graph.read_text(encoding="utf-8")))
    tracemalloc.start()
    try:
        ng, nm = peak("graph.normalize_peak_mb", a("normalize"), g)
        if available(PEAKS["safety.walks_peak_mb"]):
            peak("safety.walks_peak_mb", a("maximal_safe_walks"), ng, norm_map=nm)
        if available(PEAKS["oracles.best_peak_mb"]):
            peak("oracles.best_peak_mb", a("count_best"), cg)
    finally:
        tracemalloc.stop()
    return result


def import_time(co) -> float:
    elapsed, code, _ = co.python(["-c", "import eulersafe.cli"], co.work / "import.txt")
    if code != 0:
        raise RuntimeError("python -c 'import eulersafe.cli' failed")
    return elapsed


def traced_run(co, inst: Instance, run_id: str, seconds: float, tally) -> dict:
    tracer = Tracer(run_id)
    metrics: dict[str, dict] = {}
    for name, value in peaks(co).items():
        metrics[name] = {"value": value, "unit": "MB"}
    counters: dict[str, list[int]] = {}
    untraced: list[float] = []
    imports: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        layer = LayerPass(co, inst, tracer, tally)
        with tracer.span(f"pass{len(untraced)}"):
            layer.run()
            layer.cli_calls()
        for name, value in layer.counters.items():
            counters.setdefault(name, []).append(value)
        untraced.append(layer.untraced_cli())
        imports.append(import_time(co))
        if time.perf_counter() >= deadline:
            break
    times = {}
    for metric in NEEDS:
        durations = tracer.durations(metric[: -len("_s")])
        if durations:
            times[metric] = statistics.median(durations)
    for derived, (whole, parts) in DERIVED.items():
        if whole in times and all(p in times for p in parts):
            times[derived] = times[whole] - sum(times[p] for p in parts)
    if "cli.safe_text_s" in times:
        times["trace.overhead_s"] = times["cli.safe_text_s"] - statistics.median(untraced)
    times["cli.import_s"] = statistics.median(imports)
    for name, value in times.items():
        metrics[name] = {"value": value, "unit": "s"}
    for name, values in counters.items():
        if len(set(values)) != 1:
            tally.record(f"counter {name} differs between passes: {values}")
        metrics[name] = {"value": values[0], "unit": "count"}
    absent = sorted(m for m, names in {**NEEDS, **PEAKS}.items() if not available(names))
    if absent:
        print(f"absent layer metrics: {absent}", file=sys.stderr)
    tracer.write(
        co.out / f"spans-{run_id}.jsonl",
        [{"record": "derived", "name": k, "value": times[k]} for k in DERIVED if k in times]
        + [{"record": "absent", "names": absent}],
    )
    return tally.result(metrics)
