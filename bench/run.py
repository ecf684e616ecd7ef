"""eulersafe benchmark: time-to-answer of the CLI on seeded graph shapes.

Run from the root of a source checkout:

    python3 bench/run.py --workload dense_multi --seed 7 --seconds 35 --trace 0

One client, closed loop: each round runs every operation, one at a time,
and the next starts only when the previous one has answered. Every answer
is checked against the workload's closed form. Timings are scaled by a
reference task run next to them (see Timing and README.md). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see layers.py).

``--workload all`` runs every workload both ways in child processes and
prints each metric by name and unit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SHAPES, Instance, text_of  # noqa: E402
import verify  # noqa: E402

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
OP_TIMEOUT_S = 60.0
MIN_OP_ROUND_S = 0.5
# A fixed pure-Python task, independent of eulersafe, run in a child next to
# every timed operation; its time tracks how fast the machine is right now.
REFERENCE = """d = {}
for i in range(40000):
    d[str(i)] = [i, str(i)]
sorted(d, key=lambda k: d[k][0] % 97)
"""
REFERENCE_S = 0.1
CLI = "import sys; from eulersafe.cli import main; sys.exit(main())"
SET_UP = """import sys
sys.path.insert(0, sys.argv[1])
from workloads import SHAPES, text_of
inst = SHAPES[sys.argv[2]](int(sys.argv[3]))
with open(sys.argv[4], "w", encoding="utf-8") as out:
    out.write(text_of(inst.edges))
with open(sys.argv[5], "w", encoding="utf-8") as out:
    out.write(text_of(inst.count_edges))
"""


class Checkout:
    """The source tree under test and the scratch directory of one run."""

    def __init__(self, root: Path, run_name: str):
        self.src = root / "src"
        if not (self.src / "eulersafe" / "cli.py").is_file():
            raise SystemExit(f"error: no eulersafe sources under {self.src}")
        sys.path.insert(0, str(self.src))
        import eulersafe

        if Path(eulersafe.__file__).resolve().parent != (self.src / "eulersafe").resolve():
            raise SystemExit(f"error: imported eulersafe from {eulersafe.__file__}, not {self.src}")
        self.out = root / ".bench_out"
        self.work = self.out / run_name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.graph = self.work / "graph.txt"
        self.count_graph = self.work / "count.txt"
        # Started before any input exists, so that it stays small.
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env,
        )

    def python(self, args: list[str], stdout: Path):
        """Run ``python3 args`` with the checkout's sources, through the
        launcher. Returns (wall seconds, exit code or None on timeout, peak
        RSS in MB of that child alone, from its own rusage)."""
        request = {
            "args": [sys.executable, *args],
            "stdout": str(stdout),
            "stderr": str(self.work / "stderr.txt"),
            "timeout": OP_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        return reply["elapsed"], reply["code"], reply["maxrss_mb"]

    def reference(self) -> float:
        """Wall time of the fixed reference task in a fresh interpreter."""
        elapsed, code, _ = self.python(["-c", REFERENCE], self.work / "reference.txt")
        if code != 0:
            raise RuntimeError("the reference task failed")
        return elapsed

    def stderr(self) -> str:
        return (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=OP_TIMEOUT_S)
        finally:
            self.spawner.kill()
            self.spawner.wait()
        shutil.rmtree(self.work, ignore_errors=True)


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED: {problem}", file=sys.stderr)
        return not problem

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


class Timing:
    """Samples of one timed operation, each with the reference time around it.

    The reported value is the median of wall / reference, times
    REFERENCE_S: the operation's time on a machine where the reference
    task takes REFERENCE_S. See README.md, "Reference-scaled time".
    """

    def __init__(self):
        self.wall: list[float] = []
        self.reference: list[float] = []

    def add(self, wall: float, reference: float) -> None:
        self.wall.append(wall)
        self.reference.append(reference)

    def value(self) -> float:
        return statistics.median(w / r for w, r in zip(self.wall, self.reference)) * REFERENCE_S


def set_up_repeatedly(co: Checkout, workload: str, seed: int, tally: Tally):
    """Generate and write the inputs in a fresh interpreter, at least
    SETUP_REPEATS times and for SETUP_MIN_S. Every time, the files must equal
    the inputs this process generates from the same seed. Returns those
    inputs and the timing."""
    inst = SHAPES[workload](seed)
    want = (text_of(inst.edges).encode(), text_of(inst.count_edges).encode())
    args = ["-c", SET_UP, str(HERE), workload, str(seed), str(co.graph), str(co.count_graph)]
    timing = Timing()
    same = True
    ref = co.reference()
    while len(timing.wall) < SETUP_REPEATS or sum(timing.wall) < SETUP_MIN_S:
        elapsed, code, _ = co.python(args, co.work / "setup.txt")
        if code != 0:
            raise RuntimeError(f"set-up failed: {co.stderr()}")
        same = same and (co.graph.read_bytes(), co.count_graph.read_bytes()) == want
        after = co.reference()
        timing.add(elapsed, (ref + after) / 2)
        ref = after
    tally.record(None if same else "set-up is not deterministic")
    return inst, timing


def program_op(co: Checkout, args: list[str], check, inst: Instance, tally: Tally, verified=None):
    """One run of the program in a fresh interpreter, checked.

    ``verified`` maps arguments to the (exit code, stdout) of an earlier
    run that passed ``check``; the same bytes again pass without being
    parsed a second time. Returns (seconds, peak RSS MB) or None if it
    failed."""
    out = co.work / "stdout.txt"
    elapsed, code, rss = co.python(args, out)
    key = tuple(args)
    if code is None:
        problem = f"{args}: timed out after {OP_TIMEOUT_S:.0f} s"
    else:
        data = out.read_bytes()
        problem = verify.crashed(co.stderr())
        if not problem and (verified is None or verified.get(key) != (code, data)):
            problem = check(code, data.decode("utf-8", errors="replace"), inst)
            if not problem and verified is not None:
                verified[key] = (code, data)
    return (elapsed, rss) if tally.record(problem) else None


def end_to_end(co: Checkout, inst: Instance, setup: Timing, seconds: float, tally: Tally) -> dict:
    g, c = str(co.graph), str(co.count_graph)
    queries = json.dumps([[p.e1, p.e2] for p in inst.pairs])
    verified: dict = {}

    def cli(args, check):
        return lambda: program_op(co, ["-c", CLI, *args], check, inst, tally, verified)

    ops = {
        "check_s": cli(["check", g], verify.check_check),
        "unique_s": cli(["unique", g], verify.check_unique),
        "safe_text_s": cli(["safe", g], verify.check_safe_text),
        "safe_structured_s": cli(["safe", g, "--format", "structured"], verify.check_safe_structured),
        "count_s": cli(["count", c], verify.check_count),
        "pair_query_s": lambda: program_op(co, [str(HERE / "pairs.py"), g, queries], verify.check_pairs,
                                           inst, tally, verified),
    }
    timings = {name: Timing() for name in ops}
    rss = []
    # Warm-up: byte-compile the sources and fill the page cache untimed.
    ops["check_s"]()
    ref = co.reference()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for name, op in ops.items():
            # A fast operation repeats within the round, for more samples;
            # the repeats share the reference runs on either side.
            walls = []
            while sum(walls) < MIN_OP_ROUND_S:
                done = op()
                if not done:
                    break
                walls.append(done[0])
                if name != "pair_query_s":
                    rss.append(done[1])
            after = co.reference()
            for wall in walls:
                timings[name].add(wall, (ref + after) / 2)
            ref = after
    timings["setup_s"] = setup
    metrics = {name: {"value": t.value(), "unit": "s"} for name, t in timings.items() if t.wall}
    if rss:
        metrics["peak_rss_mb"] = {"value": max(rss), "unit": "MB"}
    for name, t in timings.items():
        print(f"{name}: {len(t.wall)} samples, median wall {statistics.median(t.wall):.6f} s, "
              f"median reference {statistics.median(t.reference):.6f} s", file=sys.stderr)
    with open(co.out / f"samples-{co.work.name}.json", "w", encoding="utf-8") as out:
        json.dump({name: {"wall": t.wall, "reference": t.reference} for name, t in timings.items()}, out)
    return tally.result(metrics)


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced and traced, each in its own process."""
    status = 0
    for workload in SHAPES:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run([sys.executable, __file__, *args], stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{workload} trace={trace}: exit {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:28} {metric['value']:>16.6g} {metric['unit']}")
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SHAPES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    co = Checkout(Path.cwd(), f"{args.workload}-{args.seed}-{args.trace}")
    try:
        tally = Tally()
        inst, setup = set_up_repeatedly(co, args.workload, args.seed, tally)
        if args.trace:
            import layers

            run_id = f"{args.workload}-seed{args.seed}"
            result = layers.traced_run(co, inst, run_id, args.seconds, tally)
        else:
            result = end_to_end(co, inst, setup, args.seconds, tally)
    finally:
        co.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # String hashing is randomized per process, which moves the traced run's
    # in-process timings from run to run; the children get the same seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
