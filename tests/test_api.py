"""The benchmark's per-layer trace and pair script find every public name
they call, so no per-layer metric goes absent when the API is pruned, the
package exports no oracle that the benchmark does not reach, README names
every public name, every command and exactly the command-line options, and
the oracles import from the package only records, errors and the shared
determinant."""
import ast
import re
import sys
from pathlib import Path

import eulersafe
from eulersafe import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH)]

import layers  # noqa: E402


def test_layer_names_are_exported():
    names = {name for step in (*layers.NEEDS.values(), *layers.PEAKS.values()) for name in step}
    # cli.main is looked up on the cli module, not in __all__.
    assert "cli.main" in names and callable(cli.main)
    names.discard("cli.main")
    assert sorted(names - set(eulersafe.__all__)) == []
    absent = [m for m, step in {**layers.NEEDS, **layers.PEAKS}.items() if not layers.available(step)]
    assert absent == []


def test_pair_script_names_are_exported():
    tree = ast.parse((BENCH / "pairs.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "eulersafe"
        for alias in node.names
    }
    assert imported
    assert sorted(imported - set(eulersafe.__all__)) == []


def test_exported_oracles_are_the_ones_the_benchmark_reaches():
    # The rest stay importable from eulersafe.oracles, for oracle-compare
    # and the tests.
    reached = {name for step in (*layers.NEEDS.values(), *layers.PEAKS.values()) for name in step}
    for path in BENCH.glob("*.py"):
        reached |= {
            alias.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module == "eulersafe"
            for alias in node.names
        }
    exported = {name for name in eulersafe.__all__ if eulersafe._SUBMODULE[name] == "oracles"}
    assert exported and sorted(exported - reached) == []


def test_oracles_import_only_records_errors_and_the_determinant():
    # Any other package import could let a fault of the fast path reach the
    # oracles that check it.
    allowed = {
        ("eulersafe.graph", "Circuit"),
        ("eulersafe.graph", "ContractError"),
        ("eulersafe.graph", "Graph"),
        ("eulersafe.safety", "SafeWalkReport"),
        ("eulersafe.circuit", "MAX_BLOCK_NODES"),
        ("eulersafe.circuit", "_bareiss_determinant"),
    }
    source = Path(eulersafe.__file__).with_name("oracles.py").read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, "*") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = f"eulersafe.{node.module or ''}".rstrip(".") if node.level else node.module
            imported |= {(module, alias.name) for alias in node.names}
    package = {(module, name) for module, name in imported if module.split(".")[0] == "eulersafe"}
    assert package and sorted(package - allowed) == []


def test_readme_names_every_public_name():
    readme = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    missing = [name for name in eulersafe.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def test_readme_names_every_cli_option():
    readme = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    assert sorted(c for c in cli._COMMANDS if not re.search(rf"eulersafe {c}\b", readme)) == []
    options = {f"--{option}" for _, _, row in cli._COMMANDS.values() for option in row}
    assert options
    missing = sorted(o for o in options if not re.search(rf"{o}\b", readme))
    assert missing == []
    # And README shows no option that the parser lacks; pip's is the one
    # other program's option it names.
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme)) - {"--no-build-isolation"}
    assert sorted(named - options) == []
