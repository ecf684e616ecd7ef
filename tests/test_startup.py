"""Start-up cost: each command imports only the code it runs, the package
resolves its public names on first access, and the result records behave
as the immutable tuples they are."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulersafe
from eulersafe import Circuit, EulerCheck, SafetyEvidence, SafeWalkReport
from eulersafe.oracles import ComponentSplit

BENCH = Path(__file__).resolve().parents[1] / "bench"
FIGURE_EIGHT = "v a\na b\nb v\nv c\nc d\nd v\n"

# Runs one command, then lists every loaded module on stderr. The child
# starts without site-packages (-S), whose start-up hooks may load modules
# themselves and so hide what the command loads.
PROBE = """import sys
from eulersafe import cli
code = cli.main(sys.argv[1:])
sys.stderr.write("\\n".join(sys.modules))
sys.exit(code)
"""

COMMANDS = {
    "check": ["check"],
    "unique": ["unique"],
    "safe": ["safe"],
    "safe-structured": ["safe", "--format", "structured"],
    "count": ["count"],
    "oracle-compare": ["oracle-compare"],
    "gen": ["gen", "4", "2"],
}


def loaded_modules(args: list[str], probe: str = PROBE) -> set[str]:
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(eulersafe.__file__).parents[1]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split("\n"))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(command, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(FIGURE_EIGHT)
    args = COMMANDS[command] if command == "gen" else [*COMMANDS[command], str(path)]
    loaded = loaded_modules(args)
    assert {"eulersafe.cli", "eulersafe.graph"} <= loaded
    assert sorted({"argparse", "dataclasses", "gettext", "inspect", "locale", "typing"} & loaded) == []
    assert ("eulersafe.oracles" in loaded) == (command == "oracle-compare")
    assert ("eulersafe.generator" in loaded) == (command == "gen")
    if command in ("check", "gen"):
        assert sorted({"eulersafe.safety", "eulersafe.circuit"} & loaded) == []
    # json's decoder imports re.
    assert ("json" in loaded) == ("re" in loaded) == (command == "safe-structured")


def test_pair_script_imports_load_no_dataclasses():
    # The benchmark's pair script imports the oracles module for normalize;
    # its records are collections.namedtuple subclasses, so neither
    # dataclasses, inspect nor typing loads.
    tree = ast.parse((BENCH / "pairs.py").read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "eulersafe"
    ]
    assert imports
    probe = imports[0] + '\nimport sys\nsys.stderr.write("\\n".join(sys.modules))\n'
    loaded = loaded_modules([], probe)
    assert "eulersafe.oracles" in loaded
    assert sorted({"dataclasses", "inspect", "typing"} & loaded) == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from eulersafe import *", namespace)
    assert sorted(set(eulersafe.__all__) - set(namespace)) == []


def test_dir_lists_every_public_name():
    assert sorted(set(eulersafe.__all__) - set(dir(eulersafe))) == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulersafe.no_such_name


def test_records_replace_and_stay_immutable():
    c = Circuit((0, 1, 2))
    assert len(c) == 3
    assert c._replace(edges=(1, 2)) == Circuit((1, 2))
    assert not EulerCheck(False, "unbalanced")
    assert EulerCheck(True)
    assert repr(EulerCheck(True)) == "EulerCheck(ok=True, reason=None, witness=None, detail=None)"
    report = SafeWalkReport(walks=((0,),), unique_circuit=False)
    assert report._replace(unique_circuit=True).unique_circuit
    assert SafetyEvidence(True, "degree-one") == (True, "degree-one", None, None)
    split = ComponentSplit(removed="v", component={"a": 0}, count=1)
    assert split.count == 1
    with pytest.raises(AttributeError):
        c.edges = ()
