import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import boolprod


def test_no_bare_assert_in_the_package():
    # Internal invariants raise ConsistencyError; an assert vanishes under -O.
    found = []
    for path in sorted(Path(boolprod.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_cli_import_loads_the_traced_modules_and_no_dataclasses():
    # The benchmark worker reads every traced module from sys.modules right
    # after importing boolprod.cli, so none of them may be imported lazily;
    # dataclasses, and the inspect it pulls in, would cost every process
    # ~17 ms of start-up.  -S keeps site-packages' .pth imports out of it.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("spans", root / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = "import sys, boolprod.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(boolprod.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert {f"boolprod.{name}" for name in spans.TRACED} <= loaded
