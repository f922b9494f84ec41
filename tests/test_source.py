import ast
import importlib
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


def _decorator_name(node) -> str:
    """The name a decorator ends in: cache for @cache and @functools.cache,
    lru_cache for @lru_cache(maxsize=None)."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", getattr(node, "id", ""))


def test_the_process_wide_tables_are_the_documented_ones():
    # every memo or module-level table outlives the call that fills it, so
    # the list the docs give of them must be the whole list
    found = set()
    for path in sorted(Path(boolprod.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("cache", "lru_cache") for d in node.decorator_list
            ):
                found.add(f"{path.stem}.{node.name}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.List) and not value.elts
            )
            for target in targets:
                name = getattr(target, "id", "")
                if empty and name.startswith("_") and name.isupper():
                    found.add(f"{path.stem}.{name}")
    assert found == {
        "boolean._graded_subset_terms",
        "schur._REST_IDS",
        "schur._RESTS",
        "schur._STEPS",
        "schur._principal_at_two",
        "schur._splits",
        "schur._SPLIT_PARTS",
        "tableaux.kostka",
        "tableaux.num_syt",
    }


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
    # the worker rebinds each traced name with getattr on its module
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boolprod.{layer}"), name, None))
    ]
    assert not missing, missing


def test_the_oracles_import_nothing_from_the_package():
    # tests/oracles.py is the independent side of every cross-check
    path = Path(__file__).with_name("oracles.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "boolprod"]
    assert not found, found
