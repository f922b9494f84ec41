import ast
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
