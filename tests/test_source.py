import ast
from pathlib import Path

import smodlab

SOURCE = Path(smodlab.__file__).resolve().parent


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts: invariants must raise typed errors
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
