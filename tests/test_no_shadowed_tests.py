"""Guard against shadowed tests.

When a module binds the same test class or test function name twice, the
later definition replaces the earlier one and pytest never collects it.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _twice(body):
    names = [
        node.name
        for node in body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("Test", "test_"))
    ]
    return [name for name, count in Counter(names).items() if count > 1]


def test_no_test_name_is_defined_twice():
    shadowed = {}
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = _twice(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{name}" for name in _twice(node.body)]
        if names:
            shadowed[path.name] = names
    assert shadowed == {}
