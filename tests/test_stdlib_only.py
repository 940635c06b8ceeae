"""The library imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "lanterns"
ALLOWED = sys.stdlib_module_names | {"lanterns"}


def _absolute_imports(tree):
    """(line, module) for every absolute import in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    paths = sorted(SOURCES.glob("*.py"))
    assert SOURCES / "__init__.py" in paths
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in paths
        for line, module in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if module.partition(".")[0] not in ALLOWED
    ]
    assert not outside, outside
