"""The library imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "locspan"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_locspan():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    foreign = {(path.name, name) for path in files
               for name in _absolute_imports(path)
               if name.split(".")[0] not in {*sys.stdlib_module_names, "locspan"}}
    assert not foreign
