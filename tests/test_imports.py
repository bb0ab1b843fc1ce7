"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import throttlekit

SOURCES = sorted(Path(throttlekit.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    outside = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{source.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
