"""The package runs on the standard library alone."""

import ast
import os
import subprocess
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


def test_import_leaves_the_version_metadata_unloaded():
    # importlib.metadata pulls in email, socket and more; the version is
    # read from it on first use only, and every spelling agrees.
    code = ("import sys, throttlekit; "
            "print('importlib.metadata' in sys.modules); "
            "from throttlekit import report; "
            "print(throttlekit.__version__ == throttlekit.TOOL_VERSION "
            "== report.TOOL_VERSION == report.tool_version() != '')")
    src = str(Path(throttlekit.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "True"]
