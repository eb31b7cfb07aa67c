"""A pytest plugin that prints the statements of src/pairloss that a test run never executed.

Usage:

    PYTHONPATH=src:tools python -m pytest -p untested_lines

Tracing starts when pytest loads the plugin, before any test module imports
pairloss, so module-level statements count. Docstrings, def and class lines
and imports are not listed. Code run in a child process, as by the CLI tests
that start `python -m pairloss.cli`, is not seen.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pairloss"
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIP = (*_SCOPES[1:], ast.Import, ast.ImportFrom)
executed: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _untested(path: Path) -> list[tuple[int, str]]:
    """(line number, source line) of each statement in one module that the run never executed."""
    tree = ast.parse(source := path.read_text())
    docstrings = {id(node.body[0]) for node in ast.walk(tree) if isinstance(node, _SCOPES) and ast.get_docstring(node)}
    lines = {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIP) and id(node) not in docstrings
    }
    text = source.splitlines()
    return [(line, text[line - 1].strip()) for line in sorted(lines) if (str(path), line) not in executed]


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    untested = [(path, *entry) for path in sorted(PACKAGE.glob("*.py")) for entry in _untested(path)]
    terminalreporter.section(f"{len(untested)} statements of src/pairloss never executed")
    for path, line, text in untested:
        terminalreporter.write_line(f"src/pairloss/{path.name}:{line}: {text}")


sys.settrace(_call)
