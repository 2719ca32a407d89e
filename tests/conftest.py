"""With ``LAYERSCHED_RAISE_TRACE=1`` set, list at the end of the session every
``raise`` statement in ``src/layersched/`` that no test executed, and fail the
session if there is one. Then list every statement there that no test
executed, docstrings aside: a report only, which fails nothing.

A ``sys.settrace`` hook, set on every thread, records the lines run in the
package's files; ``ast`` finds the statements. A statement counts as executed
if a line of it ran; a compound one's lines are those before its body. One
reached only in a child process (a test that runs the CLI in a subprocess)
counts as not executed. Without the variable nothing is installed, so tier-1
runs at full speed.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "layersched"
ENABLED = os.environ.get("LAYERSCHED_RAISE_TRACE") == "1"

_executed: dict[str, set[int]] = {}  # package file -> lines run
_watched: dict[str, set[int] | None] = {}  # co_filename -> its line set, if in the package


def _trace_lines(frame, event, arg):
    if event == "line":
        _watched[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        lines = _watched[filename]
    except KeyError:
        path = Path(os.path.abspath(filename))
        lines = _watched[filename] = (
            _executed.setdefault(str(path), set()) if path.parent == PACKAGE else None)
    return _trace_lines if lines is not None else None


def pytest_configure(config):
    if ENABLED:
        threading.settrace(_trace_calls)
        sys.settrace(_trace_calls)


_missed: list[str] = []  # "path:line: raise ..." of each raise never executed
_total = 0  # raise statements in the package
_unrun: list[str] = []  # "path:line: ..." of each statement never executed
_statements = 0  # statements in the package, docstrings aside


def _docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _lines(node: ast.stmt) -> range:
    """The lines of ``node`` that run when it does: all of a simple
    statement; a compound one's decorators and header, before its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if not body or not isinstance(body, list):
        return range(first, node.end_lineno + 1)
    return range(first, max(first, body[0].lineno - 1) + 1)


def pytest_sessionfinish(session):
    global _total, _statements
    if not ENABLED:
        return
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        run = _executed.get(str(path), set())
        tree = ast.parse(source)
        raises = sorted((node for node in ast.walk(tree)
                         if isinstance(node, ast.Raise)), key=lambda node: node.lineno)
        _total += len(raises)
        _missed.extend(f"{path.relative_to(ROOT)}:{node.lineno}: "
                       f"{ast.get_source_segment(source, node).splitlines()[0]}"
                       for node in raises
                       if run.isdisjoint(range(node.lineno, node.end_lineno + 1)))
        statements = sorted((node for parent in ast.walk(tree)
                             for node in ast.iter_child_nodes(parent)
                             if isinstance(node, ast.stmt) and not _docstring(node, parent)
                             and not isinstance(node, (ast.Global, ast.Nonlocal))),
                            key=lambda node: node.lineno)
        _statements += len(statements)
        _unrun.extend(f"{path.relative_to(ROOT)}:{node.lineno}: "
                      f"{ast.get_source_segment(source, node).splitlines()[0].strip()}"
                      for node in statements if run.isdisjoint(_lines(node)))
    if _missed and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if not ENABLED:
        return
    terminalreporter.write_sep("-", f"{len(_missed)} of {_total} raise statements in "
                                    f"src/layersched/ never executed")
    for line in _missed:
        terminalreporter.write_line(line)
    terminalreporter.write_sep("-", f"{len(_unrun)} of {_statements} statements in "
                                    f"src/layersched/ never executed (a report; fails nothing)")
    for line in _unrun:
        terminalreporter.write_line(line)
