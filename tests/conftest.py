"""With ``LAYERSCHED_RAISE_TRACE=1`` set, list at the end of the session every
``raise`` statement in ``src/layersched/`` that no test executed, and fail the
session if there is one.

A ``sys.settrace`` hook, set on every thread, records the lines run in the
package's files; ``ast`` finds the ``raise`` statements. A raise reached only
in a child process (a test that runs the CLI in a subprocess) counts as not
executed. Without the variable nothing is installed, so tier-1 runs at full
speed.
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


def pytest_sessionfinish(session):
    global _total
    if not ENABLED:
        return
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        run = _executed.get(str(path), set())
        raises = sorted((node for node in ast.walk(ast.parse(source))
                         if isinstance(node, ast.Raise)), key=lambda node: node.lineno)
        _total += len(raises)
        _missed.extend(f"{path.relative_to(ROOT)}:{node.lineno}: "
                       f"{ast.get_source_segment(source, node).splitlines()[0]}"
                       for node in raises
                       if run.isdisjoint(range(node.lineno, node.end_lineno + 1)))
    if _missed and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if not ENABLED:
        return
    terminalreporter.write_sep("-", f"{len(_missed)} of {_total} raise statements in "
                                    f"src/layersched/ never executed")
    for line in _missed:
        terminalreporter.write_line(line)
