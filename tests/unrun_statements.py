"""A pytest plugin that counts the statements of the ``orlicz`` package that a
test run never executes.  Standard library only:

    PYTHONPATH=src:tests python -m pytest -q -p unrun_statements

Statements are the ``ast`` statement nodes of every module, docstrings left
out.  A simple statement ran when a line event fell on one of its lines; a
compound one (``if``, ``for``, ``def``, ...) when one fell on its header or
its first body statement ran.  ``sys.settrace`` and ``threading.settrace``
record the line events of the package's files only.  The terminal summary
gives the count per file and the first line of each unrun statement.  The
hook keeps line numbers only, but it makes the run about twice as slow.
The statements are read from the files when the run ends, so a file edited
during the run is counted against lines that did not run.
"""

import ast
import importlib.util
import pathlib
import sys
import threading

_PACKAGE = pathlib.Path(importlib.util.find_spec("orlicz").origin).parent
_FILES = {str(p): p for p in sorted(_PACKAGE.glob("*.py"))}
_seen = {name: set() for name in _FILES}


def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in _seen else None


def _statements(tree: ast.AST):
    """(node, header lines, first body statement or None) for every
    statement, docstrings left out."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = {id(n.body[0]) for n in ast.walk(tree)
            if isinstance(n, scopes) and ast.get_docstring(n, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docs:
            continue
        body = getattr(node, "body", None)
        if body:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            yield node, range(start, max(body[0].lineno, node.lineno + 1)), body[0]
        else:
            yield node, range(node.lineno, node.end_lineno + 1), None


def unrun() -> dict:
    """file name -> sorted first lines of the statements that never ran."""
    out = {}
    for name, path in _FILES.items():
        seen, ran, missed = _seen[name], set(), []
        found = sorted(_statements(ast.parse(path.read_text())), key=lambda s: -s[0].lineno)
        for node, header, first in found:  # a body statement before its header
            if seen.intersection(header) or (first is not None and first in ran):
                ran.add(node)
            else:
                missed.append(node.lineno)
        out[path.name] = sorted(missed)
    return out


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = unrun()
    write = terminalreporter.write_line
    write(f"unrun statements in {_PACKAGE.name}: {sum(map(len, missed.values()))}")
    for name, lines in missed.items():
        write(f"  {name} {len(lines)}" + ("" if not lines else ": " + " ".join(map(str, lines))))
