"""Statement coverage of ``src/liep`` by the tier-1 tests, with the standard library alone.

Run ``python tools/linecov.py`` from any directory; extra arguments go to pytest
(default ``-q -p no:cacheprovider``, rooted at the repository). It runs the tests in
this process under a ``sys.settrace`` collector that records line events in
``src/liep`` only, so it is several times slower than tier-1 itself and is not part
of it. Code that the tests run in a child process (``python -m liep``) is not seen.

A statement is each ``ast`` statement but a docstring, named by its first line: a
simple statement spans all its lines, a compound one its header (decorators
included). It counts as executed when any line of its span raised a line event,
and it is left out when no line of its span has bytecode (``global``, for one).

One JSON object goes to stdout: pytest's exit code, per file its ``statements``
count and ``executed`` and ``missed`` first lines, the ``excluded`` files below
with their reasons, and ``unexcused``, the missed lines outside those files. The
exit code is 1 if pytest failed or any line is unexcused, else 0. Only a whole
file can be excluded: a line that the tests cannot reach is deleted, not excused.
"""
import ast
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "liep")

# file under src/liep -> why the tests do not reach it in process
EXCLUDED = {
    "__main__.py": "runs only as `python -m liep`, in the child processes of the CLI tests",
}


def statements(path):
    """First line -> span (first, last) of each statement of the file at ``path``, as above."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source, path)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first)
    coded = set()
    work = [compile(source, path, "exec")]
    while work:
        code = work.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        work.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        if coded.intersection(range(first, last + 1)):
            spans[node.lineno] = (first, last)
    return spans


def collect(pytest_args):
    """Run pytest under the collector; return its exit code and the lines hit per file."""
    hits = {os.path.join(PACKAGE, name): set() for name in os.listdir(PACKAGE) if name.endswith(".py")}

    def recorder(add):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    local_tracers = {filename: recorder(lines.add) for filename, lines in hits.items()}

    def tracer(frame, event, arg):
        return local_tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv):
    code, hits = collect(argv or ["-q", "-p", "no:cacheprovider"])
    files, unexcused = {}, {}
    for path in sorted(hits):
        name = os.path.basename(path)
        spans = statements(path)
        executed = sorted(k for k, (a, b) in spans.items() if hits[path].intersection(range(a, b + 1)))
        missed = sorted(set(spans) - set(executed))
        files[name] = {"statements": len(spans), "executed": executed, "missed": missed}
        if missed and name not in EXCLUDED:
            unexcused[name] = missed
    report = {"pytest_exit_code": code, "files": files, "unexcused": unexcused,
              "excluded": [{"file": name, "reason": why} for name, why in EXCLUDED.items()]}
    # pytest's own report went to stdout first, so the JSON object is the last line
    print(json.dumps(report))
    return int(code != 0 or bool(unexcused))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
