#!/usr/bin/env python
"""List the functions in ``src/`` that no test runs.

    python tools/pycov.py [pytest paths ...]    # default: tests/ benchmarks/

Standard library only (``coverage.py`` is not needed).  Runs pytest
in-process under a ``sys.settrace`` / ``threading.settrace`` line tracer
that follows every function code object under ``src/`` and drops one from
tracing once all of its lines have run.  Three things keep the report free
of false positives:

* forked children (the sweep's pool workers) inherit the tracer and write
  what they saw when they exit: multiprocessing leaves a child through
  ``os._exit``, which skips ``atexit``, so the child's ``os._exit`` is
  wrapped;
* ``$REPRO_KERNEL_CACHE`` points at a private empty directory, so the C
  kernel is built once inside the traced run;
* ``benchmarks/`` is run beside ``tests/``.

A function's lines are the statements of its own body (nested ``def`` and
``class`` bodies are their own functions; docstrings do not count).  A
line marked ``# pragma: no cover`` does not count, and neither does the
block it opens, so a marked ``def`` line exempts the whole function.

Prints ``path:line: function (missed: lines)`` for each function whose
body ran only in part, a summary line, then ``path:line: function`` for
each function whose body never ran.  Exits 1 if any function never ran or
pytest failed.  Partly run functions do not fail the check: their misses
are mostly error branches.
"""

import ast
import json
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRAGMA = "# pragma: no cover"
CO_OPTIMIZED = 0x1  # inspect.CO_OPTIMIZED: a function body, not a module or class body


def code_lines(code):
    """The lines a call of ``code`` can report, less its ``def`` line."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return (lines - {code.co_firstlineno}) or lines


class Tracer:
    """Line events of ``src/`` functions, kept per code object."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.prefix = str(SRC) + os.sep
        # id(code) -> local trace function, or None: not under src/, or
        # every line seen.  ``keep`` holds the code objects so ids stay unique.
        self.table = {}
        self.keep = []
        self.lines = []  # (filename, all lines, lines not yet seen)

    def __call__(self, frame, event, arg):
        try:
            return self.table[id(frame.f_code)]
        except KeyError:
            return self._first_call(frame.f_code)

    def _first_call(self, code):
        key, local = id(code), None
        self.keep.append(code)
        path = os.path.realpath(code.co_filename)
        if code.co_flags & CO_OPTIMIZED and path.startswith(self.prefix):
            lines = code_lines(code)
            left = set(lines)
            self.lines.append((path, lines, left))
            local = self._local(key, left)
        self.table[key] = local
        return local

    def _local(self, key, left):
        table, discard = self.table, left.discard

        def local(frame, event, arg):
            discard(frame.f_lineno)
            if left:
                return local
            table[key] = None
            return None

        return local

    def seen(self):
        hits = {}
        for path, lines, left in self.lines:
            hits.setdefault(path, set()).update(lines - left)
        return hits

    def start(self):
        threading.settrace(self)
        sys.settrace(self)
        os.register_at_fork(after_in_child=self._in_child)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def _in_child(self):
        real_exit = os._exit

        def exit_after_flush(status):
            try:
                self.stop()
                self.flush()
            finally:
                real_exit(status)

        os._exit = exit_after_flush

    def flush(self):
        hits = {path: sorted(lines) for path, lines in self.seen().items()}
        (Path(self.outdir) / f"{os.getpid()}.json").write_text(json.dumps(hits))

    def merged(self):
        hits = self.seen()
        for part in Path(self.outdir).glob("*.json"):
            for path, lines in json.loads(part.read_text()).items():
                hits.setdefault(path, set()).update(lines)
        return hits


def excluded(source_lines, marked):
    """The ``marked`` lines, and the blocks the marked lines open."""
    out = set(marked)
    for i in marked:
        text = source_lines[i - 1]
        if text.split("#")[0].rstrip().endswith(":"):
            indent = len(text) - len(text.lstrip())
            for j in range(i, len(source_lines)):
                nxt = source_lines[j]
                if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= indent:
                    break
                out.add(j + 1)
    return out


def body_lines(fn):
    """Start lines of the statements in ``fn``'s own body, docstring aside."""
    body = fn.body
    if ast.get_docstring(fn) is not None:
        body = body[1:]
    lines, todo = set(), list(body)
    while todo:
        node = todo.pop()
        if hasattr(node, "lineno"):
            lines.add(node.lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        todo.extend(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case))
        )
    return lines


def functions(path):
    """``(def line, qualified name, countable lines)`` per function in ``path``."""
    text = path.read_text()
    tree = ast.parse(text, str(path))
    runnable, todo = {}, [compile(tree, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        runnable[code.co_name, code.co_firstlineno] = code_lines(code)
    source_lines = text.splitlines()
    marked = {i for i, line in enumerate(source_lines, 1) if PRAGMA in line}
    skip = excluded(source_lines, marked)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = body_lines(child) & runnable[child.name, first]
                if marked.intersection(range(first, child.body[0].lineno)):
                    lines = set()  # a marked def header exempts the function
                yield child.lineno, name, lines - skip
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def spans(lines):
    """``{3, 4, 5, 9}`` -> ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(hits):
    partly, never, total, ran = [], [], 0, 0
    for path in sorted(SRC.rglob("*.py")):
        seen = hits.get(str(path), set())
        rel = path.relative_to(ROOT)
        for line, name, lines in functions(path):
            if not lines:
                continue
            missed = lines - seen
            total += len(lines)
            ran += len(lines) - len(missed)
            if missed == lines:
                never.append(f"{rel}:{line}: {name}")
            elif missed:
                partly.append(f"{rel}:{line}: {name} (missed: {spans(missed)})")
    for entry in partly:
        print(entry)
    print(f"{ran} of {total} statement lines in src/ function bodies ran; "
          f"{len(partly)} functions ran in part, {len(never)} never ran")
    for entry in never:
        print(entry)
    return never


def main(paths) -> int:
    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_KERNEL_CACHE"] = os.path.join(tmp, "kernel")
        outdir = os.path.join(tmp, "cov")
        os.mkdir(outdir)
        tracer = Tracer(outdir)
        tracer.start()
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *paths])
            # A pool a test module keeps for the whole session exits only
            # at interpreter exit, after this directory is gone: run the
            # process pools' exit hook now, so their workers flush here.
            pools = sys.modules.get("concurrent.futures.process")
            if pools is not None:
                pools._python_exit()
        finally:
            tracer.stop()
        hits = tracer.merged()
    never = report(hits)
    if status:
        print(f"pytest exited with status {int(status)}")
    return 1 if never or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [str(ROOT / "tests"), str(ROOT / "benchmarks")]))
