"""The never-run-function check CI runs, ``tools/pycov.py``.

Each case copies the tool into a scratch tree beside a small ``src/``
package and a test that drives it, then runs the tool there.
"""

import os
import shutil
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pycov.py")

MODULE = '''\
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

# Never shut down: its worker exits only at interpreter exit.
POOL = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))


def used(x):
    """Doc."""
    if x:
        return 1
    raise ValueError(x)


def in_worker(x):
    return x * 2


def pooled():
    return list(POOL.map(in_worker, [1, 2]))


def never(x):
    y = x + 1
    return y


def abstract(  # pragma: no cover - abstract
    self,
):
    raise NotImplementedError


class C:
    def method(self):
        ...

    def outer(self):
        def inner():
            return 1

        return 2
'''

TEST = '''\
from pkg.mod import C, pooled, used


def test_it():
    assert used(1) == 1
    assert pooled() == [2, 4]
    assert C().outer() == 2
'''


def run_tool(tmp_path, module, test):
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools" / "pycov.py")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(module)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(test)
    return subprocess.run(
        [sys.executable, os.path.join("tools", "pycov.py"), "tests"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
    )


def line_of(text, source=MODULE):
    return source.splitlines().index(text) + 1


def test_lists_each_function_no_test_runs(tmp_path):
    run = run_tool(tmp_path, MODULE, TEST)
    assert run.returncode == 1, run.stdout + run.stderr
    out = run.stdout.splitlines()
    summary = next(i for i, line in enumerate(out) if "never ran" in line)
    path = os.path.join("src", "pkg", "mod.py")
    # The pool worker's lines count; the marked function does not.
    assert out[summary + 1:] == [
        f"{path}:{line_of('def never(x):')}: never",
        f"{path}:{line_of('    def method(self):')}: C.method",
        f"{path}:{line_of('        def inner():')}: C.outer.inner",
    ]
    # Partly run functions are listed with their missed lines.
    raise_line = line_of("    raise ValueError(x)")
    assert f"{path}:{line_of('def used(x):')}: used (missed: {raise_line})" in out
    assert out[summary].startswith("6 of 11 statement lines")


def test_passes_when_every_function_runs(tmp_path):
    module = "def f(x):\n    return x\n\n\nclass K:\n    def g(self):\n        return 1\n"
    test = "from pkg.mod import K, f\n\n\ndef test_it():\n    assert f(K().g()) == 1\n"
    run = run_tool(tmp_path, module, test)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == (
        "2 of 2 statement lines in src/ function bodies ran; "
        "0 functions ran in part, 0 never ran"
    )


def test_a_failing_suite_fails_the_check(tmp_path):
    module = "def f(x):\n    return x\n"
    test = "from pkg.mod import f\n\n\ndef test_it():\n    assert f(1) == 2\n"
    run = run_tool(tmp_path, module, test)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "pytest exited with status 1"
