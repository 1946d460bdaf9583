"""The unused-import check CI runs, ``tools/check_imports.py``."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "check_imports.py")

MODULE = '''\
from __future__ import annotations

import json
import os
import os.path as osp
from typing import Mapping, Sequence
from collections import OrderedDict as OD, deque

__all__ = ["OD"]


def f(x: "Mapping[str, int]") -> int:
    return os.getpid()
'''


def check(*paths):
    return subprocess.run(
        [sys.executable, TOOL, *map(str, paths)], capture_output=True, text=True
    )


def test_reports_each_unused_import_by_line(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    run = check(tmp_path)
    assert run.returncode == 1
    # Used: os (a call), Mapping (inside a quoted annotation), OD (__all__).
    assert run.stdout.splitlines() == [
        f"{tmp_path / 'mod.py'}:3: json",
        f"{tmp_path / 'mod.py'}:5: osp",
        f"{tmp_path / 'mod.py'}:6: Sequence",
        f"{tmp_path / 'mod.py'}:7: deque",
    ]


def test_init_files_and_clean_modules_pass(tmp_path):
    (tmp_path / "__init__.py").write_text("import json\n")
    (tmp_path / "ok.py").write_text("import json\n\nprint(json.dumps(1))\n")
    run = check(tmp_path)
    assert (run.returncode, run.stdout) == (0, "")


def test_repository_tree_is_clean():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    dirs = [os.path.join(root, d) for d in ("src", "tests", "benchmarks", "examples", "tools")]
    run = check(*dirs)
    assert (run.returncode, run.stdout) == (0, "")
