"""Smoke tests: the example scripts must run end to end.

Only the quick ones run here (the routing study sweeps many simulation
points and is exercised by the benchmarks instead).
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py", "5")
        assert proc.returncode == 0, proc.stderr
        assert "Moore efficiency" in proc.stdout
        assert "diameter         : 2" in proc.stdout

    def test_design_space_explorer(self):
        proc = run_example("design_space_explorer.py", "12")
        assert proc.returncode == 0, proc.stderr
        assert "Feasible designs per radix ceiling" in proc.stdout
        assert "PolarFly=1.00" in proc.stdout

    def test_fault_drill(self):
        proc = run_example("fault_drill.py")
        assert proc.returncode == 0, proc.stderr
        assert "diameter becomes 3" in proc.stdout
