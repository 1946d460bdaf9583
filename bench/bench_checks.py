"""Output checks: per-cell digests, invariants, and the seed-11 goldens.

The benchmark measures host time of a deterministic simulator, so every
simulated statistic must repeat exactly.  ``exact_digest`` compares runs
inside one invocation (untraced vs traced driver); ``golden_digest``
rounds floats to 9 significant digits so ``expected.json`` survives a
change of libm or numpy that moves a last bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = [
    "GOLDEN_SEED",
    "exact_digest",
    "golden_digest",
    "invariant_errors",
    "golden_errors",
    "EXPECTED_PATH",
]

#: the only seed ``expected.json`` holds digests for
GOLDEN_SEED = 11

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def exact_digest(stats: dict) -> str:
    """Digest of a cell's statistics, every float bit included."""
    return _digest(stats)


def golden_digest(stats: dict) -> str:
    """Digest with integers exact and floats at 9 significant digits."""
    return _digest(_rounded(stats))


def invariant_errors(stats: dict) -> list:
    """Seed-independent conditions every finished cell must satisfy."""
    errors = []
    # An endpoint injects and ejects at most one flit per cycle.  (Open-loop
    # counters cover the measure window only, so flits injected during
    # warm-up may eject inside it: ejected <= injected does NOT hold.)
    port_cycles = stats["cycles"] * stats["num_endpoints"]
    for counter in ("injected_flits", "ejected_flits"):
        if stats[counter] > port_cycles:
            errors.append(f"{counter} exceeds one flit per endpoint per cycle")
    if "num_messages" in stats:
        if not stats["finished"]:
            errors.append("closed-loop cell did not finish")
        if stats["completed_messages"] != stats["num_messages"]:
            errors.append("completed_messages != num_messages")
        if "dropped_flits" not in stats and (
            stats["ejected_flits"] != stats["injected_flits"]
        ):
            errors.append("fault-free closed-loop run lost or made flits")
    return errors


def golden_errors(workload: str, seed: int, digests: dict) -> list:
    """Cells whose golden digest differs from ``expected.json``.

    ``digests`` maps a cell label to its ``[golden, exact]`` pair.  Off
    the golden seed there is nothing to compare against: only the
    invariants and the run-to-run equalities apply.
    """
    if seed != GOLDEN_SEED:
        return []
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    errors = [
        f"{label}: digest {golden} != expected {expected.get(label)}"
        for label, (golden, _exact) in digests.items()
        if expected.get(label) != golden
    ]
    errors += [f"{label}: expected cell missing" for label in expected if label not in digests]
    return errors
