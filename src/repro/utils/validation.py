"""Small argument-validation helpers with uniform error messages."""

from __future__ import annotations

import operator

__all__ = ["check_cycle_count", "check_sim_windows"]


def check_cycle_count(value, name: str, floor: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= floor``."""
    try:
        ok = operator.index(value) >= floor
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


def check_sim_windows(warmup, measure, drain) -> None:
    """Raise ``ValueError`` naming the first bad simulation window length.

    ``warmup`` and ``drain`` may be empty; ``measure`` divides every
    per-cycle statistic, so it must cover at least one cycle.
    """
    check_cycle_count(warmup, "warmup", 0)
    check_cycle_count(measure, "measure")
    check_cycle_count(drain, "drain", 0)
