"""Small argument-validation helpers with uniform error messages."""

from __future__ import annotations

import operator

__all__ = [
    "check_positive_int",
    "check_probability",
    "check_in_range",
    "check_cycle_count",
    "check_sim_windows",
]


def check_positive_int(value, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        try:
            ivalue = int(value)
        except (TypeError, ValueError):
            raise TypeError(f"{name} must be a positive integer, got {value!r}")
        if ivalue != value:
            raise TypeError(f"{name} must be a positive integer, got {value!r}")
        value = ivalue
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value, name: str) -> float:
    """Return ``value`` as ``float`` if it lies in [0, 1], else raise."""
    fvalue = float(value)
    if not (0.0 <= fvalue <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return fvalue


def check_in_range(value, lo, hi, name: str):
    """Raise ``ValueError`` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


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
