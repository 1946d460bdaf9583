"""Environment-variable switches, parsed one way everywhere."""

from __future__ import annotations

import math
import os

__all__ = ["env_disabled", "env_positive"]

_FALSY = frozenset({"0", "false", "off", "no"})


def env_disabled(name: str) -> bool:
    """Whether ``$name`` is set to a falsy word.

    ``0``, ``false``, ``off`` and ``no`` — surrounding whitespace and
    case ignored — switch a default-on feature off; unset, empty, or
    anything else leaves it on.  The one parser for on/off knobs
    (``REPRO_FLAT_KERNEL``), so a new knob means the same words too.
    """
    return os.environ.get(name, "").strip().lower() in _FALSY


def env_positive(name: str, cast):
    """``$name`` as a positive number, or ``None`` when unset or empty.

    ``cast`` is :class:`int` (an integer >= 1) or :class:`float` (finite
    and > 0); anything else in the variable raises a ``ValueError``
    naming it and the accepted range, before the value can reach a pool
    size or a deadline.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = cast(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        accepted = "an integer >= 1" if cast is int else "a finite number > 0"
        raise ValueError(f"${name} must be {accepted}, got {raw!r}")
    return value
