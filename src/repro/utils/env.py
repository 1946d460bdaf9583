"""Environment-variable switches, parsed one way everywhere."""

from __future__ import annotations

import os

__all__ = ["env_disabled"]

_FALSY = frozenset({"0", "false", "off", "no"})


def env_disabled(name: str) -> bool:
    """Whether ``$name`` is set to a falsy word.

    ``0``, ``false``, ``off`` and ``no`` — surrounding whitespace and
    case ignored — switch a default-on feature off; unset, empty, or
    anything else leaves it on.  Shared by every on/off knob
    (``REPRO_FLAT_KERNEL``, ``REPRO_PATH_CACHE``) so the same word means
    the same thing for each.
    """
    return os.environ.get(name, "").strip().lower() in _FALSY
