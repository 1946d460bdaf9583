"""String-spec registries for topologies, routing policies, and traffic.

Every experiment cell is described by three short strings — e.g.
``"polarfly:conc=3,q=7"``, ``"ugal-pf"``, ``"uniform"`` — so a sweep can
be hashed, cached, shipped to a worker process, and rebuilt there without
pickling any live object.  Constructors register themselves with the
decorators below from their home modules (``topologies/``,
``routing/policies.py``, ``flitsim/traffic.py``); this module depends on
nothing inside :mod:`repro`, which keeps it importable from any layer.

Spec grammar::

    name                      # defaults only
    name:key=value,key=value  # keyword overrides

Values parse as bool (``true``/``false``), int, float, or bare string, in
that order.  A value given to a factory parameter annotated ``int`` (or
``int | None``) must have parsed as an int: ``q=5.5`` or ``count=true``
is refused, naming the field, rather than truncated into another cell's
object under its own cache key.  :meth:`Registry.canonical`
re-serializes a spec with sorted keys, so equal specs hash equally
regardless of key order.
"""

from __future__ import annotations

import importlib
import inspect

__all__ = ["Registry", "TOPOLOGIES", "POLICIES", "TRAFFICS", "WORKLOADS", "FAULTS"]


def _parse_value(text: str):
    """bool -> int -> float -> str, first parse wins."""
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Registry:
    """A name -> factory map with spec parsing and lazy registration.

    Parameters
    ----------
    kind:
        Human label used in error messages (``"topology"`` ...).
    providers:
        Dotted module names imported on first lookup so that importing
        only :mod:`repro.experiments` still sees every registered
        constructor (registration happens at provider import time).
    """

    def __init__(self, kind: str, providers: "tuple[str, ...]" = ()):
        self.kind = kind
        self._providers = tuple(providers)
        self._factories: dict = {}
        self._examples: dict = {}
        #: name -> the factory's parameters annotated ``int`` (or
        #: ``int | None``: no spec value parses as None)
        self._int_params: dict = {}
        self._loaded = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, example: "str | None" = None):
        """Decorator: register ``factory`` under ``name``.

        ``example`` is a canonical spec string exercised by the
        round-trip tests; it defaults to the bare name.
        """
        if ":" in name or "," in name or "=" in name:
            raise ValueError(f"registry name may not contain ':,=' ({name!r})")

        def decorator(factory):
            if name in self._factories:
                raise ValueError(f"duplicate {self.kind} name {name!r}")
            self._factories[name] = factory
            self._examples[name] = example or name
            self._int_params[name] = frozenset(
                key
                for key, param in inspect.signature(factory).parameters.items()
                if param.annotation in (int, "int", "int | None")
            )
            return factory

        return decorator

    def _ensure(self) -> None:
        if self._loaded:
            return
        # Mark loaded up front so provider imports that consult this
        # registry re-entrantly don't recurse — but roll back on failure,
        # otherwise later lookups would silently see a half-populated
        # registry and mask the real ImportError.
        self._loaded = True
        try:
            for module in self._providers:
                importlib.import_module(module)
        except BaseException:
            self._loaded = False
            raise

    # ------------------------------------------------------------------
    # Lookup and parsing
    # ------------------------------------------------------------------
    def names(self) -> list:
        """Sorted registered names."""
        self._ensure()
        return sorted(self._factories)

    def example(self, name: str) -> str:
        """The canonical example spec registered for ``name``."""
        self._ensure()
        return self._examples[name]

    def parse(self, spec: str) -> "tuple[str, dict]":
        """Split ``spec`` into ``(name, kwargs)``; validates the name."""
        if not isinstance(spec, str) or not spec:
            raise ValueError(f"{self.kind} spec must be a non-empty string")
        name, _, tail = spec.partition(":")
        name = name.strip()
        self._ensure()
        if name not in self._factories:
            raise KeyError(
                f"unknown {self.kind} {name!r}; valid choices: "
                + ", ".join(self.names())
            )
        kwargs = {}
        if tail:
            for item in tail.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ValueError(
                        f"malformed {self.kind} spec {spec!r}: expected "
                        f"'key=value', got {item!r}"
                    )
                if key in kwargs:
                    raise ValueError(
                        f"duplicate key {key!r} in {self.kind} spec {spec!r}"
                    )
                kwargs[key] = _parse_value(value.strip())
        return name, kwargs

    def canonical(self, spec: str) -> str:
        """Canonical form: name, then ``key=value`` sorted by key."""
        name, kwargs = self.parse(spec)
        if not kwargs:
            return name
        tail = ",".join(f"{k}={_format_value(kwargs[k])}" for k in sorted(kwargs))
        return f"{name}:{tail}"

    def create(self, spec: str, *args, **extra):
        """Instantiate ``spec``; positional ``args`` precede spec kwargs.

        ``extra`` keywords override same-named spec keys (used e.g. to
        inject a seed into a traffic spec that omitted one).
        """
        name, kwargs = self.parse(spec)
        try:
            for key in sorted(self._int_params[name] & kwargs.keys()):
                value = kwargs[key]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{key} must be an integer, got {value!r}")
            kwargs.update(extra)
            return self._factories[name](*args, **kwargs)
        except TypeError as exc:
            # Chain the original so a TypeError raised deep inside the
            # constructor isn't misread as a spec typo.
            raise TypeError(
                f"bad arguments for {self.kind} {spec!r}: {exc}"
            ) from exc
        except ValueError as exc:
            # A bare "invalid literal for int()" names neither the spec
            # nor the kind of thing it was meant to build.
            raise ValueError(f"bad value in {self.kind} {spec!r}: {exc}") from exc


#: topology constructors (see ``repro/topologies`` and ``repro/core``)
TOPOLOGIES = Registry("topology", providers=("repro.topologies", "repro.core.polarfly"))
#: routing-policy constructors; factories take ``(tables, **kwargs)``
POLICIES = Registry("routing policy", providers=("repro.routing.policies",))
#: traffic-pattern constructors; factories take ``(topo, **kwargs)``
TRAFFICS = Registry(
    "traffic pattern",
    providers=("repro.flitsim.traffic", "repro.flitsim.patterns_extra"),
)
#: closed-loop workload generators; factories take ``(topo, **kwargs)``
#: and return a :class:`repro.workloads.Workload`
WORKLOADS = Registry("workload", providers=("repro.workloads.generators",))
#: fault-timeline generators; factories take ``(topo, **kwargs)`` and
#: return a :class:`repro.faults.FaultTimeline`
FAULTS = Registry("fault timeline", providers=("repro.faults.timeline",))
