"""Messages and workload DAGs: the closed-loop traffic abstraction.

Open-loop traffic (:mod:`repro.flitsim.traffic`) asks "where does the
next Bernoulli packet go?"; a *workload* instead fixes the complete
communication to perform: a DAG of sized messages between terminal
routers, where a message may only enter the network once every message
it depends on has fully arrived.  This is the shape of real HPC/ML
communication — collectives, stencil exchanges, parameter-server
rounds — and what ultimately distinguishes low-diameter topologies in
practice.

:class:`Message` is one ``src -> dst`` transfer of ``size_flits`` flits
with a tuple of prerequisite message ids; :class:`Workload` validates a
set of messages — or, via :meth:`Workload.from_arrays`, the same arrays
built directly — into flat arrays (sources, destinations, sizes, a
dependency CSR and its transpose) that both simulation engines and the
eligibility bookkeeping (:mod:`repro.workloads.state`) consume directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Message", "Workload"]


@dataclass(frozen=True)
class Message:
    """One sized transfer between terminal routers.

    Parameters
    ----------
    src, dst:
        Terminal router ids (routers with at least one endpoint).
    size_flits:
        Payload size in flits (>= 1).  The engines segment a message
        into fixed-size packets, rounding the wire size up to a whole
        number of packets.
    deps:
        Ids (indices into the workload's message list) of messages whose
        tail flits must eject before this message may inject.
    """

    src: int
    dst: int
    size_flits: int
    deps: tuple = field(default_factory=tuple)


class Workload:
    """A named DAG of messages, validated and flattened to arrays.

    Array views (all read-only by convention):

    * ``src``/``dst``/``size`` — per-message endpoints and payload flits;
    * ``dep_counts`` — number of prerequisites per message;
    * ``dependents_indptr``/``dependents_indices`` — CSR of the
      *transposed* dependency relation: the messages unblocked (in part)
      by each message's completion, which is the direction completion
      processing walks.

    Construction validates ids, rejects self-sends and empty messages,
    requires acyclicity (Kahn's algorithm), and — when ``topo`` is given
    — requires every endpoint to be a terminal router (``concentration
    > 0``), so indirect topologies like fat trees never inject or eject
    at internal switches.
    """

    def __init__(self, name: str, messages, topo=None):
        messages = list(messages)
        self._init_arrays(
            name,
            [msg.src for msg in messages],
            [msg.dst for msg in messages],
            [msg.size_flits for msg in messages],
            [len(msg.deps) for msg in messages],
            [d for msg in messages for d in msg.deps],
            topo,
        )

    @classmethod
    def from_arrays(
        cls, name: str, src, dst, size, dep_counts, flat_deps, topo=None
    ) -> "Workload":
        """Build from per-message arrays, with the same validation.

        ``flat_deps`` lists every message's prerequisite ids back to back
        in message order, ``dep_counts[i]`` of them for message ``i`` —
        the arrays :class:`Message` lists flatten into, so generators can
        emit them directly instead of one object per message.
        """
        workload = cls.__new__(cls)
        workload._init_arrays(name, src, dst, size, dep_counts, flat_deps, topo)
        return workload

    def _init_arrays(self, name, src, dst, size, dep_counts, flat_deps, topo):
        self.name = str(name)
        self.src, self.dst, self.size, self.dep_counts, flat_deps = (
            np.array(a, dtype=np.int64).ravel()
            for a in (src, dst, size, dep_counts, flat_deps)
        )
        m = self.src.size
        if m == 0:
            raise ValueError("workload must contain at least one message")
        if not self.dst.size == self.size.size == self.dep_counts.size == m:
            raise ValueError("per-message arrays must have equal lengths")
        if np.any(self.size < 1):
            raise ValueError("message sizes must be >= 1 flit")
        if np.any(self.src == self.dst):
            raise ValueError("messages must have src != dst")
        if np.any(self.dep_counts < 0) or self.dep_counts.sum() != flat_deps.size:
            raise ValueError("dep_counts must partition flat_deps")

        # Transposed dependency CSR (dependents of message i).
        if flat_deps.size and (flat_deps.min() < 0 or flat_deps.max() >= m):
            raise ValueError("dependency id out of range")
        owner = np.repeat(np.arange(m, dtype=np.int64), self.dep_counts)
        order = np.argsort(flat_deps, kind="stable")
        self.dependents_indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(self.dependents_indptr, flat_deps + 1, 1)
        np.cumsum(self.dependents_indptr, out=self.dependents_indptr)
        self.dependents_indices = owner[order]

        self._check_acyclic()
        if topo is not None:
            self.validate_topology(topo)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_acyclic(self) -> None:
        """Kahn's algorithm: every message must be reachable from roots.

        Level-synchronous: each round retires a whole frontier by
        gathering its members' dependents spans from the CSR in one
        concatenated index and decrementing them together.
        """
        pending = self.dep_counts.copy()
        frontier = np.flatnonzero(pending == 0)
        seen = frontier.size
        indptr, indices = self.dependents_indptr, self.dependents_indices
        while frontier.size:
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = np.cumsum(counts)
            touched = indices[
                np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
            ]
            np.subtract.at(pending, touched, 1)
            # A message fed by several frontier members appears once per
            # edge; it joins the next frontier once.
            frontier = np.unique(touched[pending[touched] == 0])
            seen += frontier.size
        if seen != self.num_messages:
            raise ValueError(
                f"workload {self.name!r} dependency graph has a cycle "
                f"({self.num_messages - seen} unreachable messages)"
            )

    def validate_topology(self, topo) -> None:
        """Require every message endpoint to be a terminal router."""
        n = topo.num_routers
        for arr, what in ((self.src, "source"), (self.dst, "destination")):
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError(f"message {what} router out of range [0, {n})")
            bad = np.flatnonzero(topo.concentration[arr] == 0)
            if bad.size:
                raise ValueError(
                    f"message {int(bad[0])} {what} router "
                    f"{int(arr[bad[0]])} hosts no endpoints "
                    f"(injection/ejection only at terminal routers)"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_messages(self) -> int:
        return int(self.src.size)

    @property
    def total_payload_flits(self) -> int:
        """Requested flits across all messages (before packet rounding)."""
        return int(self.size.sum())

    @property
    def roots(self) -> np.ndarray:
        """Ids of messages with no prerequisites (eligible at cycle 0)."""
        return np.flatnonzero(self.dep_counts == 0)

    def messages(self) -> list:
        """Materialize back into :class:`Message` objects (tests, export)."""
        indptr, indices = self.dependents_indptr, self.dependents_indices
        deps: list[list[int]] = [[] for _ in range(self.num_messages)]
        for mid in range(self.num_messages):
            for d in indices[indptr[mid] : indptr[mid + 1]]:
                deps[int(d)].append(mid)
        return [
            Message(int(self.src[i]), int(self.dst[i]), int(self.size[i]),
                    tuple(deps[i]))
            for i in range(self.num_messages)
        ]
