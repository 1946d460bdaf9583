"""Workload generators: collectives, stencils, incast, and trace replay.

Every generator is registered in the :data:`~repro.experiments.registry.WORKLOADS`
registry (mirroring ``TRAFFICS``), so a closed-loop experiment cell is
just one more spec string — ``"allreduce:algo=ring,size=64"`` — that can
be hashed, cached, and rebuilt inside a sweep worker.

All generators operate on the topology's *terminal* routers (those with
``concentration > 0``) — on a fat tree that is the edge switches — and
every dependency structure matches the textbook algorithm:

* **ring all-reduce** — reduce-scatter then all-gather around a ring:
  ``2(N-1)`` steps, each rank forwarding one chunk per step to its ring
  successor, each send gated on the chunk received the previous step.
* **recursive-doubling all-reduce** — ``log2(P)`` pairwise exchange
  rounds on the largest power-of-two subset of ranks, each round's send
  gated on the partner message received the round before.
* **all-to-all** — the dependency-free personalized exchange (every rank
  to every other rank at once): pure bisection stress.
* **halo** — iterated nearest-neighbor exchange on a 2D torus of ranks,
  each iteration's sends gated on all halos received the previous
  iteration (the BSP stencil pattern).
* **incast** — all workers to one parameter server; with ``reply`` the
  server's broadcast back is gated on *every* incast arriving (the
  synchronous parameter-server barrier).
* **trace** — replay of a JSONL message trace (see :func:`load_trace`
  for the schema), for workloads captured from real applications.

Every generator's ``size`` (and halo's ``iters``) must be an integer
>= 1 (not a float, not a bool); anything else raises a ``ValueError``
naming the field.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from repro.experiments.registry import WORKLOADS
from repro.workloads.message import Message, Workload

__all__ = [
    "terminal_routers",
    "ring_allreduce",
    "recursive_doubling_allreduce",
    "all_to_all",
    "halo_exchange",
    "incast",
    "load_trace",
]


def terminal_routers(topo) -> np.ndarray:
    """Routers hosting endpoints — the workload's rank space."""
    terminals = np.flatnonzero(topo.concentration > 0)
    if terminals.size < 2:
        raise ValueError("workloads need at least two terminal routers")
    return terminals


def _positive_int(name: str, value) -> int:
    """``value`` as an integer >= 1, or a ValueError naming ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


# ----------------------------------------------------------------------
# All-reduce
# ----------------------------------------------------------------------
def ring_allreduce(topo, size: int = 64) -> Workload:
    """Ring all-reduce of a ``size``-flit vector per rank.

    Reduce-scatter (steps ``0..N-2``) then all-gather (steps
    ``N-1..2N-3``): at every step each rank sends one ``size/N`` chunk
    (at least one flit) to its ring successor, gated on the chunk it
    received the previous step — a length-``2(N-1)`` chain per rank,
    ``2(N-1) * N`` messages total.
    """
    size = _positive_int("size", size)
    t = terminal_routers(topo)
    n = t.size
    chunk = max(1, size // n)
    steps = 2 * (n - 1)
    # Message id s * n + i: rank i's send at step s.
    step, rank = np.divmod(np.arange(steps * n, dtype=np.int64), n)
    later = step > 0
    return Workload.from_arrays(
        f"allreduce-ring(size={size})",
        t[rank],
        t[(rank + 1) % n],
        np.full(rank.size, chunk),
        later,
        ((step - 1) * n + (rank - 1) % n)[later],
        topo,
    )


def recursive_doubling_allreduce(topo, size: int = 64) -> Workload:
    """Recursive-doubling all-reduce on the largest 2^k terminal subset.

    Round ``s`` pairs rank ``i`` with ``i XOR 2**s``; both exchange the
    full ``size``-flit vector, gated on the message received in round
    ``s - 1``.  ``P * log2(P)`` messages.
    """
    size = _positive_int("size", size)
    t = terminal_routers(topo)
    p = 1 << (int(t.size).bit_length() - 1)
    if p < 2:
        raise ValueError("recursive doubling needs >= 2 terminal routers")
    rounds = p.bit_length() - 1
    # Message id s * p + i: rank i's send in round s.
    rnd, rank = np.divmod(np.arange(rounds * p, dtype=np.int64), p)
    later = rnd > 0
    return Workload.from_arrays(
        f"allreduce-rd(size={size})",
        t[rank],
        t[rank ^ (1 << rnd)],
        np.full(rank.size, size),
        later,
        ((rnd - 1) * p + (rank ^ (1 << np.maximum(rnd - 1, 0))))[later],
        topo,
    )


# ----------------------------------------------------------------------
# All-to-all, halo, incast
# ----------------------------------------------------------------------
def all_to_all(topo, size: int = 8) -> Workload:
    """Personalized all-to-all: every rank sends ``size`` flits to every
    other rank, dependency-free — ``N(N-1)`` concurrent messages."""
    size = _positive_int("size", size)
    t = terminal_routers(topo)
    n = t.size
    a, b = np.divmod(np.arange(n * n, dtype=np.int64), n)
    off_diagonal = a != b
    m = n * (n - 1)
    return Workload.from_arrays(
        f"alltoall(size={size})",
        t[a[off_diagonal]],
        t[b[off_diagonal]],
        np.full(m, size),
        np.zeros(m, dtype=np.int64),
        (),
        topo,
    )


def _torus_grid(n: int) -> tuple:
    """(rows, cols) of the squarest torus covering exactly ``n`` ranks."""
    rows = 1
    for d in range(int(np.sqrt(n)), 0, -1):
        if n % d == 0:
            rows = d
            break
    return rows, n // rows


def halo_exchange(topo, size: int = 16, iters: int = 2) -> Workload:
    """Iterated 2D-torus halo/stencil exchange over all terminal ranks.

    Ranks form the squarest ``rows x cols`` torus with ``rows * cols ==
    N`` (a ring when ``N`` is prime); each iteration every rank sends a
    ``size``-flit halo to each distinct torus neighbor, gated on all
    halos it received the previous iteration.
    """
    size, iters = _positive_int("size", size), _positive_int("iters", iters)
    t = terminal_routers(topo)
    n = t.size
    rows, cols = _torus_grid(n)
    rank = np.arange(n, dtype=np.int64)
    r, c = np.divmod(rank, cols)
    # Up, down, left, right; a candidate equal to the rank itself or to
    # an earlier candidate (small tori wrap onto themselves) is dropped.
    cand = np.stack(
        [
            ((r - 1) % rows) * cols + c,
            ((r + 1) % rows) * cols + c,
            r * cols + (c - 1) % cols,
            r * cols + (c + 1) % cols,
        ],
        axis=1,
    )
    keep = cand != rank[:, None]
    for j in range(1, cand.shape[1]):
        keep[:, j] &= (cand[:, :j] != cand[:, j : j + 1]).all(axis=1)
    # One iteration's messages, rank-major and neighbor-minor.
    sender = np.repeat(rank, keep.sum(axis=1))
    receiver = cand[keep]
    per_iter = sender.size
    # Each send of iteration k waits on every halo its sender received in
    # iteration k - 1: the ids with that receiver, ascending.
    received = np.argsort(receiver, kind="stable")
    recv_count = np.bincount(receiver, minlength=n)
    recv_end = np.cumsum(recv_count)
    counts = recv_count[sender]
    ends = np.cumsum(counts)
    deps = received[
        np.repeat(recv_end[sender] - ends, counts) + np.arange(ends[-1])
    ]
    later = np.arange(per_iter * iters) >= per_iter
    return Workload.from_arrays(
        f"halo(size={size},iters={iters})",
        np.tile(t[sender], iters),
        np.tile(t[receiver], iters),
        np.full(per_iter * iters, size),
        np.where(later, np.tile(counts, iters), 0),
        (deps + per_iter * np.arange(iters - 1)[:, None]).ravel(),
        topo,
    )


def incast(topo, size: int = 32, root: int = 0, reply: bool = False) -> Workload:
    """Parameter-server incast: every worker sends ``size`` flits to the
    ``root``-th terminal router; with ``reply`` the server answers each
    worker, gated on *all* incast messages (the sync barrier)."""
    size = _positive_int("size", size)
    t = terminal_routers(topo)
    if not 0 <= int(root) < t.size:
        raise ValueError(f"root must index a terminal rank [0, {t.size})")
    server = t[int(root)]
    workers = t[t != server]
    w = workers.size
    # With ``reply``, w replies follow, each gated on all w incasts.
    r = w if reply else 0
    return Workload.from_arrays(
        f"incast(size={size},reply={reply})",
        np.concatenate([workers, np.full(r, server)]),
        np.concatenate([np.full(w, server), workers[:r]]),
        np.full(w + r, size),
        np.repeat([0, w], [w, r]),
        np.tile(np.arange(w), r),
        topo,
    )


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def load_trace(path: str, topo=None) -> Workload:
    """Load a JSONL message trace as a :class:`Workload`.

    Schema — one JSON object per line::

        {"id": <any>, "src": <router>, "dst": <router>,
         "size": <flits>, "deps": [<id>, ...]}

    ``id`` values may be any JSON scalars; they are mapped to dense
    message indices in file order (``deps`` must reference ids of
    earlier or later lines — forward references are allowed as long as
    the whole graph is acyclic).  ``deps`` may be omitted for root
    messages.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON ({exc})") from exc
            for key in ("id", "src", "dst", "size"):
                if key not in rec:
                    raise ValueError(f"{path}:{lineno}: missing {key!r}")
            records.append(rec)
    index = {}
    for i, rec in enumerate(records):
        if rec["id"] in index:
            raise ValueError(f"duplicate trace message id {rec['id']!r}")
        index[rec["id"]] = i
    msgs = []
    for rec in records:
        try:
            deps = tuple(index[d] for d in rec.get("deps", ()))
        except KeyError as exc:
            raise ValueError(
                f"trace message {rec['id']!r} depends on unknown id {exc}"
            ) from exc
        msgs.append(Message(int(rec["src"]), int(rec["dst"]), int(rec["size"]), deps))
    # Named without the path: a sweep cell keys a trace by its bytes, so
    # the same trace read from two places must give the same summary.
    return Workload(f"trace(messages={len(msgs)})", msgs, topo)


# ----------------------------------------------------------------------
# Spec registrations — factories take (topo, **spec kwargs)
# ----------------------------------------------------------------------
@WORKLOADS.register("allreduce", example="allreduce:algo=ring,size=64")
def _allreduce_from_spec(topo, algo: str = "ring", size: int = 64) -> Workload:
    if algo == "ring":
        return ring_allreduce(topo, size=size)
    if algo == "rd":
        return recursive_doubling_allreduce(topo, size=size)
    raise ValueError(f"unknown all-reduce algo {algo!r}; choose ring or rd")


@WORKLOADS.register("alltoall", example="alltoall:size=8")
def _alltoall_from_spec(topo, size: int = 8) -> Workload:
    return all_to_all(topo, size=size)


@WORKLOADS.register("halo", example="halo:iters=2,size=16")
def _halo_from_spec(topo, size: int = 16, iters: int = 2) -> Workload:
    return halo_exchange(topo, size=size, iters=iters)


@WORKLOADS.register("incast", example="incast:reply=true,size=32")
def _incast_from_spec(
    topo, size: int = 32, root: int = 0, reply: bool = False
) -> Workload:
    return incast(topo, size=size, root=root, reply=reply)


@WORKLOADS.register("trace")
def _trace_from_spec(topo, path: str) -> Workload:
    return load_trace(path, topo)
