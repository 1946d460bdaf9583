"""repro.obs — zero-dependency metrics + structured-event layer.

A process-global metric registry (:mod:`repro.obs.metrics`), monotonic
span timers, and a JSONL event sink shared by the sweep scheduler, the
result cache, both simulator engines, and the fault layer.  Everything
is **off by default**: with ``REPRO_OBS`` unset, :func:`emit` returns
after one dict lookup and :func:`span` hands back a shared no-op context
manager, so instrumented hot paths cost nothing measurable.

Configuration
-------------
``REPRO_OBS=dir=/path/to/run[,sample=N]``
    * ``dir`` — directory for JSONL event shards.  Each process appends
      to its own ``events-<pid>.jsonl`` (line-buffered, fork-safe: the
      shard is re-opened whenever ``os.getpid()`` changes), so worker
      pools need no cross-process coordination; :func:`read_events`
      merges shards on read, ordered by ``(ts, pid, seq)``.
    * ``sample=N`` — keep 1-in-N of events emitted with ``sampled=True``
      (per event name, per process).  Default 1 (keep everything).

``REPRO_SWEEP_PROGRESS=SECONDS``
    Independent of ``REPRO_OBS``: makes :class:`SweepRunner` print a
    one-line progress heartbeat to stderr every SECONDS seconds.

Event schema
------------
One JSON object per line.  Common fields on every record::

    ev   str    event name (below)
    ts   float  epoch seconds (time.time)
    pid  int    emitting process id
    seq  int    per-process monotonic sequence number

Event names and their extra fields:

``sweep.start``     spec_hash, cells, cached, workers, chunks
``sweep.progress``  done, total, eta_s, cells_per_s (sliding-window
                    completion rate), cache_hits, cache_misses,
                    retries, pool_restarts
``sweep.end``       done, total, retries, pool_restarts, failed
``chunk.dispatch``  chunk, cells, attempt
``chunk.retry``     chunk, cells, attempt, error
``chunk.timeout``   chunk, cells, deadline_s
``chunk.bisect``    chunk, cells  (chunk split after repeated failure)
``pool.restart``    restarts
``cell.retry``      key, attempt, error  (serial path)
``cell.quarantine`` key, error
``cell.telemetry``  key, cycles, top_links=[[u, v, flits], ...]
                    (sampled; per-link counts over the measure
                    window — a closed-loop cell's whole run)
``ts.window``       one record per closed time-series window (emitted
                    by windowed sweep cells; see
                    :mod:`repro.obs.timeseries`):

                    * ``key`` — cell key prefix (groups a series)
                    * ``index`` — window ordinal within the run
                    * ``start``, ``end`` — measure-relative cycle
                      bounds (end exclusive); ``window`` the nominal
                      width, ``start_cycle`` the absolute cycle of
                      measure-relative 0
                    * ``injected``, ``ejected``, ``dropped`` — flit
                      deltas within the window
                    * ``lat_count``, ``lat_mean``, ``lat_p50``,
                      ``lat_p99``, ``lat_max`` — latency-sample stats
                      (None when the window recorded no samples)
                    * ``occ_samples``, ``occ_mean``, ``occ_max`` —
                      sampled total buffer occupancy stats
                    * ``link_total`` — flits over all links;
                      ``top_links=[[u, v, flits], ...]`` the K hottest
                    * ``faults=[cycle, ...]`` — measure-relative cycles
                      of fault events applied inside the window
``cache.corrupt``   key  (artifact present but unreadable → quarantined)
``span``            name, secs, ok, plus caller fields.  Span names in
                    tree: ``sweep.run``, ``sweep.chunk`` (scheduler
                    side), ``sweep.cell`` (worker side, sampled)
``counters``        counters — a registry snapshot
                    (see :meth:`repro.obs.metrics.Registry.snapshot`)

Metric names currently wired: ``cache.hits`` / ``cache.misses`` /
``cache.corrupt`` / ``cache.quarantined``, ``sweep.cells_done`` /
``sweep.retries`` / ``sweep.pool_restarts``, ``faults.flit_drops`` /
``faults.tail_drops`` / ``faults.blackholed_packets``.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs.metrics import REGISTRY, Counter, Registry

__all__ = [
    "OBS_ENV",
    "REGISTRY",
    "Counter",
    "Registry",
    "counter",
    "enabled",
    "obs_dir",
    "emit",
    "emit_counters",
    "span",
    "read_events",
]

OBS_ENV = "REPRO_OBS"

# ---------------------------------------------------------------------------
# configuration (memoised on the raw env string so tests can flip the env
# var and see the change without any explicit cache invalidation)

_memo_raw: str | None = None
_memo_dir: str | None = None
_memo_sample: int = 1


def _configure(raw: str | None) -> None:
    global _memo_raw, _memo_dir, _memo_sample
    directory: str | None = None
    sample = 1
    if raw:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "dir" and val:
                directory = val
            elif key == "sample":
                try:
                    sample = max(1, int(val))
                except ValueError:
                    pass
    _memo_raw = raw
    _memo_dir = directory
    _memo_sample = sample
    _sample_counts.clear()


def _refresh() -> None:
    raw = os.environ.get(OBS_ENV)
    if raw != _memo_raw:
        _configure(raw)


def enabled() -> bool:
    """True when ``REPRO_OBS`` names an event directory."""
    _refresh()
    return _memo_dir is not None


def obs_dir() -> str | None:
    """The configured event directory, or None when disabled."""
    _refresh()
    return _memo_dir


# ---------------------------------------------------------------------------
# JSONL sink: one shard per pid, lazily opened, line-buffered append

_sink_file = None
_sink_key: tuple[str, int] | None = None
_seq = 0
_sample_counts: dict[str, int] = {}


def _shard(directory: str):
    global _sink_file, _sink_key
    pid = os.getpid()
    key = (directory, pid)
    if _sink_key != key or _sink_file is None or _sink_file.closed:
        if _sink_file is not None and _sink_key is not None and _sink_key[1] == pid:
            # Same process re-targeting: safe to close.  After a fork we
            # instead just drop the inherited handle (closing it in the
            # child is harmless for the parent's fd, but pointless).
            try:
                _sink_file.close()
            except OSError:
                pass
        os.makedirs(directory, exist_ok=True)
        _sink_file = open(
            os.path.join(directory, f"events-{pid}.jsonl"),
            "a",
            buffering=1,
            encoding="utf-8",
        )
        _sink_key = key
    return _sink_file


def _keep_sample(ev: str) -> bool:
    if _memo_sample <= 1:
        return True
    n = _sample_counts.get(ev, 0)
    _sample_counts[ev] = n + 1
    return n % _memo_sample == 0


def emit(ev: str, sampled: bool = False, **fields) -> None:
    """Append one event record to this process's shard (no-op when off).

    ``sampled=True`` subjects the event to ``sample=N`` subsampling.
    Field values must be JSON-serialisable (non-serialisable values are
    stringified).  Sink errors are swallowed: observability must never
    take down a sweep.
    """
    _refresh()
    if _memo_dir is None:
        return
    if sampled and not _keep_sample(ev):
        return
    global _seq
    _seq += 1
    rec = {"ev": ev, "ts": time.time(), "pid": os.getpid(), "seq": _seq}
    rec.update(fields)
    try:
        _shard(_memo_dir).write(
            json.dumps(rec, separators=(",", ":"), default=str) + "\n"
        )
    except (OSError, TypeError, ValueError):
        pass


def emit_counters() -> None:
    """Emit a ``counters`` event with the global registry snapshot."""
    if enabled():
        emit("counters", **REGISTRY.snapshot())


# ---------------------------------------------------------------------------
# span timers

class _Span:
    __slots__ = ("_name", "_fields", "_t0")

    def __init__(self, name: str, fields: dict) -> None:
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        emit(
            "span",
            name=self._name,
            secs=time.perf_counter() - self._t0,
            ok=exc_type is None,
            **self._fields,
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, sampled: bool = False, **fields):
    """Context manager timing a block; emits a ``span`` event on exit.

    Returns a shared no-op when observability is disabled (or the span
    is sampled out), so ``with obs.span(...)`` is free on the cold path.
    """
    _refresh()
    if _memo_dir is None:
        return _NULL_SPAN
    if sampled and not _keep_sample("span:" + name):
        return _NULL_SPAN
    return _Span(name, fields)


# ---------------------------------------------------------------------------
# registry conveniences

def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


# ---------------------------------------------------------------------------
# merge-on-read

def read_events(directory) -> list:
    """Merge all ``events-*.jsonl`` shards under *directory*.

    Unparsable lines (e.g. a shard truncated by a killed worker) are
    skipped.  Records come back sorted by ``(ts, pid, seq)``.
    """
    recs = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return recs
    for name in names:
        if not (name.startswith("events-") and name.endswith(".jsonl")):
            continue
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "ev" in rec:
                recs.append(rec)
    recs.sort(key=lambda r: (r.get("ts", 0.0), r.get("pid", 0), r.get("seq", 0)))
    return recs
