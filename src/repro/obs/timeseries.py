"""Windowed time-resolved telemetry: collection, analytics, trace export.

Aggregate-only telemetry (one latency distribution, one link-count total
per run) cannot show congestion *onset*, the latency transient around a
fault event, or where adversarial traffic concentrates *when*.  This
module adds the time axis: the simulation's measure phase is split into
fixed-width windows of ``window`` cycles, and a
:class:`TimeSeriesCollector` closes one :class:`WindowSeries` record per
window — injected/ejected/dropped flit deltas, latency percentiles over
the samples recorded in the window, queue-depth (credit-derived
occupancy) sample statistics, per-link flit counts (top-K by heat plus
the total, so memory stays bounded at large radix), and the fault-event
markers that landed inside the window.

The collector is engine-agnostic and deliberately free of simulator
imports: the ``WindowCloser`` run observer in
:mod:`repro.flitsim.telemetry` (``sim.run(..., observers=[WindowCloser(64)])``
or ``sim.run_workload(observers=[...])``) feeds it from the reference
engine, the numpy flat path, and the C-kernel path at the *same
accounting points* as ``LinkCounts``, so the closed windows are
bit-identical across all three (pinned by ``tests/test_differential.py``).

On top of the raw series:

* :func:`steady_state_window` — BookSim-style warmup/steady-state
  detection (the cumulative mean of a per-window signal has converged);
* :func:`fault_recovery` — pre-fault baseline throughput and the first
  post-fault window that recovers to it (feeds
  :class:`repro.faults.FaultResult`);
* :func:`emit_window_events` — one flat ``ts.window`` JSONL row per
  window through the :mod:`repro.obs` sink (schema in the package
  docstring);
* :func:`chrome_trace` / :func:`chrome_trace_from_events` /
  :func:`write_chrome_trace` — Chrome-trace ("Perfetto") JSON export
  built from those same rows, one counter track per signal plus instant
  events for fault markers.

Everything a window record holds is JSON-safe (ints, floats, ``None``,
lists), so a series survives the :class:`~repro.experiments.ResultCache`
round trip bit-identically — the ``repr`` float serialization contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.obs import emit

__all__ = [
    "WindowSeries",
    "TimeSeriesCollector",
    "steady_state_window",
    "fault_recovery",
    "chrome_trace",
    "chrome_trace_from_events",
    "write_chrome_trace",
    "emit_window_events",
]


@dataclass
class WindowSeries:
    """A run's per-window records plus the collection parameters.

    ``windows`` is a list of plain dicts (one per closed window, in
    order); see :meth:`TimeSeriesCollector.close_window` for the exact
    fields.  Cycle coordinates inside the records are measure-relative
    (cycle 0 = first measured cycle); ``start_cycle`` maps them back to
    absolute simulator time.
    """

    #: nominal window width in cycles (the last window may be shorter)
    window: int
    #: links kept per window (top-K by flit count; the total always kept)
    top_links: int
    #: absolute simulator cycle of measure-relative cycle 0
    start_cycle: int = 0
    windows: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def values(self, key: str) -> list:
        """The per-window column ``key`` (e.g. ``"ejected"``)."""
        return [w[key] for w in self.windows]

    def rates(self, key: str) -> list:
        """``key`` per cycle per window (robust to a short last window)."""
        return [w[key] / (w["end"] - w["start"]) for w in self.windows]

    def fault_cycles(self) -> list:
        """Every fault-event marker cycle, measure-relative, in order."""
        return [c for w in self.windows for c in w["faults"]]

    def summary(self) -> dict:
        """JSON-safe document (what windowed sweep cells persist)."""
        return {
            "window": int(self.window),
            "top_links": int(self.top_links),
            "start_cycle": int(self.start_cycle),
            "windows": self.windows,
        }

    @classmethod
    def from_summary(cls, doc: dict) -> "WindowSeries":
        """Rebuild a series from :meth:`summary` (cache replay)."""
        return cls(
            window=int(doc["window"]),
            top_links=int(doc["top_links"]),
            start_cycle=int(doc.get("start_cycle", 0)),
            windows=list(doc["windows"]),
        )


def _stats(vals: np.ndarray, pcts=(50.0, 99.0)) -> dict:
    """count/mean/pXX/max of a float sample array (None when empty)."""
    out: dict = {"count": int(vals.size)}
    if vals.size:
        out["mean"] = float(np.mean(vals))
        for p in pcts:
            out[f"p{int(p)}"] = float(np.percentile(vals, p))
        out["max"] = float(np.max(vals))
    else:
        out["mean"] = None
        for p in pcts:
            out[f"p{int(p)}"] = None
        out["max"] = None
    return out


class TimeSeriesCollector:
    """Accumulates one run's windowed telemetry from cumulative counters.

    The run observer owns the schedule; the collector owns the deltas.
    Protocol:

    1. :meth:`prime` once at measure start with the current cumulative
       counter values (drop counters tick during warmup too);
    2. :meth:`occupancy_sample` on each sampled cycle;
    3. :meth:`close_window` at each window boundary with the cumulative
       counters, the latency sample list, the window's per-link flit
       counts (already flushed from the engine), and any fault
       markers that fired inside the window.

    Everything numeric is computed with the same numpy reductions
    whichever engine feeds it, so identical inputs give bit-identical
    window records.
    """

    def __init__(self, window: int, top_links: int = 8, start_cycle: int = 0):
        if window <= 0:
            raise ValueError("window must be a positive cycle count")
        self.series = WindowSeries(
            window=int(window), top_links=int(top_links),
            start_cycle=int(start_cycle),
        )
        self._start = 0  # measure-relative start of the open window
        self._occ: list = []
        self._injected = 0
        self._ejected = 0
        self._dropped = 0
        self._lat_n = 0

    def prime(
        self, injected: int, ejected: int, dropped: int, lat_n: int = 0
    ) -> None:
        """Set counter baselines at measure start (warmup residue)."""
        self._injected = int(injected)
        self._ejected = int(ejected)
        self._dropped = int(dropped)
        self._lat_n = int(lat_n)

    def occupancy_sample(self, total: int) -> None:
        """Record one sampled total buffer occupancy (flits in queues)."""
        self._occ.append(int(total))

    def close_window(
        self,
        end: int,
        injected: int,
        ejected: int,
        dropped: int,
        latencies,
        link_counts: dict,
        faults=(),
    ) -> dict:
        """Close the open window at measure-relative cycle ``end``.

        ``injected``/``ejected``/``dropped`` are *cumulative* counter
        values — the collector differences them against the previous
        close.  ``latencies`` is the engine's growing sample list (the
        shared recording order); ``link_counts`` the window's flushed
        ``{(u, v): flits}`` map; ``faults`` the measure-relative cycles
        of fault events applied inside the window.
        """
        lat = np.asarray(latencies[self._lat_n :], dtype=np.float64)
        occ = np.asarray(self._occ, dtype=np.float64)
        ranked = sorted(link_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        record = {
            "index": len(self.series.windows),
            "start": int(self._start),
            "end": int(end),
            "injected": int(injected) - self._injected,
            "ejected": int(ejected) - self._ejected,
            "dropped": int(dropped) - self._dropped,
            "latency": _stats(lat),
            "occupancy": _stats(occ),
            "link_total": int(sum(link_counts.values())),
            "top_links": [
                [int(u), int(v), int(c)]
                for (u, v), c in ranked[: self.series.top_links]
            ],
            "faults": [int(c) for c in faults],
        }
        self.series.windows.append(record)
        self._start = int(end)
        self._occ = []
        self._injected = int(injected)
        self._ejected = int(ejected)
        self._dropped = int(dropped)
        self._lat_n = len(latencies)
        return record


# ---------------------------------------------------------------------------
# Transient analytics


def steady_state_window(
    series: WindowSeries,
    key: str = "ejected",
    tol: float = 0.05,
    consecutive: int = 3,
) -> "int | None":
    """First window index from which ``key``'s cumulative mean is stable.

    BookSim-style warmup detection: the running (cumulative) mean of the
    per-cycle ``key`` rate is recomputed at every window close; once it
    moves by less than ``tol`` (relative) across ``consecutive``
    consecutive closes, the signal is declared steady and the index of
    the first window of that stable stretch is returned.  ``None`` when
    the series never settles (e.g. a saturating load ramp or a run
    shorter than ``consecutive + 1`` windows).
    """
    rates = series.rates(key)
    if len(rates) < consecutive + 1:
        return None
    means = np.cumsum(rates) / np.arange(1, len(rates) + 1)
    stable = 0
    for i in range(1, len(means)):
        prev = means[i - 1]
        if abs(means[i] - prev) <= tol * max(abs(prev), 1e-12):
            stable += 1
            if stable >= consecutive:
                return i - consecutive + 1
        else:
            stable = 0
    return None


def fault_recovery(
    series: WindowSeries, key: str = "ejected", tol: float = 0.1
) -> "dict | None":
    """Recovery time of ``key`` after the first in-window fault event.

    The pre-fault baseline is the mean per-cycle rate over the windows
    strictly before the first window containing a fault marker; recovery
    is the first *later* window whose rate is back within ``tol``
    (relative) of that baseline.  Returns ``None`` when the series holds
    no fault markers; otherwise a JSON-safe dict::

        fault_cycle       measure-relative cycle of the first marker
        fault_window      index of the window it landed in
        baseline          pre-fault mean rate (None without pre-windows)
        recovered_window  index of the recovery window (None: never)
        recovery_cycles   recovery window end - fault cycle (None: never
                          recovered, or no baseline to recover to)
    """
    fault_idx = next(
        (w["index"] for w in series.windows if w["faults"]), None
    )
    if fault_idx is None:
        return None
    fault_cycle = series.windows[fault_idx]["faults"][0]
    rates = series.rates(key)
    result: dict = {
        "fault_cycle": int(fault_cycle),
        "fault_window": int(fault_idx),
        "baseline": None,
        "recovered_window": None,
        "recovery_cycles": None,
    }
    if fault_idx == 0:
        return result  # no pre-fault windows: nothing to recover *to*
    baseline = float(np.mean(np.asarray(rates[:fault_idx], dtype=np.float64)))
    result["baseline"] = baseline
    for i in range(fault_idx + 1, len(rates)):
        if rates[i] >= (1.0 - tol) * baseline:
            result["recovered_window"] = int(i)
            result["recovery_cycles"] = int(
                series.windows[i]["end"] - fault_cycle
            )
            break
    return result


# ---------------------------------------------------------------------------
# Flat ``ts.window`` rows: the JSONL records and the Chrome-trace source


def _window_rows(series: WindowSeries, key: "str | None" = None) -> list:
    """One flat ``ts.window`` row per window (schema in :mod:`repro.obs`).

    Nested stats are flattened with ``lat_`` / ``occ_`` prefixes so the
    rows grep/jq cleanly.
    """
    rows = []
    for w in series.windows:
        lat, occ = w["latency"], w["occupancy"]
        rows.append(dict(
            key=key,
            index=w["index"],
            start=w["start"],
            end=w["end"],
            window=series.window,
            start_cycle=series.start_cycle,
            injected=w["injected"],
            ejected=w["ejected"],
            dropped=w["dropped"],
            lat_count=lat["count"],
            lat_mean=lat["mean"],
            lat_p50=lat["p50"],
            lat_p99=lat["p99"],
            lat_max=lat["max"],
            occ_samples=occ["count"],
            occ_mean=occ["mean"],
            occ_max=occ["max"],
            link_total=w["link_total"],
            top_links=w["top_links"],
            faults=w["faults"],
        ))
    return rows


def emit_window_events(series: WindowSeries, key: "str | None" = None) -> None:
    """Emit one ``ts.window`` row per window (no-op when obs is off)."""
    for row in _window_rows(series, key):
        emit("ts.window", **row)


# ---------------------------------------------------------------------------
# Chrome-trace ("Perfetto") export: one trace timestamp unit == one
# simulated cycle (the viewer labels it "us"; ``displayTimeUnit`` keeps
# the scale readable).


def _trace_process(rows: list, pid: int, name: str) -> list:
    """A process-name record, then per window (in index order) one point
    on each counter track — flit deltas, latency percentiles, mean
    occupancy, total link flits — at the window's start cycle, and one
    global instant event per fault marker."""
    out: list = [
        {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": name}},
    ]
    for row in sorted(rows, key=lambda r: r["index"]):
        ts = row["start"]
        out += [
            {
                "ph": "C", "pid": pid, "ts": ts, "name": "flits",
                "args": {
                    "injected": row["injected"],
                    "ejected": row["ejected"],
                    "dropped": row["dropped"],
                },
            },
            {
                "ph": "C", "pid": pid, "ts": ts, "name": "latency",
                "args": {"p50": row["lat_p50"] or 0.0, "p99": row["lat_p99"] or 0.0},
            },
            {
                "ph": "C", "pid": pid, "ts": ts, "name": "occupancy",
                "args": {"mean": row["occ_mean"] or 0.0},
            },
            {
                "ph": "C", "pid": pid, "ts": ts, "name": "link_flits",
                "args": {"total": row["link_total"]},
            },
        ]
        out += [
            {
                "ph": "i", "pid": pid, "tid": 0, "ts": int(c),
                "name": "fault", "s": "g", "cat": "fault",
            }
            for c in row["faults"]
        ]
    return out


def chrome_trace(series: WindowSeries, name: str = "flitsim", pid: int = 0) -> dict:
    """One run's series as a Chrome-trace JSON document (a plain dict).

    The tracks of :func:`_trace_process`, built from the rows
    :func:`emit_window_events` writes.  Load the result in ``chrome://tracing`` or
    https://ui.perfetto.dev.
    """
    return {
        "traceEvents": _trace_process(_window_rows(series), pid, name),
        "displayTimeUnit": "ms",
        "otherData": {
            "window": series.window,
            "start_cycle": series.start_cycle,
            "unit": "1 trace us == 1 simulated cycle",
        },
    }


def chrome_trace_from_events(events: list) -> dict:
    """A combined Chrome trace from merged ``ts.window`` JSONL records.

    Groups records by their ``key`` field (one trace process per sweep
    cell) and builds the same tracks as :func:`chrome_trace` — the
    ``tools/obsreport.py --trace`` path.  Records other than
    ``ts.window`` are ignored.
    """
    by_key: dict = {}
    for rec in events:
        if rec.get("ev") == "ts.window":
            by_key.setdefault(rec.get("key") or "-", []).append(rec)
    out: list = []
    for pid, (key, rows) in enumerate(sorted(by_key.items())):
        out += _trace_process(rows, pid, f"cell {key}")
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(doc, path: str) -> str:
    """Write a trace (a :class:`WindowSeries` or a trace dict) to ``path``."""
    if isinstance(doc, WindowSeries):
        doc = chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path
