#!/usr/bin/env python
"""Render a run report from ``repro.obs`` JSONL event shards.

    PYTHONPATH=src python tools/obsreport.py DIR [--top N] [--json]
        [--trace out.json]

Reads every ``events-*.jsonl`` shard under DIR (one per process, merged
and time-ordered by :func:`repro.obs.read_events`) and prints:

* a header — time range, participating pids, event count;
* a span waterfall — per span name: count, total, mean, max seconds
  (``sweep.chunk`` rows are the scheduler's per-chunk walls,
  ``sweep.cell`` the sampled worker-side cells);
* the retry/fault table — chunk retries, timeouts, bisections, pool
  restarts, serial cell retries, quarantined cells (with keys);
* sweep progress — the last heartbeat's done/total/ETA and the final
  cache hit ratio;
* the hottest links — per-link flit counts aggregated (max across
  events) from worker ``cell.telemetry`` records;
* per-cell timelines — sparkline terminal views of the windowed
  ``ts.window`` series (ejected flits per window, with fault markers),
  when windowed cells ran;
* the final ``counters`` registry snapshot, when one was emitted.

``--json`` emits the same report as one JSON document for tooling.
``--trace out.json`` additionally exports every ``ts.window`` series as
one Chrome-trace/Perfetto JSON file (load it in ``chrome://tracing`` or
https://ui.perfetto.dev).
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obs import read_events  # noqa: E402


def summarize(events: list, top: int = 5) -> dict:
    """Aggregate merged event records into the report document."""
    report: dict = {
        "events": len(events),
        "pids": sorted({e.get("pid") for e in events if "pid" in e}),
    }
    if events:
        ts = [e["ts"] for e in events if "ts" in e]
        if ts:
            report["t_start"] = min(ts)
            report["t_end"] = max(ts)
            report["duration_s"] = max(ts) - min(ts)

    spans: dict = {}
    retries = {"chunk.retry": 0, "chunk.timeout": 0, "chunk.bisect": 0,
               "pool.restart": 0, "cell.retry": 0}
    quarantined: list = []
    progress = None
    start = end = None
    counters = None
    links: dict = {}
    timelines: dict = {}
    corrupt = 0

    for ev in events:
        name = ev.get("ev")
        if name == "span":
            s = spans.setdefault(
                ev.get("name", "?"),
                {"count": 0, "total_s": 0.0, "max_s": 0.0, "failed": 0},
            )
            secs = float(ev.get("secs", 0.0))
            s["count"] += 1
            s["total_s"] += secs
            s["max_s"] = max(s["max_s"], secs)
            if not ev.get("ok", True):
                s["failed"] += 1
        elif name in retries:
            retries[name] += 1
        elif name == "cell.quarantine":
            quarantined.append({"key": ev.get("key"), "error": ev.get("error")})
        elif name == "sweep.progress":
            progress = ev
        elif name == "sweep.start":
            start = ev
        elif name == "sweep.end":
            end = ev
        elif name == "counters":
            counters = ev
        elif name == "cache.corrupt":
            corrupt += 1
        elif name == "cell.telemetry":
            # Per-link loads vary per cell (load sweeps); the hottest-
            # link report takes the max observed count per link so one
            # saturated cell is enough to surface a bottleneck.
            for u, v, c in ev.get("top_links", []):
                key = (int(u), int(v))
                links[key] = max(links.get(key, 0), int(c))
        elif name == "ts.window":
            timelines.setdefault(ev.get("key") or "-", []).append(ev)

    for s in spans.values():
        s["mean_s"] = s["total_s"] / s["count"] if s["count"] else 0.0
    report["spans"] = {
        k: spans[k] for k in sorted(spans, key=lambda k: -spans[k]["total_s"])
    }
    report["retries"] = retries
    report["quarantined"] = quarantined
    report["cache_corrupt_events"] = corrupt
    if start:
        report["sweep_start"] = {
            k: start[k] for k in ("cells", "cached", "missing", "workers")
            if k in start
        }
    if end:
        report["sweep_end"] = {
            k: end[k]
            for k in ("done", "total", "retries", "pool_restarts", "failed")
            if k in end
        }
    if progress:
        report["last_progress"] = {
            k: progress[k]
            for k in (
                "done", "total", "eta_s", "cache_hits", "cache_misses",
                "hit_ratio", "retries", "pool_restarts",
            )
            if k in progress
        }
    report["hottest_links"] = [
        {"u": u, "v": v, "flits": c}
        for (u, v), c in sorted(links.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    ]
    report["timelines"] = {
        key: sorted(recs, key=lambda r: r.get("index", 0))
        for key, recs in sorted(timelines.items())
    }
    if counters:
        # Shards written before gauges and histograms were dropped carry
        # them as two more keys; only the counters are reported.
        report["counters"] = {"counters": counters.get("counters", {})}
    return report


def _fmt_ts(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))


_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list) -> str:
    """Unicode block sparkline of a numeric series (empty-safe)."""
    vals = [0.0 if v is None else float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(vals)
    top = len(_SPARK) - 1
    return "".join(_SPARK[round((v - lo) / span * top)] for v in vals)


def render_timeline(key: str, recs: list) -> list:
    """Sparkline lines for one cell's ``ts.window`` records.

    One line per signal (ejected flits, p99 latency, mean occupancy),
    with window extent and fault markers (``!`` column under windows
    that carried a fault event) summarized alongside.
    """
    out = [
        f"{key}: {len(recs)} windows x {recs[0].get('window', '?')} cycles"
    ]
    rows = [
        ("ejected", [r.get("ejected") for r in recs]),
        ("lat p99", [r.get("lat_p99") for r in recs]),
        ("occupancy", [r.get("occ_mean") for r in recs]),
    ]
    for label, vals in rows:
        known = [v for v in vals if v is not None]
        hi = max(known) if known else 0
        out.append(f"  {label:<10s} {sparkline(vals)}  max {hi:g}")
    marks = "".join("!" if r.get("faults") else "." for r in recs)
    if "!" in marks:
        out.append(f"  {'faults':<10s} {marks}")
    return out


def render(report: dict) -> str:
    """The human-readable report text."""
    out = []
    out.append("== obs report ==")
    out.append(
        f"events {report['events']}   pids {len(report['pids'])} "
        f"{report['pids']}"
    )
    if "t_start" in report:
        out.append(
            f"window {_fmt_ts(report['t_start'])} .. "
            f"{_fmt_ts(report['t_end'])}  ({report['duration_s']:.2f} s)"
        )
    if "sweep_start" in report:
        s = report["sweep_start"]
        out.append(
            f"sweep: {s.get('cells', '?')} cells "
            f"({s.get('cached', 0)} cached, {s.get('missing', 0)} missing) "
            f"on {s.get('workers', '?')} workers"
        )

    out.append("")
    out.append("-- span waterfall --")
    if report["spans"]:
        out.append(
            f"{'span':<16s} {'count':>6s} {'total s':>9s} {'mean s':>9s} "
            f"{'max s':>9s} {'failed':>6s}"
        )
        for name, s in report["spans"].items():
            out.append(
                f"{name:<16s} {s['count']:>6d} {s['total_s']:>9.3f} "
                f"{s['mean_s']:>9.4f} {s['max_s']:>9.4f} {s['failed']:>6d}"
            )
    else:
        out.append("(no spans recorded)")

    out.append("")
    out.append("-- retries / faults --")
    r = report["retries"]
    out.append(
        f"chunk retries {r['chunk.retry']}   timeouts {r['chunk.timeout']}   "
        f"bisections {r['chunk.bisect']}   pool restarts {r['pool.restart']}   "
        f"cell retries {r['cell.retry']}   corrupt artifacts "
        f"{report['cache_corrupt_events']}"
    )
    for q in report["quarantined"]:
        out.append(f"quarantined {q['key']}: {q['error']}")

    if "last_progress" in report:
        p = report["last_progress"]
        out.append("")
        out.append("-- progress --")
        hits = p.get("cache_hits", 0)
        out.append(
            f"done {p.get('done', '?')}/{p.get('total', '?')}   "
            f"eta {p.get('eta_s', 0):.1f} s   cache hits {hits} "
            f"(ratio {p.get('hit_ratio', 0.0):.2f})   "
            f"retries {p.get('retries', 0)}   "
            f"restarts {p.get('pool_restarts', 0)}"
        )
    if "sweep_end" in report:
        e = report["sweep_end"]
        out.append(
            f"final: {e.get('done', '?')}/{e.get('total', '?')} cells, "
            f"{e.get('retries', 0)} retries, "
            f"{e.get('pool_restarts', 0)} pool restarts, "
            f"{e.get('failed', 0)} failed"
        )

    out.append("")
    out.append("-- hottest links --")
    if report["hottest_links"]:
        for h in report["hottest_links"]:
            out.append(f"{h['u']:>5d} -> {h['v']:<5d} {h['flits']:>8d} flits")
    else:
        out.append("(no cell.telemetry events)")

    if report.get("timelines"):
        out.append("")
        out.append("-- timeline --")
        for key, recs in report["timelines"].items():
            out.extend(render_timeline(key, recs))

    if "counters" in report:
        out.append("")
        out.append("-- counters --")
        for k, v in report["counters"].get("counters", {}).items():
            out.append(f"{k:<24s} {v}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", help="REPRO_OBS event directory")
    parser.add_argument("--top", type=int, default=5,
                        help="hottest links to show (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--trace", default=None, metavar="OUT",
                        help="write ts.window series as Chrome-trace JSON")
    args = parser.parse_args(argv)

    events = read_events(args.dir)
    if not events:
        print(f"no events found under {args.dir}", file=sys.stderr)
        return 1
    report = summarize(events, top=args.top)
    if args.trace:
        from repro.obs.timeseries import (
            chrome_trace_from_events,
            write_chrome_trace,
        )

        path = write_chrome_trace(chrome_trace_from_events(events), args.trace)
        print(f"wrote trace {path}", file=sys.stderr)
    if args.json:
        json.dump(report, sys.stdout, indent=2, default=str)
        print()
    else:
        print(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
