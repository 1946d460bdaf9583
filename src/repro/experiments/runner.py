"""The parallel sweep runner: one engine behind every figure and script.

:class:`SweepRunner` executes an :class:`~repro.experiments.spec.ExperimentSpec`
by (1) consulting the :class:`~repro.experiments.cache.ResultCache` for
already-simulated cells, (2) fanning the missing cells out over
``concurrent.futures`` worker processes, and (3) assembling the per-combo
:class:`~repro.flitsim.sweep.LoadSweep` curves callers plot or assert on.

Determinism contract: a cell's result depends only on the cell record
(spec strings + windows + derived seed), never on which worker ran it,
in what order, in which chunk, whether it came from the cache — or how
many times it had to be retried after a fault — so serial, parallel,
cached, and crash-recovered runs of the same spec are bit-identical.

Scheduling is **topology-affine** and **crash-resilient**: missing cells
are grouped by topology spec and split into small dynamically-sized
chunks (several per worker, so a worker builds each fabric at most once
per chunk while the grid still drains without a static-ordering tail),
dispatched as futures and harvested as they complete.  Each finished
chunk's cells are committed to the cache *immediately* — a killed run
resumes from the cache with zero re-simulation of finished cells.  A
chunk that fails (worker death, in-worker exception, or wall-clock
timeout) is retried with exponential backoff; a broken pool is killed
and respawned with only the in-flight chunks re-dispatched; a chunk
that fails twice is bisected until the offending cell is isolated,
recorded as a :class:`CellError`, and quarantined so the rest of the
grid completes.  Workers rebuild topologies/policies/traffic from
registry spec strings (cheap to ship, no pickled simulator state); the
default worker count is ``os.cpu_count()``, overridable with
``$REPRO_SWEEP_WORKERS``.
"""

from __future__ import annotations

import os
import sys
import time
import traceback as _traceback
import weakref
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.experiments.cache import ResultCache
from repro.experiments.registry import (
    FAULTS,
    POLICIES,
    TOPOLOGIES,
    TRAFFICS,
    WORKLOADS,
)
from repro.experiments.spec import ExperimentSpec, cell_cost
from repro.flitsim.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    SimConfig,
    SimResult,
    make_simulator,
)
from repro.flitsim.sweep import LoadSweep, SweepPoint
from repro.utils.env import env_positive

__all__ = [
    "SweepRunner",
    "ExperimentResult",
    "CellError",
    "SweepCellError",
    "SweepTimeoutError",
    "simulate_point",
    "simulate_workload",
    "run_cell",
    "run_chunk",
    "auto_sim_config",
    "default_worker_count",
    "cell_timeout",
]

#: environment override for the default worker count
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: environment override for the per-cell wall-clock timeout (seconds)
TIMEOUT_ENV = "REPRO_SWEEP_TIMEOUT"

#: progress heartbeat: seconds between one-line stderr summaries (off
#: unless set; independent of ``REPRO_OBS``)
PROGRESS_ENV = "REPRO_SWEEP_PROGRESS"

#: heartbeat cadence for ``sweep.progress`` events when only
#: ``REPRO_OBS`` is configured (no explicit ``REPRO_SWEEP_PROGRESS``)
_OBS_PROGRESS_DEFAULT_S = 5.0

#: default chunk sizing: aim for this many chunks per worker, so the
#: grid drains without a static-ordering tail and checkpoint commits
#: stay fine-grained
CHUNKS_PER_WORKER = 4

#: a chunk (or serial cell) is bisected/quarantined after this many
#: failed execution attempts
MAX_ATTEMPTS = 2

#: exponential retry backoff: base * 2**(attempts-1), capped
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0

#: per-cell timeout derivation: max(floor, cycles * routers * rate).
#: The rate is deliberately generous — the timeout is a hang guard of
#: last resort, not a performance budget.
TIMEOUT_FLOOR_S = 30.0
TIMEOUT_PER_CYCLE_ROUTER_S = 2e-4

#: slack added to every chunk deadline (dispatch + unpickling headroom)
CHUNK_DEADLINE_SLACK_S = 2.0

#: harvest-loop poll granularity (deadline checks between completions)
_POLL_S = 0.1


def default_worker_count() -> int:
    """Worker processes to use when the caller doesn't say.

    ``$REPRO_SWEEP_WORKERS`` wins when set; otherwise every core —
    sweeps are embarrassingly parallel and the determinism contract
    makes the count result-invisible.
    """
    return env_positive(WORKERS_ENV, int) or os.cpu_count() or 1


def _estimate_routers(topo_spec: str) -> int:
    """Crude router-count estimate parsed from a topology spec string.

    Only used to derive a generous default per-cell timeout
    (cycles x routers) without building the topology in the parent; a
    wrong guess just loosens or tightens the hang guard, never results.
    """
    name, _, params = topo_spec.partition(":")
    kv: dict = {}
    for part in params.split(","):
        k, _, v = part.partition("=")
        try:
            kv[k.strip()] = int(v)
        except ValueError:
            pass
    q = kv.get("q", 0)
    if name == "polarfly" and q:
        return q * q + q + 1
    if name == "polarstar" and q:
        return (q * q + q + 1) * max(1, kv.get("sq", 2 * q + 3))
    if name == "slimfly" and q:
        return 2 * q * q
    if name == "dragonfly" and kv.get("a") and kv.get("h"):
        return kv["a"] * (kv["a"] * kv["h"] + 1)
    for alias in ("n", "size", "num_routers"):
        if kv.get(alias):
            return kv[alias]
    return 1024


def cell_timeout(cell: dict) -> float:
    """Wall-clock budget for one cell, in seconds.

    ``$REPRO_SWEEP_TIMEOUT`` wins when set; the default is derived from
    the cell's simulated-cycle count times an estimated router count —
    generous enough that it only ever fires on a genuine hang.
    """
    env = env_positive(TIMEOUT_ENV, float)
    if env is not None:
        return env
    cycles = cell_cost(cell)
    routers = _estimate_routers(cell["topology"])
    return max(TIMEOUT_FLOOR_S, cycles * routers * TIMEOUT_PER_CYCLE_ROUTER_S)


def _chunk_deadline(cells: list) -> float:
    """Wall-clock budget for a chunk: the sum of its cells' budgets."""
    return sum(cell_timeout(cell) for cell in cells) + CHUNK_DEADLINE_SLACK_S


def _backoff(attempts: int) -> float:
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** max(0, attempts - 1))


def _format_exception(exc: BaseException) -> str:
    """Full traceback text, including the worker-side traceback that
    ``concurrent.futures`` chains as ``exc.__cause__`` when an exception
    crosses the process boundary."""
    return "".join(
        _traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def _chunk_label(cells: list) -> str:
    """Stable short identity for a chunk in event streams: the first
    cell's key prefix (bisection halves get distinct labels)."""
    return cells[0]["key"][:12] if cells else "-"


class _Heartbeat:
    """Periodic sweep progress: a one-line stderr summary when
    ``$REPRO_SWEEP_PROGRESS`` is set (seconds interval), and/or
    ``sweep.progress`` events when ``$REPRO_OBS`` is configured.

    Inert (every call a no-op after one attribute check) when neither
    knob is set.  ``final()`` always prints one closing summary line
    when printing is enabled, even for runs shorter than the interval.
    """

    __slots__ = (
        "result", "total", "interval", "print_line", "obs_on",
        "t0", "start_done", "next_beat", "samples",
    )

    #: completion samples kept for the sliding-window rate (one per
    #: beat, so the window spans roughly the last 5 intervals)
    _RATE_WINDOW = 6

    def __init__(self, result: "ExperimentResult", total: int):
        self.result = result
        self.total = total
        interval = env_positive(PROGRESS_ENV, float)
        self.print_line = interval is not None
        if interval is not None:
            interval = max(0.1, interval)
        self.obs_on = obs.enabled()
        if interval is None and self.obs_on:
            interval = _OBS_PROGRESS_DEFAULT_S
        self.interval = interval
        self.t0 = time.monotonic()
        self.start_done = len(result.cells)
        self.samples = deque(maxlen=self._RATE_WINDOW)
        self.samples.append((self.t0, self.start_done))
        self.next_beat = (
            self.t0 + interval if interval is not None else float("inf")
        )

    def maybe_beat(self, now: "float | None" = None) -> None:
        if self.interval is None:
            return
        now = time.monotonic() if now is None else now
        if now < self.next_beat:
            return
        self.next_beat = now + self.interval
        self._beat(now)

    def final(self) -> None:
        """Closing beat: unconditional when any channel is configured."""
        if self.interval is not None:
            self._beat(time.monotonic())

    def _beat(self, now: float) -> None:
        r = self.result
        done = len(r.cells)
        failed = len(r.failed_cells)
        remaining = max(0, self.total - done - failed)
        elapsed = now - self.t0
        # ETA from the recent-completion window, not the whole-run mean:
        # early cache-hit bursts or a slow cold start would otherwise
        # skew the estimate for the entire sweep.  Falls back to the
        # whole-run mean until the window has seen any completions.
        w_t, w_done = self.samples[0]
        self.samples.append((now, done))
        span = now - w_t
        rate = (done - w_done) / span if span > 0 else 0.0
        if rate <= 0:
            rate_done = done - self.start_done
            rate = rate_done / elapsed if elapsed > 0 else 0.0
        eta = remaining / rate if rate > 0 and remaining else 0.0
        hits = r.cache_hits
        looked_up = hits + r.cache_misses
        hit_ratio = hits / looked_up if looked_up else 0.0
        if self.obs_on:
            obs.emit(
                "sweep.progress",
                done=done,
                total=self.total,
                eta_s=round(eta, 3),
                cells_per_s=round(rate, 3),
                cache_hits=hits,
                cache_misses=r.cache_misses,
                hit_ratio=round(hit_ratio, 4),
                retries=r.retries,
                pool_restarts=r.pool_restarts,
            )
        if self.print_line:
            pct = 100.0 * done / self.total if self.total else 100.0
            print(
                f"[sweep] {done}/{self.total} cells ({pct:.0f}%) "
                f"elapsed {elapsed:.1f}s eta {eta:.1f}s "
                f"rate {rate:.2f}/s hits {hits} retries {r.retries} "
                f"restarts {r.pool_restarts} failed {failed}",
                file=sys.stderr,
                flush=True,
            )


#: per-process memo: canonical topology spec -> (topology, routing tables)
_TOPO_MEMO: dict = {}

#: memo entries kept per process — the pool now persists across run()
#: calls, so without a bound a worker would accumulate every topology it
#: ever simulated (N x N tables, fabrics).  Topology-affine
#: chunks make eviction churn rare.
_TOPO_MEMO_CAP = 8


def auto_sim_config(
    policy,
    port_budget: int = 32,
    num_vcs: "int | None" = None,
    vc_depth: "int | None" = None,
    packet_size: int = 4,
) -> SimConfig:
    """Simulator config sized for ``policy`` under a fixed port budget.

    The paper's methodology: total buffering per port is constant while
    the VC count covers the policy's worst-case hop count (deadlock
    freedom needs ``max_hops - 1`` hop classes).  Explicit ``num_vcs`` /
    ``vc_depth`` override either half of the derivation.
    """
    vcs = int(num_vcs) if num_vcs else max(4, policy.max_hops - 1)
    depth = int(vc_depth) if vc_depth else max(2, port_budget // vcs)
    return SimConfig(num_vcs=vcs, vc_depth=depth, packet_size=packet_size)


def simulate_point(
    topo,
    policy,
    traffic,
    load: float,
    config: "SimConfig | None" = None,
    warmup: int = 600,
    measure: int = 1200,
    drain: int = 300,
    seed=0,
    engine: "str | None" = None,
    faults=None,
    link_telemetry: bool = False,
    window: int = 0,
) -> SimResult:
    """Run one simulation cell on already-built objects.

    The single execution path for every simulation point in the repo —
    benchmarks, examples, and cache-missing sweep cells all end here.
    ``engine`` of ``None`` selects the struct-of-arrays flat engine
    unless ``$REPRO_SIM_ENGINE`` overrides it; the two engines are
    result-equivalent, so cached artifacts are engine-agnostic.  With a
    ``faults`` timeline the returned result carries the run's
    :class:`~repro.faults.FaultResult` as ``.fault`` (size the config
    via :func:`~repro.faults.prepare_fault_policy` first, or pass
    ``config=None`` after preparing the policy).  ``link_telemetry=True``
    runs under a :class:`~repro.flitsim.telemetry.LinkCounts` observer
    and hangs its nonzero ``{(u, v): flits}`` map of the measure window
    (CSR edge order) on the result as ``.link_flits``.  A nonzero
    ``window`` runs under a :class:`~repro.flitsim.telemetry.WindowCloser`
    and hangs its :class:`~repro.obs.timeseries.WindowSeries` as
    ``.timeseries``.  Observers never perturb simulation results.
    """
    if config is None:
        config = auto_sim_config(policy)
    sim = make_simulator(
        topo, policy, traffic, float(load), config=config, seed=seed,
        engine=engine, faults=faults,
    )
    observers = []
    if link_telemetry or window:
        from repro.flitsim.telemetry import LinkCounts, WindowCloser

        links = LinkCounts() if link_telemetry else None
        windows = WindowCloser(int(window)) if window else None
        observers = [ob for ob in (links, windows) if ob is not None]
    res = sim._drive(warmup, measure, drain, observers=observers)
    if window:
        res.timeseries = windows.series
    if sim.fault_result is not None:
        res.fault = sim.fault_result
    if link_telemetry:
        res.link_flits = links.counts
    return res


def simulate_workload(
    topo,
    policy,
    workload,
    config: "SimConfig | None" = None,
    max_cycles: int = 200_000,
    seed=0,
    engine: "str | None" = None,
    faults=None,
    window: int = 0,
):
    """Run one closed-loop workload cell on already-built objects.

    The workload counterpart of :func:`simulate_point`: every
    closed-loop simulation in the repo — benchmarks, examples, and
    cache-missing workload sweep cells — ends here.  Returns a
    :class:`~repro.workloads.WorkloadResult` (carrying ``.fault`` when a
    timeline was attached, and ``.timeseries`` when ``window`` is
    nonzero).
    """
    if config is None:
        config = auto_sim_config(policy)
    sim = make_simulator(
        topo, policy, None, 0.0, config=config, seed=seed, engine=engine,
        workload=workload, faults=faults,
    )
    if window:
        from repro.flitsim.telemetry import run_workload_with_timeseries

        res, series = run_workload_with_timeseries(
            sim, window=int(window), max_cycles=max_cycles
        )
        res.timeseries = series
    else:
        res = sim.run_workload(max_cycles=max_cycles)
    if sim.fault_result is not None:
        res.fault = sim.fault_result
    return res


def _build_cell_objects(cell: dict):
    """(topo, policy, traffic) for a cell record, memoizing per process."""
    from repro.routing.tables import RoutingTables

    topo_spec = cell["topology"]
    memo = _TOPO_MEMO.get(topo_spec)
    if memo is None:
        while len(_TOPO_MEMO) >= _TOPO_MEMO_CAP:
            _TOPO_MEMO.pop(next(iter(_TOPO_MEMO)))
        topo = TOPOLOGIES.create(topo_spec)
        memo = _TOPO_MEMO[topo_spec] = (topo, RoutingTables(topo))
        # Pre-warm the flat engine's dense port geometry: it is memoized
        # weakly per topology object, and this memo keeps the object
        # alive, so every later cell on this topology reuses it.  (Skip
        # when the env pins the reference engine — it never uses one.)
        if os.environ.get(ENGINE_ENV, DEFAULT_ENGINE) != "reference":
            from repro.flitsim.flatcore import fabric_for

            fabric_for(topo)
    topo, tables = memo
    policy = POLICIES.create(cell["policy"], tables)
    traffic = TRAFFICS.create(cell["traffic"], topo) if cell["traffic"] else None
    return topo, policy, traffic


def run_cell(cell: dict) -> dict:
    """Execute one cell record and return its JSON-safe statistics.

    Module-level (picklable) so :class:`ProcessPoolExecutor` can run it
    in workers; also called inline for serial sweeps.  Closed-loop
    cells (a ``workload`` field instead of a traffic spec) run to
    completion and report workload metrics alongside the standard
    sweep-point fields — avg/p50/p99 are then *packet* statistics of
    the whole run and ``accepted_load`` the achieved throughput, so
    workload curves assemble through the same
    :class:`~repro.flitsim.sweep.LoadSweep` plumbing.
    """
    # Chaos injection point (tests only): the env check is inlined so
    # the hot path never imports the chaos module.  The literal must
    # match repro.experiments.chaos.CHAOS_ENV.
    if os.environ.get("REPRO_CHAOS"):
        from repro.experiments.chaos import active_plan

        plan = active_plan()
        if plan is not None:
            plan.before_cell(cell)
    # Observability is gated the same way: with $REPRO_OBS unset this is
    # one env lookup and nothing else on the hot path.
    obs_on = bool(os.environ.get(obs.OBS_ENV)) and obs.enabled()
    topo, policy, traffic = _build_cell_objects(cell)
    faults = None
    if cell.get("faults"):
        from repro.faults import prepare_fault_policy

        # Built per cell (cheap); the repaired per-epoch tables are
        # memoized on the topology, so repeated cells share them.  The
        # policy's hop ceiling must cover every degraded epoch *before*
        # VC counts are derived below.
        faults = FAULTS.create(cell["faults"], topo)
        prepare_fault_policy(policy, faults, topo)
    config = auto_sim_config(
        policy,
        port_budget=cell["port_budget"],
        num_vcs=cell["num_vcs"],
        vc_depth=cell["vc_depth"],
        packet_size=cell["packet_size"],
    )
    if cell.get("workload"):
        workload = WORKLOADS.create(cell["workload"], topo)
        with obs.span(
            "sweep.cell", sampled=True, key=cell["key"][:12], load=cell["load"]
        ):
            res = simulate_workload(
                topo,
                policy,
                workload,
                config=config,
                max_cycles=cell["max_cycles"],
                seed=cell["seed"],
                faults=faults,
                window=cell.get("window", 0),
            )
        stats = _point_stats(
            res,
            offered_load=cell["load"],
            accepted_load=res.achieved_throughput,
            latencies=res.packet_latencies,
        )
        stats.update(res.summary())
        if faults is not None:
            stats.update(res.fault.summary())
        _timeseries_stats(res, stats, cell, obs_on)
        return stats
    with obs.span(
        "sweep.cell", sampled=True, key=cell["key"][:12], load=cell["load"]
    ):
        res = simulate_point(
            topo,
            policy,
            traffic,
            cell["load"],
            config=config,
            warmup=cell["warmup"],
            measure=cell["measure"],
            drain=cell["drain"],
            seed=cell["seed"],
            faults=faults,
            link_telemetry=obs_on,
            window=cell.get("window", 0),
        )
    link_flits = getattr(res, "link_flits", None)
    if obs_on and link_flits:
        ranked = sorted(link_flits.items(), key=lambda kv: (-kv[1], kv[0]))
        obs.emit(
            "cell.telemetry",
            sampled=True,
            key=cell["key"][:12],
            cycles=int(res.cycles),
            top_links=[
                [int(u), int(v), int(c)] for (u, v), c in ranked[:8]
            ],
        )
    stats = _point_stats(res, res.offered_load, res.accepted_load, res.latencies)
    if faults is not None:
        stats.update(res.fault.summary())
    _timeseries_stats(res, stats, cell, obs_on)
    return stats


def _point_stats(res, offered_load: float, accepted_load: float, latencies) -> dict:
    """The sweep-point statistics of a cell, from either result type.

    ``latencies`` is the result's per-packet sample array; an open-loop
    :class:`SimResult` and a closed-loop ``WorkloadResult`` name it (and
    the two loads) differently but share every other field.
    """

    def stat(reduce, *args) -> float:
        return float(reduce(latencies, *args)) if len(latencies) else float("nan")

    return {
        "offered_load": offered_load,
        "accepted_load": accepted_load,
        "avg_latency": stat(np.mean),
        "p50_latency": stat(np.percentile, 50),
        "p99_latency": stat(np.percentile, 99),
        "avg_hops": res.avg_hops,
        "cycles": res.cycles,
        "num_endpoints": res.num_endpoints,
        "injected_flits": res.injected_flits,
        "ejected_flits": res.ejected_flits,
        "num_packets": int(len(latencies)),
    }


def _timeseries_stats(res, stats: dict, cell: dict, obs_on: bool) -> None:
    """Fold a windowed run's series into the cell's persisted stats.

    The series summary rides the normal cache commit (JSON-safe lists
    and dicts only), ``steady_state_window`` lets sweeps gate on
    time-to-steady-state, and — when the obs sink is configured — each
    window is also emitted as a ``ts.window`` event for live timelines.
    No-op for non-windowed cells.
    """
    series = getattr(res, "timeseries", None)
    if series is None:
        return
    from repro.obs.timeseries import emit_window_events, steady_state_window

    stats["timeseries"] = series.summary()
    stats["steady_state_window"] = steady_state_window(series)
    if obs_on:
        emit_window_events(series, key=cell["key"][:12])


def run_chunk(cells: list) -> list:
    """Execute a topology-affine chunk of cell records, in order.

    The pool's unit of work: every cell in a chunk shares one topology
    spec, so a worker pays fabric/table construction once (via the
    per-process memo) and then just simulates.
    """
    return [run_cell(cell) for cell in cells]


def _point_from_stats(stats: dict) -> SweepPoint:
    return SweepPoint(
        offered_load=stats["offered_load"],
        avg_latency=stats["avg_latency"],
        p99_latency=stats["p99_latency"],
        accepted_load=stats["accepted_load"],
        avg_hops=stats["avg_hops"],
        p50_latency=stats["p50_latency"],
    )


@dataclass
class CellError:
    """Structured record of a quarantined cell: what failed and how.

    Surfaced in :attr:`ExperimentResult.failed_cells` and — when the
    runner has a cache — persisted as a ``failed/<key>.json`` artifact
    so post-mortems survive the run.
    """

    key: str
    cell: dict
    error: str
    traceback: str
    attempts: int

    def to_doc(self) -> dict:
        """JSON-safe artifact form."""
        return {
            "cell": self.cell,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


class SweepCellError(RuntimeError):
    """Raised by ``run(strict=True)`` when cells were quarantined.

    Carries the quarantined :class:`CellError` records as ``.failed``;
    the message names the offending cell keys.
    """

    def __init__(self, message: str, failed: dict):
        super().__init__(message)
        self.failed = failed


class SweepTimeoutError(RuntimeError):
    """A chunk exceeded its wall-clock deadline and its workers were
    killed (recorded as the chunk's failure cause; the chunk is retried
    and, if it keeps hanging, bisected/quarantined like any failure)."""


@dataclass
class _WorkItem:
    """One dispatched unit: a chunk of cells plus its retry state."""

    cells: list
    attempts: int = 0
    #: earliest monotonic time this item may be (re-)dispatched
    not_before: float = 0.0
    #: monotonic submit time of the current attempt (chunk span timing)
    t0: float = 0.0
    #: True once the item was in flight during a pool death — suspects
    #: run solo so the next death is attributable to exactly one chunk
    suspect: bool = False


@dataclass
class ExperimentResult:
    """Assembled output of one :meth:`SweepRunner.run` invocation."""

    spec: ExperimentSpec
    sweeps: list = field(default_factory=list)
    #: raw per-cell statistics keyed by cell hash
    cells: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: quarantined cells: cell hash -> :class:`CellError` (empty on a
    #: clean run; non-strict runs assemble curves from the survivors)
    failed_cells: dict = field(default_factory=dict)
    #: chunk execution attempts that failed and were requeued
    retries: int = 0
    #: times the worker pool was killed and respawned mid-run
    pool_restarts: int = 0

    def sweep(self, label: str) -> LoadSweep:
        """The curve with ``label`` (exact match)."""
        for s in self.sweeps:
            if s.label == label:
                return s
        raise KeyError(
            f"no sweep labelled {label!r}; have "
            + ", ".join(repr(s.label) for s in self.sweeps)
        )

    def saturation_table(self) -> dict:
        """label -> saturation throughput, the headline number per curve."""
        return {s.label: s.saturation_load() for s in self.sweeps}


class SweepRunner:
    """Runs experiment specs with caching, process-parallel fan-out, and
    crash-resilient scheduling.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, or ``None`` to always simulate.
    max_workers:
        Worker processes for cache-missing cells.  ``None`` reads
        ``$REPRO_SWEEP_WORKERS``, defaulting to ``os.cpu_count()``; the
        pool persists across :meth:`run` calls (use :meth:`close` or a
        ``with`` block to reap it eagerly — garbage collection does too).
    chunk_cells:
        Cells per dispatched chunk.  ``None`` picks a dynamic size
        targeting :data:`CHUNKS_PER_WORKER` chunks per worker — small
        chunks keep checkpoint commits fine-grained and kill the
        static-ordering tail, while topology affinity still amortizes
        construction.

    Resilience
    ----------
    :meth:`run` survives worker deaths (OOM kills, segfaults), hung
    cells, and poison cells: finished chunks are committed to the cache
    the moment they arrive (a killed run resumes from the cache), failed
    chunks are retried with exponential backoff, a broken pool is killed
    and respawned with only the in-flight chunks re-dispatched, chunks
    exceeding their wall-clock deadline (``$REPRO_SWEEP_TIMEOUT`` per
    cell; default derived from cycles x routers) are killed and retried,
    and a chunk that fails twice is bisected until the offending cell is
    isolated and quarantined as a :class:`CellError`.  With
    ``strict=True`` (the default) quarantined cells raise
    :class:`SweepCellError` *after* the rest of the grid completes; with
    ``strict=False`` they are reported in
    :attr:`ExperimentResult.failed_cells` and the surviving cells'
    curves assemble normally.

    Observability
    -------------
    With ``$REPRO_OBS=dir=...`` set (see :mod:`repro.obs`) the runner
    emits structured lifecycle events — ``sweep.start/progress/end``,
    ``chunk.dispatch/retry/timeout/bisect``, per-chunk ``span`` records,
    ``pool.restart``, ``cell.retry``/``cell.quarantine`` — and workers
    add sampled per-cell spans plus ``cell.telemetry`` hottest-link
    records.  Independently, ``$REPRO_SWEEP_PROGRESS=SECONDS`` prints a
    one-line progress heartbeat to stderr at that interval (plus a final
    summary line), with or without ``$REPRO_OBS``.

    Notes
    -----
    Because the pool persists, workers snapshot the environment when
    first spawned: flipping env knobs (``$REPRO_SIM_ENGINE``,
    ``$REPRO_SWEEP_TIMEOUT``, ``$REPRO_CHAOS``, ``$REPRO_OBS``) between
    :meth:`run` calls requires :meth:`close` first so the next pool
    re-reads them.  On platforms whose default start method is
    *spawn* (macOS, Windows), scripts using a multi-worker runner need
    the standard ``if __name__ == "__main__":`` guard; set
    ``REPRO_SWEEP_WORKERS=1`` to force inline execution instead.
    Timeouts are enforced only on the multi-worker path — an inline
    (serial) run cannot preempt itself.
    """

    def __init__(
        self,
        cache: "ResultCache | None" = None,
        max_workers: "int | None" = None,
        chunk_cells: "int | None" = None,
    ):
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if chunk_cells is not None and chunk_cells < 1:
            raise ValueError("chunk_cells must be >= 1")
        self.cache = cache
        self.max_workers = max_workers
        self.chunk_cells = chunk_cells
        self._pool: "ProcessPoolExecutor | None" = None
        self._pool_workers = 0

    @classmethod
    def with_default_cache(cls, max_workers: "int | None" = None) -> "SweepRunner":
        return cls(cache=ResultCache.default(), max_workers=max_workers)

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, created on first use at full width.

        Always sized to ``max_workers`` — sizing to the current run's
        chunk count would tear the pool down whenever a later run has
        more chunks, discarding the per-worker construction memo the
        persistent pool exists to keep warm.  Excess workers just idle.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self._pool_workers = self.max_workers
            # Reap worker processes when the runner is collected without
            # an explicit close() (shutdown is idempotent).
            weakref.finalize(self, self._pool.shutdown, wait=False)
        return self._pool

    def _restart_pool(self, result: "ExperimentResult | None" = None) -> None:
        """Kill the current pool outright; the next dispatch respawns it.

        Worker processes are SIGKILLed (a hung cell would survive a
        plain shutdown), so this is the teardown half of both the
        broken-pool self-healing path and timeout enforcement.
        """
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.kill()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        if result is not None:
            result.pool_restarts += 1
            obs.counter("sweep.pool_restarts").inc()
            obs.emit("pool.restart", restarts=result.pool_restarts)

    def _chunks(self, missing: list) -> list:
        """Topology-affine, cost-ordered chunks of ``missing``.

        Cells are grouped by topology spec (first-seen order) and each
        group is split into pieces of at most ``chunk_cells`` cells
        (default: ``ceil(missing / (workers * CHUNKS_PER_WORKER))``,
        i.e. several small chunks per worker): a chunk never mixes
        topologies (one fabric/table build per chunk), yet a single big
        topology still fans out across the whole pool, finished work
        checkpoints frequently, and the pool drains without the
        static-ordering tail a one-chunk-per-worker split leaves.
        Within each group cells are stable-sorted by *descending
        offered load* first — high-load cells simulate the most flits
        per cycle, so scheduling the expensive work first evens out the
        tail.  Chunking and ordering affect only placement — per-cell
        results are chunk-invariant by the determinism contract.
        """
        groups: dict = {}
        for cell in missing:
            groups.setdefault(cell["topology"], []).append(cell)
        size = self.chunk_cells or max(
            1, -(-len(missing) // (self.max_workers * CHUNKS_PER_WORKER))
        )
        chunks = []
        for group in groups.values():
            group = sorted(group, key=lambda c: -c["load"])
            for i in range(0, len(group), size):
                chunks.append(group[i : i + size])
        return chunks

    # ------------------------------------------------------------------
    # Spec execution
    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec, strict: bool = True) -> ExperimentResult:
        """Execute ``spec``: cache lookups, resilient fan-out, assembly.

        Every cell is attempted (with retries, pool self-healing, and
        poison-cell bisection) before any failure surfaces, and every
        finished chunk is committed to the cache immediately — so even
        a strict run that ultimately raises leaves all recoverable work
        checkpointed.  ``strict=True`` raises :class:`SweepCellError`
        naming the quarantined cell keys; ``strict=False`` reports them
        in :attr:`ExperimentResult.failed_cells` and assembles the
        surviving cells' curves.
        """
        cells = spec.cells()
        result = ExperimentResult(spec=spec)

        missing = []
        for cell in cells:
            doc = self.cache.get(cell["key"]) if self.cache is not None else None
            if doc is not None and doc.get("cell", {}).get("version") == cell["version"]:
                result.cells[cell["key"]] = doc["result"]
                result.cache_hits += 1
            else:
                missing.append(cell)

        hb = _Heartbeat(result, total=len(cells))
        obs.emit(
            "sweep.start",
            cells=len(cells),
            cached=result.cache_hits,
            missing=len(missing),
            workers=self.max_workers,
        )
        if missing:
            result.cache_misses = len(missing)
            with obs.span("sweep.run", cells=len(missing)):
                if self.max_workers > 1 and len(missing) > 1:
                    self._run_parallel(missing, result, hb)
                else:
                    self._run_serial(missing, result, hb)
        hb.final()
        obs.emit(
            "sweep.end",
            done=len(result.cells),
            total=len(cells),
            retries=result.retries,
            pool_restarts=result.pool_restarts,
            failed=len(result.failed_cells),
        )
        obs.emit_counters()

        if result.failed_cells and strict:
            keys = sorted(result.failed_cells)
            first = result.failed_cells[keys[0]]
            raise SweepCellError(
                f"{len(keys)} cell(s) failed after {MAX_ATTEMPTS} attempts: "
                + ", ".join(k[:12] for k in keys)
                + f"; first failure: {first.error}",
                result.failed_cells,
            )

        # cells() is combo-major then load-major, so the precomputed list
        # partitions into one len(loads) slice per combo — no re-hashing.
        # Quarantined cells are simply absent from a combo's points.
        per_combo = len(spec.loads)
        for i, combo in enumerate(spec.combos):
            points = [
                _point_from_stats(result.cells[cell["key"]])
                for cell in cells[i * per_combo : (i + 1) * per_combo]
                if cell["key"] in result.cells
            ]
            result.sweeps.append(LoadSweep(combo.label, points))
        return result

    # ------------------------------------------------------------------
    # Resilient execution paths
    # ------------------------------------------------------------------
    def _commit(self, result: ExperimentResult, cell: dict, stats: dict) -> None:
        """Checkpoint one finished cell: result map + immediate cache put."""
        result.cells[cell["key"]] = stats
        obs.counter("sweep.cells_done").inc()
        if self.cache is not None:
            self.cache.put(cell["key"], {"cell": cell, "result": stats})

    def _quarantine_cell(
        self, result: ExperimentResult, cell: dict, exc: BaseException, attempts: int
    ) -> None:
        """Record a poison cell as a :class:`CellError` (plus artifact)."""
        err = CellError(
            key=cell["key"],
            cell=cell,
            error=f"{type(exc).__name__}: {exc}",
            traceback=_format_exception(exc),
            attempts=attempts,
        )
        result.failed_cells[cell["key"]] = err
        obs.counter("sweep.quarantined").inc()
        obs.emit("cell.quarantine", key=cell["key"][:12], error=err.error)
        if self.cache is not None:
            self.cache.put_failure(cell["key"], err.to_doc())

    def _run_serial(
        self,
        missing: list,
        result: ExperimentResult,
        hb: "_Heartbeat | None" = None,
    ) -> None:
        """Inline execution with the same retry/quarantine semantics.

        Each cell commits to the cache the moment it finishes, so an
        interrupted serial sweep (SIGKILL, power loss) resumes from the
        cache too.  No timeout enforcement — inline execution cannot
        preempt itself.
        """
        for cell in missing:
            last: "BaseException | None" = None
            for attempt in range(1, MAX_ATTEMPTS + 1):
                try:
                    stats = run_cell(cell)
                except Exception as exc:
                    last = exc
                    result.retries += 1
                    obs.counter("sweep.retries").inc()
                    obs.emit(
                        "cell.retry",
                        key=cell["key"][:12],
                        attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    if attempt < MAX_ATTEMPTS:
                        time.sleep(_backoff(attempt))
                    continue
                self._commit(result, cell, stats)
                break
            else:
                self._quarantine_cell(result, cell, last, MAX_ATTEMPTS)
            if hb is not None:
                hb.maybe_beat()

    def _dispatch(
        self, item: _WorkItem, inflight: dict, result: ExperimentResult
    ) -> None:
        """Submit one work item, respawning the pool if submit fails."""
        # before the pool exists: a bad $REPRO_SWEEP_TIMEOUT raises here
        budget = _chunk_deadline(item.cells)
        for _ in range(2):
            pool = self._ensure_pool()
            try:
                fut = pool.submit(run_chunk, item.cells)
            except BrokenExecutor:
                self._restart_pool(result)
                continue
            item.t0 = time.monotonic()
            inflight[fut] = (item, item.t0 + budget)
            obs.emit(
                "chunk.dispatch",
                chunk=_chunk_label(item.cells),
                cells=len(item.cells),
                attempt=item.attempts + 1,
            )
            return
        raise RuntimeError("worker pool could not be respawned")

    def _requeue_failure(
        self,
        item: _WorkItem,
        exc: BaseException,
        queue: list,
        result: ExperimentResult,
        penalize: bool = True,
        suspect: bool = False,
    ) -> None:
        """Handle one failed chunk attempt: retry, bisect, or quarantine.

        ``penalize=False`` marks collateral damage — a chunk whose
        future died only because *another* chunk broke the shared pool;
        it is re-dispatched (as a suspect, so it runs solo and the next
        pool death is attributable) without burning one of its
        :data:`MAX_ATTEMPTS`.
        """
        result.retries += 1
        obs.counter("sweep.retries").inc()
        if isinstance(exc, SweepTimeoutError):
            obs.emit(
                "chunk.timeout",
                chunk=_chunk_label(item.cells),
                cells=len(item.cells),
                deadline_s=round(_chunk_deadline(item.cells), 3),
            )
        obs.emit(
            "chunk.retry",
            chunk=_chunk_label(item.cells),
            cells=len(item.cells),
            attempt=item.attempts + (1 if penalize else 0),
            error=f"{type(exc).__name__}: {exc}",
        )
        item.suspect = item.suspect or suspect
        if penalize:
            item.attempts += 1
        hold = time.monotonic() + _backoff(max(1, item.attempts))
        if item.attempts < MAX_ATTEMPTS:
            item.not_before = hold
            queue.append(item)
        elif len(item.cells) == 1:
            self._quarantine_cell(result, item.cells[0], exc, item.attempts)
        else:
            # Bisect: the offending cell is somewhere inside — halve
            # until it is alone, then quarantine it.  Halves inherit
            # suspect status (solo execution keeps attribution exact
            # for worker-killing cells) but start with fresh attempts.
            mid = len(item.cells) // 2
            obs.emit(
                "chunk.bisect",
                chunk=_chunk_label(item.cells),
                cells=len(item.cells),
            )
            for half in (item.cells[:mid], item.cells[mid:]):
                queue.append(
                    _WorkItem(
                        list(half), not_before=hold, suspect=item.suspect
                    )
                )

    def _fill(
        self, queue: list, inflight: dict, result: ExperimentResult, now: float
    ) -> None:
        """Dispatch ready work up to the concurrency limit.

        The limit is *twice* the worker count: the extra chunks sit
        queued inside the executor so a worker that finishes pulls its
        next chunk immediately instead of idling for the parent's
        harvest-and-resubmit round trip (which costs ~10% wall clock on
        small grids).  A queued chunk's deadline clock starts at submit,
        so the expiry path cancels never-started futures instead of
        killing the pool.

        While any suspect chunk exists, exactly one chunk runs at a
        time (suspects first): a pool death with a single chunk in
        flight is attributable to that chunk, which is what lets the
        bisection converge on worker-killing poison cells without
        quarantining innocent bystanders.
        """
        has_suspect = any(i.suspect for i in queue) or any(
            it.suspect for it, _ in inflight.values()
        )
        if has_suspect:
            if not inflight:
                item = self._pop_ready(queue, now, suspect_first=True)
                if item is not None:
                    self._dispatch(item, inflight, result)
            return
        while len(inflight) < 2 * self.max_workers:
            item = self._pop_ready(queue, now)
            if item is None:
                break
            self._dispatch(item, inflight, result)

    @staticmethod
    def _pop_ready(queue: list, now: float, suspect_first: bool = False):
        """Remove and return a dispatchable item, or None."""
        ready = [
            (i, item) for i, item in enumerate(queue) if item.not_before <= now
        ]
        if not ready:
            return None
        if suspect_first:
            for i, item in ready:
                if item.suspect:
                    del queue[i]
                    return item
        i, item = ready[0]
        del queue[i]
        return item

    def _run_parallel(
        self,
        missing: list,
        result: ExperimentResult,
        hb: "_Heartbeat | None" = None,
    ) -> None:
        """The as-completed scheduler: dispatch, harvest, heal, repeat."""
        queue = [_WorkItem(list(chunk)) for chunk in self._chunks(missing)]
        inflight: dict = {}  # future -> (_WorkItem, deadline)
        while queue or inflight:
            now = time.monotonic()
            if hb is not None:
                hb.maybe_beat(now)
            self._fill(queue, inflight, result, now)
            if not inflight:
                # Everything dispatchable is backing off; sleep to the
                # earliest release instead of spinning.
                delay = min(i.not_before for i in queue) - time.monotonic()
                if delay > 0:
                    time.sleep(min(delay, BACKOFF_CAP_S))
                continue
            done, _ = wait(
                list(inflight), timeout=_POLL_S, return_when=FIRST_COMPLETED
            )
            round_inflight = len(inflight)
            broken = False
            for fut in done:
                item, _deadline = inflight.pop(fut)
                exc = fut.exception()
                if exc is None:
                    for cell, stats in zip(item.cells, fut.result()):
                        self._commit(result, cell, stats)
                    obs.emit(
                        "span",
                        name="sweep.chunk",
                        secs=time.monotonic() - item.t0,
                        ok=True,
                        chunk=_chunk_label(item.cells),
                        cells=len(item.cells),
                    )
                elif isinstance(exc, BrokenExecutor):
                    # A worker died.  With exactly one chunk in flight
                    # the guilt is certain; otherwise every in-flight
                    # chunk becomes a solo-run suspect.
                    broken = True
                    self._requeue_failure(
                        item, exc, queue, result,
                        penalize=(round_inflight == 1), suspect=True,
                    )
                else:
                    # In-worker exception: the pool survives and the
                    # failure attributes to exactly this chunk.
                    self._requeue_failure(item, exc, queue, result)
            now = time.monotonic()
            expired = [f for f, (_, dl) in inflight.items() if now > dl]
            for fut in expired:
                item, _deadline = inflight.pop(fut)
                if fut.cancel():
                    # Never started running — its deadline clock was
                    # ticking in the executor's queue, not in a worker.
                    # Requeue as-is; dispatch restarts the clock.
                    queue.append(item)
                    continue
                broken = True  # running workers can't be preempted: kill
                self._requeue_failure(
                    item,
                    SweepTimeoutError(
                        f"chunk of {len(item.cells)} cell(s) exceeded its "
                        f"{_chunk_deadline(item.cells):.1f}s deadline"
                    ),
                    queue, result, suspect=True,
                )
            if broken:
                self._restart_pool(result)
                # Remaining in-flight futures belonged to the killed
                # pool: reap them back into the queue as unpenalized
                # suspects and let solo re-runs sort guilt out.
                for fut, (item, _deadline) in list(inflight.items()):
                    self._requeue_failure(
                        item, BrokenExecutor("pool killed mid-flight"),
                        queue, result, penalize=False, suspect=True,
                    )
                inflight.clear()

    # ------------------------------------------------------------------
    # Object execution (pre-built topology/policy/traffic)
    # ------------------------------------------------------------------
    def run_objects(
        self,
        topo,
        policy,
        traffic,
        loads,
        label: str = "",
        config: "SimConfig | None" = None,
        warmup: int = 600,
        measure: int = 1200,
        drain: int = 300,
        seed=0,
        engine: "str | None" = None,
    ) -> LoadSweep:
        """Sweep ``loads`` over already-constructed objects, inline.

        The escape hatch for callers whose topology isn't expressible as
        a registry spec (degraded fabrics, incremental expansions).  No
        caching or multiprocessing — live objects have no content hash
        and may not pickle — but the per-point execution path is the
        same :func:`simulate_point` the spec path uses.  ``engine`` pins
        a simulator engine without touching ``$REPRO_SIM_ENGINE``.
        """
        points = [
            SweepPoint.from_result(
                simulate_point(
                    topo, policy, traffic, load, config=config,
                    warmup=warmup, measure=measure, drain=drain, seed=seed,
                    engine=engine,
                )
            )
            for load in loads
        ]
        return LoadSweep(label or f"{topo.name}", points)
