"""The observability layer: registry, sink, sweeps, chaos, and report.

Covers the :mod:`repro.obs` primitives (counters, spans, per-pid JSONL
shards with merge-on-read), the `SweepRunner` event wiring (lifecycle
events across worker processes, the `REPRO_SWEEP_PROGRESS` heartbeat),
chaos runs producing the expected retry/restart events, and the
``tools/obsreport.py`` renderer.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.experiments import ExperimentSpec, ResultCache, SweepRunner
from repro.experiments.runner import ExperimentResult, _Heartbeat
from repro.obs.metrics import Registry

FAST = dict(warmup=80, measure=160, drain=40)

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def small_spec(**overrides):
    kwargs = dict(loads=(0.2, 0.4, 0.6, 0.8), root_seed=7, **FAST)
    kwargs.update(overrides)
    return ExperimentSpec.grid(
        ["polarfly:conc=2,q=5"], ["min"], ["uniform"], **kwargs
    )


class TestMetrics:
    def test_counter_snapshot_and_reset(self):
        reg = Registry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.counter("b").inc()
        assert reg.snapshot() == {"counters": {"b": 1, "c": 5}}
        reg.reset()
        assert reg.snapshot() == {"counters": {}}


class TestSink:
    def test_disabled_is_inert(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        assert not obs.enabled()
        obs.emit("anything", x=1)
        assert list(tmp_path.iterdir()) == []
        # Disabled spans are one shared no-op object.
        assert obs.span("a") is obs.span("b")

    def test_emit_and_read_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        assert obs.enabled() and obs.obs_dir() == str(tmp_path)
        obs.emit("first", a=1)
        obs.emit("second", b="two")
        with obs.span("timed", tag="x"):
            pass
        evs = obs.read_events(tmp_path)
        assert [e["ev"] for e in evs] == ["first", "second", "span"]
        assert evs[0]["a"] == 1 and evs[0]["pid"] == os.getpid()
        assert evs[1]["b"] == "two"
        span = evs[2]
        assert span["name"] == "timed" and span["ok"] and span["secs"] >= 0
        # seq is per-process monotonic; ties in ts stay ordered.
        assert evs[0]["seq"] < evs[1]["seq"] < evs[2]["seq"]

    def test_corrupt_lines_skipped(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        obs.emit("good", n=1)
        # A killed worker's shard ends in a torn line; the good lines
        # before the tear still merge.
        (tmp_path / "events-99999.jsonl").write_text(
            '{"ev": "good", "ts": 0.0, "pid": 99999, "seq": 0, "n": 0}\n'
            '{"ev": "trunca'
        )
        obs.emit("good", n=2)
        evs = obs.read_events(tmp_path)
        assert sorted(e["n"] for e in evs) == [0, 1, 2]

    def test_torn_line_mid_file_skipped(self, tmp_path):
        # A tear does not have to be at the tail (e.g. a partial flush
        # followed by more appends): lines after the tear still parse.
        (tmp_path / "events-1.jsonl").write_text(
            '{"ev": "a", "ts": 1.0, "pid": 1, "seq": 0}\n'
            '{"ev": "torn", "ts": 2.0, "pi\n'
            "not json at all\n"
            "\n"
            '{"ev": "b", "ts": 3.0, "pid": 1, "seq": 2}\n'
        )
        assert [e["ev"] for e in obs.read_events(tmp_path)] == ["a", "b"]

    def test_out_of_order_shards_merge_on_ts_pid_seq(self, tmp_path):
        # Two workers' shards, each internally ordered but interleaved
        # in wall time, with a duplicate timestamp across processes:
        # the merge is total-ordered by (ts, pid, seq).
        (tmp_path / "events-20.jsonl").write_text(
            '{"ev": "w2-first", "ts": 1.5, "pid": 20, "seq": 0}\n'
            '{"ev": "w2-dup", "ts": 2.0, "pid": 20, "seq": 1}\n'
        )
        (tmp_path / "events-10.jsonl").write_text(
            '{"ev": "w1-first", "ts": 1.0, "pid": 10, "seq": 0}\n'
            '{"ev": "w1-dup", "ts": 2.0, "pid": 10, "seq": 1}\n'
            '{"ev": "w1-dup2", "ts": 2.0, "pid": 10, "seq": 2}\n'
            '{"ev": "w1-last", "ts": 3.0, "pid": 10, "seq": 3}\n'
        )
        assert [e["ev"] for e in obs.read_events(tmp_path)] == [
            "w1-first",   # ts 1.0
            "w2-first",   # ts 1.5
            "w1-dup",     # ts 2.0, pid 10, seq 1
            "w1-dup2",    # ts 2.0, pid 10, seq 2
            "w2-dup",     # ts 2.0, pid 20
            "w1-last",    # ts 3.0
        ]

    def test_sampling(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path},sample=3")
        for _ in range(9):
            obs.emit("sampled.ev", sampled=True)
        for _ in range(3):
            obs.emit("always.ev")
        evs = obs.read_events(tmp_path)
        assert sum(e["ev"] == "sampled.ev" for e in evs) == 3
        assert sum(e["ev"] == "always.ev" for e in evs) == 3

    def test_env_change_reconfigures(self, monkeypatch, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv(obs.OBS_ENV, f"dir={a}")
        obs.emit("one")
        monkeypatch.setenv(obs.OBS_ENV, f"dir={b}")
        obs.emit("two")
        assert [e["ev"] for e in obs.read_events(a)] == ["one"]
        assert [e["ev"] for e in obs.read_events(b)] == ["two"]


class TestCacheCounters:
    def test_hit_miss_counters(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        obs.REGISTRY.reset()
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"cell": {}, "result": {}})
        assert cache.get("ab" + "0" * 62) is not None
        snap = obs.REGISTRY.snapshot()["counters"]
        assert snap["cache.misses"] == 1
        assert snap["cache.hits"] == 1

    def test_corrupt_counter_and_event(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path / 'obs'}")
        obs.REGISTRY.reset()
        cache = ResultCache(tmp_path / "cache")
        key = "cd" + "0" * 62
        path = cache.put(key, {"cell": {}, "result": {}})
        path.write_text('{"torn')
        assert cache.get(key) is None  # quarantined, reported as miss
        snap = obs.REGISTRY.snapshot()["counters"]
        assert snap["cache.corrupt"] == 1
        assert snap["cache.quarantined"] == 1
        evs = obs.read_events(tmp_path / "obs")
        assert any(
            e["ev"] == "cache.corrupt" and e["key"] == key for e in evs
        )


class TestSweepEvents:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lifecycle_events_and_shards(self, monkeypatch, tmp_path, workers):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        with SweepRunner(cache=None, max_workers=workers) as runner:
            result = runner.run(small_spec())
        assert len(result.cells) == 4
        evs = obs.read_events(tmp_path)
        names = [e["ev"] for e in evs]
        assert names[0] == "sweep.start"
        assert "sweep.end" in names
        assert "counters" in names
        end = next(e for e in evs if e["ev"] == "sweep.end")
        assert end["done"] == 4 and end["failed"] == 0
        cell_spans = [
            e for e in evs if e["ev"] == "span" and e["name"] == "sweep.cell"
        ]
        assert len(cell_spans) == 4
        tele = [e for e in evs if e["ev"] == "cell.telemetry"]
        assert len(tele) == 4
        assert all(t["top_links"] for t in tele)
        if workers > 1:
            # Parallel path: chunk dispatches + scheduler-side chunk
            # spans, and at least one worker pid beyond the parent's.
            assert any(e["ev"] == "chunk.dispatch" for e in evs)
            assert any(
                e["ev"] == "span" and e["name"] == "sweep.chunk" for e in evs
            )
            assert len({e["pid"] for e in evs}) > 1

    def test_reference_engine_emits_the_same_cell_telemetry(
        self, monkeypatch, tmp_path
    ):
        top_links = {}
        for engine in ("flat", "reference"):
            monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
            monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path / engine}")
            SweepRunner(cache=None, max_workers=1).run(small_spec())
            top_links[engine] = {
                e["key"]: e["top_links"]
                for e in obs.read_events(tmp_path / engine)
                if e["ev"] == "cell.telemetry"
            }
        assert len(top_links["reference"]) == 4
        assert top_links["reference"] == top_links["flat"]

    def test_closed_loop_cells_emit_cell_telemetry(self, monkeypatch, tmp_path):
        spec = ExperimentSpec.workload_grid(
            ["polarfly:conc=2,q=5"], ["min"],
            ["alltoall:size=4", "allreduce:algo=ring,size=16"], root_seed=7,
        )
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        clean = SweepRunner(cache=None, max_workers=1).run(spec)
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        observed = SweepRunner(cache=None, max_workers=1).run(spec)
        assert observed.cells == clean.cells
        tele = {
            e["key"]: e for e in obs.read_events(tmp_path)
            if e["ev"] == "cell.telemetry"
        }
        assert sorted(tele) == sorted(c["key"][:12] for c in spec.cells())
        for cell in spec.cells():
            event = tele[cell["key"][:12]]
            # over the whole run: the workload's completion time
            assert event["cycles"] == observed.cells[cell["key"]]["cycles"]
            counts = [c for _, _, c in event["top_links"]]
            assert counts and counts == sorted(counts, reverse=True)

    def test_events_do_not_change_results(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        clean = SweepRunner(cache=None, max_workers=1).run(small_spec())
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        observed = SweepRunner(cache=None, max_workers=1).run(small_spec())
        assert clean.cells == observed.cells

    def test_cache_hit_ratio_in_progress(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache, max_workers=1).run(small_spec())
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path / 'obs'}")
        SweepRunner(cache=cache, max_workers=1).run(small_spec())
        evs = obs.read_events(tmp_path / "obs")
        start = next(e for e in evs if e["ev"] == "sweep.start")
        assert start["cached"] == 4 and start["missing"] == 0


class TestHeartbeat:
    def test_progress_line_without_obs(self, monkeypatch, capfd):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        monkeypatch.setenv("REPRO_SWEEP_PROGRESS", "0.05")
        SweepRunner(cache=None, max_workers=1).run(small_spec())
        err = capfd.readouterr().err
        assert "[sweep]" in err
        assert "4/4 cells" in err  # the final summary line

    def test_progress_event_carries_window_rate(self, monkeypatch, tmp_path,
                                                 capfd):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        monkeypatch.setenv("REPRO_SWEEP_PROGRESS", "0.05")
        SweepRunner(cache=None, max_workers=1).run(small_spec())
        beats = [
            e for e in obs.read_events(tmp_path) if e["ev"] == "sweep.progress"
        ]
        assert beats  # final() always emits a closing beat
        for b in beats:
            assert "cells_per_s" in b and "eta_s" in b
            assert b["cells_per_s"] >= 0
        # The closing beat has completed cells, so the sliding-window
        # rate is strictly positive and the printed line shows it.
        assert beats[-1]["done"] == 4
        assert beats[-1]["cells_per_s"] > 0
        assert "rate" in capfd.readouterr().err

    def test_no_heartbeat_by_default(self, monkeypatch, capfd):
        monkeypatch.delenv(obs.OBS_ENV, raising=False)
        monkeypatch.delenv("REPRO_SWEEP_PROGRESS", raising=False)
        SweepRunner(cache=None, max_workers=1).run(small_spec())
        assert "[sweep]" not in capfd.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "-5", "nan", "0", "inf"])
    def test_bad_interval_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SWEEP_PROGRESS", raw)
        with pytest.raises(
            ValueError,
            match=rf"^\$REPRO_SWEEP_PROGRESS must be a finite number > 0, "
            rf"got '{raw}'$",
        ):
            SweepRunner(cache=None, max_workers=1).run(small_spec())

    @pytest.mark.parametrize("raw,interval", [("0.001", 0.1), (" 2.5 ", 2.5)])
    def test_interval_keeps_its_floor(self, monkeypatch, raw, interval):
        monkeypatch.setenv("REPRO_SWEEP_PROGRESS", raw)
        hb = _Heartbeat(ExperimentResult(spec=small_spec()), total=4)
        assert hb.print_line and hb.interval == interval


class TestChaosEvents:
    def test_worker_kill_emits_retry_and_restart(self, monkeypatch, tmp_path):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path / 'obs'}")
        monkeypatch.setenv("REPRO_CHAOS", f"kill=1,dir={tmp_path / 'chaos'}")
        with SweepRunner(cache=None, max_workers=2) as runner:
            result = runner.run(small_spec())
        assert result.pool_restarts >= 1 and result.retries >= 1
        evs = obs.read_events(tmp_path / "obs")
        names = [e["ev"] for e in evs]
        assert names.count("pool.restart") == result.pool_restarts
        assert sum(n == "chunk.retry" for n in names) >= 1
        end = next(e for e in evs if e["ev"] == "sweep.end")
        assert end["done"] == 4 and end["retries"] == result.retries

    def test_flaky_cell_retry_events_serial(self, monkeypatch, tmp_path):
        key = small_spec().cells()[0]["key"]
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path / 'obs'}")
        monkeypatch.setenv(
            "REPRO_CHAOS", f"flaky_key={key[:16]},dir={tmp_path / 'chaos'}"
        )
        result = SweepRunner(cache=None, max_workers=1).run(small_spec())
        assert result.retries >= 1
        evs = obs.read_events(tmp_path / "obs")
        retries = [e for e in evs if e["ev"] == "cell.retry"]
        assert retries and retries[0]["key"] == key[:12]


class TestObsReport:
    def _run_sweep(self, obs_dir):
        env = dict(os.environ)
        env["REPRO_OBS"] = f"dir={obs_dir}"
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.experiments import ExperimentSpec, SweepRunner\n"
            "spec = ExperimentSpec.grid(['polarfly:conc=2,q=5'], ['min'],"
            " ['uniform'], loads=(0.2, 0.5), root_seed=7, warmup=80,"
            " measure=160, drain=40)\n"
            "SweepRunner(cache=None, max_workers=2).run(spec)\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=env,
            cwd=os.path.dirname(TOOLS),
        )

    def test_report_renders_and_json(self, tmp_path):
        self._run_sweep(tmp_path)
        out = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "obsreport.py"), str(tmp_path)],
            check=True, capture_output=True, text=True,
        ).stdout
        assert "span waterfall" in out
        assert "sweep.cell" in out
        assert "hottest links" in out
        doc = json.loads(
            subprocess.run(
                [
                    sys.executable, os.path.join(TOOLS, "obsreport.py"),
                    str(tmp_path), "--json", "--top", "3",
                ],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        assert doc["sweep_end"]["done"] == 2
        assert len(doc["hottest_links"]) == 3
        assert doc["spans"]["sweep.cell"]["count"] == 2

    def test_report_keeps_only_the_counters_of_an_old_snapshot(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(obs.OBS_ENV, f"dir={tmp_path}")
        obs.emit(
            "counters", counters={"cache.hits": 3}, gauges={"g": 2.5},
            histograms={"h": {"count": 1, "sum": 2.0, "min": 2.0, "max": 2.0}},
        )
        report = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "obsreport.py"), str(tmp_path)],
            check=True, capture_output=True, text=True,
        ).stdout
        assert "cache.hits" in report and "gauges" not in report
        doc = json.loads(
            subprocess.run(
                [sys.executable, os.path.join(TOOLS, "obsreport.py"),
                 str(tmp_path), "--json"],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        assert doc["counters"] == {"counters": {"cache.hits": 3}}

    def test_empty_dir_fails(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "obsreport.py"), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
