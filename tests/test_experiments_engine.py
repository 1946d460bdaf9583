"""The sweep engine's contracts: deterministic seeding, cache round
trips, worker-count independence, and the object escape hatch."""

import math
import os
import subprocess
import sys

import pytest

from repro.core import PolarFly
from repro.experiments import (
    Combo,
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    cell_hash,
)
from repro.experiments.registry import TOPOLOGIES
from repro.experiments.runner import (
    TIMEOUT_FLOOR_S,
    _estimate_routers,
    auto_sim_config,
    cell_timeout,
    default_worker_count,
    run_cell,
)
from repro.flitsim import UniformTraffic
from repro.routing import MinimalRouting, RoutingTables
from repro.utils.rng import derive_seed

FAST = dict(warmup=80, measure=160, drain=40)

#: two PolarFly q=3 cells, and three ways to run them
_PF3 = (
    "ExperimentSpec.grid(['polarfly:conc=2,q=3'], ['min'], ['uniform'], "
    "loads=(0.2, 0.5), warmup=20, measure=40, drain=10, root_seed=3)"
)
_SWEEPS = {
    "run_cell": "print('cells:', len([run_cell(c) for c in spec.cells()]))",
    "serial": "print('cells:', len(SweepRunner(cache=None, max_workers=1)"
              ".run(spec).cells))",
    "pool": "with SweepRunner(cache=None, max_workers=2) as runner:\n"
            "    print('cells:', len(runner.run(spec).cells))",
}
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def tiny_spec(**overrides):
    kwargs = dict(
        loads=(0.2, 0.6),
        root_seed=7,
        **FAST,
    )
    kwargs.update(overrides)
    return ExperimentSpec.grid(
        ["polarfly:conc=2,q=5"], ["min", "ugal-pf"], ["uniform"], **kwargs
    )


class TestSpec:
    def test_grid_cross_product(self):
        spec = ExperimentSpec.grid(
            ["polarfly:conc=2,q=5", "petersen:p=2"], ["min"], ["uniform", "tornado"],
            loads=(0.5,),
        )
        assert len(spec.combos) == 4
        assert len(spec.cells()) == 4

    def test_describe_counts_the_cells(self):
        assert tiny_spec().describe() == (
            "2 combo(s) x 2 load(s) = 4 cells "
            "(warmup=80, measure=160, drain=40, root_seed=7)"
        )

    def test_combo_canonicalizes_and_labels(self):
        c = Combo("polarfly:q=5,conc=2", "min", "uniform")
        assert c.topology == "polarfly:conc=2,q=5"
        assert c.label == "polarfly:conc=2,q=5|min|uniform"
        assert Combo("polarfly:conc=2,q=5", "min", "uniform", label="PF") .label == "PF"

    def test_cell_hash_ignores_label_and_key_order(self):
        a = tiny_spec().cell(Combo("polarfly:q=5,conc=2", "min", "uniform", label="x"), 0.2)
        b = tiny_spec().cell(Combo("polarfly:conc=2,q=5", "min", "uniform", label="y"), 0.2)
        assert a["key"] == b["key"]

    def test_cell_hash_sensitive_to_content(self):
        spec = tiny_spec()
        combo = spec.combos[0]
        assert spec.cell(combo, 0.2)["key"] != spec.cell(combo, 0.6)["key"]
        assert (
            spec.cell(combo, 0.2)["key"]
            != spec.with_(root_seed=8).cell(combo, 0.2)["key"]
        )
        doc = {k: v for k, v in spec.cell(combo, 0.2).items() if k != "key"}
        assert cell_hash(doc) == spec.cell(combo, 0.2)["key"]

    def test_trace_cells_key_and_seed_by_content_not_path(self, tmp_path):
        records = "".join(
            f'{{"id": {i}, "src": {i}, "dst": {i + 3}, "size": {2 + i}}}\n'
            for i in range(4)
        )
        paths = [tmp_path / "a" / "t.jsonl", tmp_path / "b" / "moved.jsonl"]
        for path in paths:
            path.parent.mkdir()
            path.write_text(records)

        def cell(path):
            spec = ExperimentSpec.workload_grid(
                ["polarfly:conc=2,q=5"], ["min"], [f"trace:path={path}"], root_seed=3
            )
            return spec.cells()[0]

        a, b = (cell(path) for path in paths)
        assert a["workload"] != b["workload"]  # each still loads its own file
        assert (a["key"], a["seed"]) == (b["key"], b["seed"])
        assert run_cell(a) == run_cell(b)
        paths[1].write_text(records.replace('"size": 5', '"size": 6'))
        edited = cell(paths[1])
        assert edited["key"] != a["key"] and edited["seed"] != a["seed"]

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(combos=(), loads=(0.5,))
        with pytest.raises(ValueError):
            tiny_spec(loads=())


    @pytest.mark.parametrize(
        "windows,field",
        [
            (dict(measure=0), "measure"),
            (dict(measure=-1), "measure"),
            (dict(warmup=-1), "warmup"),
            (dict(drain=-3), "drain"),
            (dict(drain=2.5), "drain"),
            (dict(warmup="80"), "warmup"),
        ],
    )
    def test_bad_window_rejected_at_construction(self, windows, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            tiny_spec(**windows)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            tiny_spec().with_(**windows)

    def test_smallest_windows_accepted(self):
        spec = tiny_spec(warmup=0, measure=1, drain=0)
        assert (spec.warmup, spec.measure, spec.drain) == (0, 1, 0)


class TestDerivedSeeds:
    def test_deterministic_and_distinct(self):
        s1 = derive_seed(7, "a", "b", 0.2)
        assert s1 == derive_seed(7, "a", "b", 0.2)
        assert s1 != derive_seed(8, "a", "b", 0.2)
        assert s1 != derive_seed(7, "a", "b", 0.6)
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")
        assert 0 <= s1 < 2**63

    def test_cells_get_distinct_seeds(self):
        seeds = [c["seed"] for c in tiny_spec().cells()]
        assert len(set(seeds)) == len(seeds)


class TestRunner:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return SweepRunner(cache=None, max_workers=1).run(tiny_spec())

    def test_shapes_and_labels(self, serial_result):
        assert len(serial_result.sweeps) == 2
        for sweep in serial_result.sweeps:
            assert len(sweep.points) == 2
            for pt in sweep.points:
                assert 0 < pt.accepted_load <= 1.0
                assert pt.p50_latency <= pt.p99_latency
        assert serial_result.cache_misses == 4
        with pytest.raises(KeyError):
            serial_result.sweep("nope")

    def test_cache_round_trip_bit_identical(self, tmp_path, serial_result):
        cache = ResultCache(tmp_path / "cache")
        r1 = SweepRunner(cache=cache).run(tiny_spec())
        assert (r1.cache_hits, r1.cache_misses) == (0, 4)
        assert len(cache) == 4
        r2 = SweepRunner(cache=ResultCache(tmp_path / "cache")).run(tiny_spec())
        assert (r2.cache_hits, r2.cache_misses) == (4, 0)
        for s1, s2 in zip(r1.sweeps, r2.sweeps):
            assert s1.label == s2.label
            assert s1.points == s2.points  # bit-identical floats
        # cache or no cache, same numbers
        for s1, s2 in zip(serial_result.sweeps, r1.sweeps):
            assert s1.points == s2.points

    def test_partial_cache_simulates_only_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        small = tiny_spec(loads=(0.2,))
        SweepRunner(cache=cache).run(small)
        full = SweepRunner(cache=cache).run(tiny_spec())
        assert full.cache_hits == 2  # the 0.2 cells of both combos
        assert full.cache_misses == 2

    def test_version_bump_invalidates_in_place(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        small = tiny_spec(loads=(0.2,))
        SweepRunner(cache=cache).run(small)
        # same key, older cell version -> treated as a miss and overwritten
        for p in cache.root.glob("*/*.json"):
            doc = json.loads(p.read_text())
            doc["cell"]["version"] = -1
            p.write_text(json.dumps(doc))
        r = SweepRunner(cache=cache).run(small)
        assert r.cache_misses == len(small.cells())
        r2 = SweepRunner(cache=cache).run(small)
        assert r2.cache_hits == len(small.cells())

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        small = tiny_spec(loads=(0.2,))
        r1 = SweepRunner(cache=cache).run(small)
        for p in cache.root.glob("*/*.json"):
            p.write_text("{not json")
        r2 = SweepRunner(cache=cache).run(small)
        assert r2.cache_misses == len(small.cells())
        for s1, s2 in zip(r1.sweeps, r2.sweeps):
            assert s1.points == s2.points

    def test_multi_worker_matches_serial(self, serial_result):
        with SweepRunner(cache=None, max_workers=2) as runner:
            parallel = runner.run(tiny_spec())
        for s1, s2 in zip(serial_result.sweeps, parallel.sweeps):
            assert s1.label == s2.label
            assert s1.points == s2.points

    def test_worker_counts_1_2_4_identical_cells(self):
        """The determinism contract under the chunked scheduler."""
        spec = ExperimentSpec.grid(
            ["polarfly:conc=2,q=5", "petersen:p=2"], ["min"], ["uniform"],
            loads=(0.2, 0.6), root_seed=7, **FAST,
        )
        results = {}
        for workers in (1, 2, 4):
            with SweepRunner(cache=None, max_workers=workers) as runner:
                results[workers] = runner.run(spec).cells
        assert results[1] == results[2] == results[4]

    def test_chunks_are_topology_affine_and_cover(self):
        spec = ExperimentSpec.grid(
            ["polarfly:conc=2,q=5", "petersen:p=2"], ["min"], ["uniform"],
            loads=(0.2, 0.4, 0.6), root_seed=7, **FAST,
        )
        cells = spec.cells()
        for workers in (1, 2, 4, 16):
            chunks = SweepRunner(cache=None, max_workers=workers)._chunks(cells)
            # never mixes topologies within a chunk
            assert all(
                len({c["topology"] for c in chunk}) == 1 for chunk in chunks
            )
            # exact cover, no duplicates
            keys = [c["key"] for chunk in chunks for c in chunk]
            assert sorted(keys) == sorted(c["key"] for c in cells)

    def test_pool_persists_across_runs(self):
        spec = ExperimentSpec.grid(
            ["polarfly:conc=2,q=5"], ["min"], ["uniform"],
            loads=(0.2, 0.6), root_seed=7, **FAST,
        )
        with SweepRunner(cache=None, max_workers=2) as runner:
            runner.run(spec)
            first = runner._pool
            runner.run(spec.with_(root_seed=8))
            assert runner._pool is first and first is not None
        assert runner._pool is None  # closed on exit

    def test_run_cell_executable_standalone(self):
        cell = tiny_spec().cells()[0]
        stats = run_cell(cell)
        assert stats["offered_load"] == 0.2
        assert math.isfinite(stats["avg_latency"])
        assert stats == run_cell(dict(cell))  # pure function of the record

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)

    @pytest.mark.parametrize("how", sorted(_SWEEPS))
    def test_only_a_pool_imports_the_process_pool_machinery(self, how):
        """In a fresh interpreter: a cell run inline (``run_cell``, a
        serial sweep) loads no ``multiprocessing``; a two-worker sweep
        (the control) does, and still completes."""
        child = (
            "import sys\n"
            "from repro.experiments import ExperimentSpec, SweepRunner\n"
            "from repro.experiments.runner import run_cell\n"
            f"spec = {_PF3}\n"
            f"{_SWEEPS[how]}\n"
            f"print(sorted(m for m in {POOL_MODULES!r} if m in sys.modules))\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        loaded = eval(lines[-1])
        assert loaded == (sorted(POOL_MODULES) if how == "pool" else [])
        assert lines[0] == "cells: 2"

    @pytest.mark.parametrize(
        "name,raw,want",
        [
            # unset and empty fall through to the derived defaults
            ("REPRO_SWEEP_WORKERS", None, os.cpu_count() or 1),
            ("REPRO_SWEEP_WORKERS", "  ", os.cpu_count() or 1),
            ("REPRO_SWEEP_WORKERS", " 3 ", 3),
            ("REPRO_SWEEP_WORKERS", "two", "an integer >= 1, got 'two'"),
            ("REPRO_SWEEP_WORKERS", "1.5", "an integer >= 1, got '1.5'"),
            ("REPRO_SWEEP_WORKERS", "0", "an integer >= 1, got '0'"),
            ("REPRO_SWEEP_WORKERS", "-2", "an integer >= 1, got '-2'"),
            ("REPRO_SWEEP_TIMEOUT", None, TIMEOUT_FLOOR_S),
            ("REPRO_SWEEP_TIMEOUT", "0.5", 0.5),
            ("REPRO_SWEEP_TIMEOUT", "soon", "a finite number > 0, got 'soon'"),
            ("REPRO_SWEEP_TIMEOUT", "0", "a finite number > 0, got '0'"),
            ("REPRO_SWEEP_TIMEOUT", "-1", "a finite number > 0, got '-1'"),
            ("REPRO_SWEEP_TIMEOUT", "nan", "a finite number > 0, got 'nan'"),
            ("REPRO_SWEEP_TIMEOUT", "inf", "a finite number > 0, got 'inf'"),
        ],
    )
    def test_env_overrides_are_validated(self, monkeypatch, name, raw, want):
        read = {
            "REPRO_SWEEP_WORKERS": default_worker_count,
            "REPRO_SWEEP_TIMEOUT": lambda: cell_timeout(tiny_spec().cells()[0]),
        }[name]
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                read()
            assert f"${name} must be {want}" in str(err.value)
        else:
            assert read() == want


#: (spec, estimate is exact): every registered family's example and one
#: larger instance.  A PolarStar left to its default supernode order is
#: estimated from the ``2q + 3`` bound.
ROUTER_ESTIMATES = [
    ("dragonfly:a=4,h=2,p=2", True),
    ("dragonfly:a=6,h=3", True),
    ("fattree:k=4,n=3", True),
    ("fattree:k=8,n=3", True),
    ("hoffman-singleton:p=2", True),
    ("hoffman-singleton:p=7", True),
    ("hyperx:L=2,S=3,p=1", True),
    ("hyperx:L=3,S=5", True),
    ("jellyfish:n=25,p=2,r=4,seed=7", True),
    ("jellyfish:n=60,r=6", True),
    ("petersen:p=2", True),
    ("petersen:p=3", True),
    ("polarfly:conc=2,q=5", True),
    ("polarfly:q=13", True),
    ("polarstar:conc=2,q=3,sq=5", True),
    ("polarstar:q=4", False),
    ("slimfly:conc=2,q=5", True),
    ("slimfly:q=7", True),
]


def test_router_estimates_cover_every_family():
    examples = {TOPOLOGIES.example(name) for name in TOPOLOGIES.names()}
    assert examples <= {spec for spec, _ in ROUTER_ESTIMATES}
    assert {spec.partition(":")[0] for spec, _ in ROUTER_ESTIMATES} == set(
        TOPOLOGIES.names()
    )


@pytest.mark.parametrize("spec,exact", ROUTER_ESTIMATES)
def test_router_estimate_bounds_the_built_count(spec, exact):
    """The per-cell hang timeout scales with this guess: never under."""
    built = TOPOLOGIES.create(spec).num_routers
    estimate = _estimate_routers(spec)
    assert estimate >= built
    assert (estimate == built) == exact


class TestObjectPath:
    def test_engine_parameter_threads_through(self):
        pf = PolarFly(5, concentration=2)
        tables = RoutingTables(pf)
        args = dict(loads=(0.3,), warmup=80, measure=160, drain=40, seed=3)
        ref = SweepRunner().run_objects(
            pf, MinimalRouting(tables), UniformTraffic(pf),
            engine="reference", **args,
        )
        flat = SweepRunner().run_objects(
            pf, MinimalRouting(tables), UniformTraffic(pf),
            engine="flat", **args,
        )
        # engines are result-equivalent, so pinning either one must
        # produce the same points — and must not raise
        assert ref.points == flat.points


class TestAutoConfig:
    def test_budget_split(self):
        pf = PolarFly(5, concentration=2)
        policy = MinimalRouting(RoutingTables(pf))
        cfg = auto_sim_config(policy, port_budget=32)
        assert cfg.num_vcs == 4 and cfg.vc_depth == 8
        cfg = auto_sim_config(policy, num_vcs=6)
        assert cfg.num_vcs == 6 and cfg.vc_depth == 5
        cfg = auto_sim_config(policy, num_vcs=4, vc_depth=2)
        assert (cfg.num_vcs, cfg.vc_depth) == (4, 2)


def test_default_cache_is_the_env_dir_else_under_home(monkeypatch, tmp_path):
    """The README quickstart's ``SweepRunner.with_default_cache()``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    runner = SweepRunner.with_default_cache(max_workers=3)
    assert (runner.cache.root, runner.max_workers) == (tmp_path / "env", 3)
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert ResultCache.default().root == tmp_path / ".cache" / "repro" / "experiments"
    assert ResultCache.from_env() is None


def test_package_lists_its_lazy_names():
    import repro.experiments as package

    assert set(package.__all__) <= set(dir(package))


class TestCacheHardening:
    """The cache's corruption-quarantine and shard-hygiene contracts."""

    def put_some(self, cache, n=3):
        for i in range(n):
            cache.put(f"{i:02x}{'ab' * 31}", {"cell": {"i": i}, "result": {"x": i}})

    def test_len_and_clear_ignore_quarantine_dirs(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.put_some(cache)
        cache.quarantine(f"00{'ab' * 31}")
        cache.put_failure("ff" * 32, {"error": "boom"})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        # quarantined evidence survives a clear
        assert len(list(cache.corrupt_dir.glob("*.json*"))) == 1
        assert cache.get_failure("ff" * 32) is not None

    def test_clear_removes_empty_shard_dirs(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.put_some(cache)
        shards = [p for p in cache.root.glob("??") if p.is_dir()]
        assert shards
        cache.clear()
        assert not [p for p in cache.root.glob("??") if p.is_dir()]

    def test_get_quarantines_unreadable_artifact(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = f"00{'ab' * 31}"
        cache.put(key, {"result": {"x": 1}})
        cache.path_for(key).write_text('{"trunc')
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()
        assert len(list(cache.corrupt_dir.glob(f"{key}.json*"))) == 1
        # re-put after quarantine round-trips again
        cache.put(key, {"result": {"x": 2}})
        assert cache.get(key) == {"result": {"x": 2}}

    def test_checksum_tamper_detected_as_miss(self, tmp_path):
        import json as _json

        cache = ResultCache(tmp_path)
        key = f"00{'ab' * 31}"
        path = cache.put(key, {"result": {"avg_latency": 9.25}})
        doc = _json.loads(path.read_text())
        assert "__sha256__" in doc
        doc["result"]["avg_latency"] = 1.0  # stale checksum kept
        path.write_text(_json.dumps(doc))
        assert cache.get(key) is None  # tamper → quarantined miss
        assert len(list(cache.corrupt_dir.glob(f"{key}.json*"))) == 1
