#!/usr/bin/env python3
"""Host-time benchmark of the sweep -> tables -> cycle-loop stack.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py [--seed S] [--repeats R] [--workload NAME] [--out F.json]
    python3 bench/run.py --compare A.json B.json

The load is a closed loop with one client: one serial sweep at a time,
at most one child process alive.  A *run* samples one workload for
``--seconds``, every sample a fresh child (see ``bench_child.py``), and
gives one value per end-to-end metric: for the two times, the sum over
cells of the fastest sample of that cell, which filters the machine's
interference (see README.md).  The first form is the
driver's: one run, its metrics in one JSON object on the last line of
stdout (end-to-end with ``--trace 0``, per-layer from traced children with
``--trace 1``).  The second form runs every workload round-robin,
``--repeats`` runs each plus a short traced run, and prints every metric
by name.  Exit code 1: an output check failed; 2: the C kernel did not
load.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: everything the benchmark writes (kernel cache, temporary result caches)
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bench_checks  # noqa: E402

#: samples an untraced run takes even when its time is up
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def scrub_env() -> None:
    """Drop every ``REPRO_*`` knob, pin BLAS threads, point at our kernel cache.

    Children inherit ``os.environ``, so this is their hygiene too.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernel")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Canary:
    """A fixed ~0.3 s of sort, gather and interpreter work.

    Run before and after every run, it records the machine's speed beside
    the numbers (``bench.canary_s``): the same mix of memory-bound numpy
    and Python bytecode the simulator runs.  Nothing is discarded on it —
    its own noise is +-15 % on this box, and the cell-wise estimator
    already ignores a slow sample.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 20)
        self.index = rng.permutation(1 << 20)

    def run(self) -> float:
        t = time.perf_counter()
        for _ in range(10):
            gathered = self.values[self.index]
            gathered.sort()
        total = 0
        for i in range(2_000_000):
            total += i & 7
        return time.perf_counter() - t


def summarize(values: list) -> dict:
    """median / quartiles / min / max / n of one metric's per-run values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def spawn(workload: str, seed: int, mode: str, tmp: str, env=None) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable, str(BENCH / "bench_child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--tmp", tmp,
        "--spawned", repr(time.time()),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        print(f"bench: {mode} child of {workload} exited {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    return json.loads(proc.stdout.splitlines()[-1])


def spawn_traced(workload: str, seed: int, tmp: str) -> dict:
    """A traced child on a fresh kernel cache, so its load is a compile."""
    kernel_dir = tempfile.mkdtemp(dir=tmp)
    try:
        env = dict(os.environ, REPRO_KERNEL_CACHE=kernel_dir)
        return spawn(workload, seed, "trace", tmp, env=env)
    finally:
        shutil.rmtree(kernel_dir, ignore_errors=True)


def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
    }


def quiet_sum(samples: list, column: int) -> float:
    """Sum over cells of the fastest observed time of that cell.

    ``samples[i]["cell_times"][label]`` is the ``[wall, user]`` pair of one
    cell in one sample.  On a shared box interference comes in bursts of a
    second or so and only ever adds time; a whole 3 s sample is rarely
    untouched, but each ~0.1 s cell is untouched in some sample.  Taking
    the fastest sample cell by cell estimates the run's time net of
    interference, and repeats 2-4x more closely than the median of sample
    totals does.
    """
    return sum(
        min(s["cell_times"][label][column] for s in samples if label in s["cell_times"])
        for label in samples[0]["cell_times"]  # (a quarantined cell has no entry)
    )


def end_to_end_values(samples: list) -> dict:
    """One run's end-to-end metrics from its samples."""
    return {
        "wall_s": quiet_sum(samples, 0),
        "user_s": quiet_sum(samples, 1),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def parent_layers(samples: list, canaries: list, traced: list) -> dict:
    """The per-layer metrics only the parent can compute."""
    wall = statistics.median(s["wall_s"] for s in samples)
    traced_wall = statistics.median(t["traced_wall_s"] for t in traced)
    return {
        "flitsim.kernel.load_s": statistics.median(s["load_s"] for s in samples),
        "bench.canary_s": statistics.mean(canaries),
        "bench.sys_s": statistics.median(s["sys_s"] for s in samples),
        "bench.sample_wall_s": wall,
        "bench.trace_overhead_share": (traced_wall - wall) / wall,
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             canary: Canary, tmp: str) -> dict:
    """One run: fresh-child samples of one workload until ``seconds`` passed.

    Untraced, every child is a sample (at least :data:`MIN_SAMPLES`).
    Traced, one sample gives the base of ``bench.trace_overhead_share`` and
    the rest of the time goes to traced children (at least one).
    """
    started = time.monotonic()
    canaries = [canary.run()]
    samples, traced = [], []
    while (
        len(samples) < (1 if trace else MIN_SAMPLES)
        or (not trace and time.monotonic() - started < seconds)
    ):
        samples.append(spawn(workload, seed, "sample", tmp))
    while trace and (not traced or time.monotonic() - started < seconds):
        traced.append(spawn_traced(workload, seed, tmp))
    canaries.append(canary.run())

    children = samples + traced
    errors = [e for c in children for e in c["errors"]]
    errors += [
        f"{label}: statistics differ between two runs of the same cell"
        for c in children[1:] for label, pair in c["digests"].items()
        if pair != children[0]["digests"].get(label)
    ]
    layers = {}
    if trace:
        layers = {
            name: statistics.median(t["layers"][name] for t in traced)
            for name in traced[0]["layers"]
        }
        layers.update(parent_layers(samples, canaries, traced))
    return {
        "end_to_end": end_to_end_values(samples),
        "per_layer": layers,
        "attempted": sum(c["cells"] for c in children),
        "errors": errors,
        "sample_wall_s": [s["wall_s"] for s in samples],
        "digests": children[0]["digests"],
    }


def measure(workloads: list, seed: int, seconds: float, repeats: int,
            trace_seconds, goldens: bool = True) -> dict:
    """Run the protocol; returns the full result document.

    ``repeats`` untraced runs of ``seconds`` per workload, round-robin so a
    slow episode of the shared machine is spread over the workloads; then,
    unless ``trace_seconds`` is None, one traced run of that length each.
    ``goldens=False`` skips the comparison with ``expected.json`` (the run
    that writes it).
    """
    from repro.flitsim._kernel import load_kernel

    contract = load_contract()
    BUILD.mkdir(exist_ok=True)
    if load_kernel() is None:  # compiles into BUILD/kernel on first use
        print("bench: C cycle kernel failed to build or load; a numpy-path "
              "timing would be a 1.5-6x shift, refusing", file=sys.stderr)
        sys.exit(2)

    canary = Canary()
    canary.run()
    runs = {w: [] for w in workloads}
    traced = {}
    tmp = tempfile.mkdtemp(dir=BUILD)
    try:
        for _ in range(repeats):
            for w in workloads:
                runs[w].append(run_once(w, seed, seconds, False, canary, tmp))
        if trace_seconds is not None:
            for w in workloads:
                traced[w] = run_once(w, seed, trace_seconds, True, canary, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {"env": environment(seed), "workloads": {}}
    for w in workloads:
        every = runs[w] + ([traced[w]] if w in traced else [])
        digests = every[0]["digests"]
        errors = [e for r in every for e in r["errors"]]
        if goldens:
            errors += bench_checks.golden_errors(w, seed, digests)
        end_to_end = {}
        for m in contract["end_to_end"]:
            values = [r["end_to_end"][m["name"]] for r in runs[w]]
            if values:
                end_to_end[m["name"]] = dict(summarize(values), unit=m["unit"], values=values)
        per_layer = {}
        if w in traced:
            layers = traced[w]["per_layer"]
            declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
            if set(layers) != set(declared):
                raise SystemExit(
                    "bench: per-layer metrics differ from BENCHMARK.json: "
                    + ", ".join(sorted(set(layers) ^ set(declared)))
                )
            per_layer = {n: {"value": layers[n], "unit": u} for n, u in declared.items()}
        doc["workloads"][w] = {
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "attempted": sum(r["attempted"] for r in every),
            "failed": len(errors),
            "errors": errors,
            "sample_wall_s": [r["sample_wall_s"] for r in runs[w]],
            "digests": {label: pair[0] for label, pair in digests.items()},
        }
    return doc


def print_report(doc: dict) -> None:
    print("env: " + ", ".join(f"{k}={v}" for k, v in doc["env"].items()))
    for w, res in doc["workloads"].items():
        print(f"\n== {w}: failed_share {res['failed']}/{res['attempted']}")
        for err in res["errors"]:
            print(f"   CHECK FAILED: {err}")
        for name, m in res["end_to_end"].items():
            spread = "" if m["n"] == 1 else (
                f" q1 {m['q1']:.4f} q3 {m['q3']:.4f} min {m['min']:.4f} "
                f"max {m['max']:.4f} runs {m['n']}"
            )
            print(f"{name:<34} {m['median']:>12.4f} {m['unit']}{spread}")
        for name, m in res["per_layer"].items():
            print(f"{name:<34} {m['value']:>12.6g} {m['unit']}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(ratio B/A, verdict) for one metric; ``a`` is the base.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``improved``: every run of B reads better than every run of A.
    ``unresolved``: neither, and the run-to-run spread (interquartile
    range over median, the wider of the two sides) exceeds the bound, so
    "no regression" cannot be told from the data.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    ratio = b["median"] / a["median"]
    if sign * (ratio - 1.0) > bound:
        return ratio, "regressed"
    if max(sign * v for v in b["values"]) < min(sign * v for v in a["values"]):
        return ratio, "improved"
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    return ratio, "unresolved" if spread > bound else "unchanged"


def compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    print(f"base A = {path_a} ({doc_a['env']['git_sha'][:12]}), "
          f"B = {path_b} ({doc_b['env']['git_sha'][:12]}); ratio = B/A")
    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'B/A':>7} {'bound':>6}  verdict")
    regressed = 0
    for w, res_a in doc_a["workloads"].items():
        res_b = doc_b["workloads"].get(w)
        if res_b is None:
            continue
        for m in contract["end_to_end"]:
            a, b = res_a["end_to_end"][m["name"]], res_b["end_to_end"][m["name"]]
            ratio, word = verdict(a, b, m["better"], m["bound"])
            regressed += word == "regressed"
            cols = [f"{x['median']:.4f} [{x['q1']:.4f}, {x['q3']:.4f}] n={x['n']}" for x in (a, b)]
            print(f"{w:<20} {m['name']:<12} {cols[0]:<30} {cols[1]:<30} "
                  f"{ratio:>7.3f} {m['bound']:>6.2f}  {word}")
        for side, res in (("A", res_a), ("B", res_b)):
            if res["failed"]:
                print(f"{w:<20} {side}: {res['failed']} failed check(s) "
                      f"of {res['attempted']} cells")
                regressed += 1
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all, round-robin)")
    ap.add_argument("--seed", type=int, default=bench_checks.GOLDEN_SEED)
    ap.add_argument("--seconds", type=float,
                    help="length of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--repeats", type=int, default=1,
                    help="untraced runs per workload; --compare wants >= 5 a side")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: untraced runs only; 1: one traced run of --seconds only; "
                         "default: untraced runs, then a shortest traced run")
    ap.add_argument("--out", help="write the full result document here")
    ap.add_argument("--write-expected", action="store_true",
                    help="record this run's digests as expected.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    scrub_env()
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; valid choices: " + ", ".join(names))
    if args.write_expected and (args.seed != bench_checks.GOLDEN_SEED or args.workload):
        ap.error("--write-expected needs every workload at the golden seed")
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    doc = measure(
        [args.workload] if args.workload else names, args.seed, seconds,
        repeats=0 if args.trace == 1 else args.repeats,
        trace_seconds={None: 0.0, 0: None, 1: seconds}[args.trace],
        goldens=not args.write_expected,
    )

    if args.write_expected:
        expected = {w: res["digests"] for w, res in doc["workloads"].items()}
        with open(bench_checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    print_report(doc)
    results = doc["workloads"].values()
    summary = {
        "correct": not any(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if args.workload:  # the driver's form: this workload's metrics by name
        res = doc["workloads"][args.workload]
        summary["metrics"] = res["per_layer"] if args.trace == 1 else {
            n: {"value": m["median"], "unit": m["unit"]}
            for n, m in res["end_to_end"].items()
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
